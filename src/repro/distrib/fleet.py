"""Local workers forked from the process that owns the coordinator.

``Runner(executor="distributed", workers=N)`` and ``repro serve --workers
N`` keep N local workers attached to their coordinator through one
:class:`Fleet`. Every worker is an ``os.fork()`` of that process, so it
starts with the interpreter, the planned scenario's modules and the
initialised engine kernel already loaded and goes straight to
:func:`repro.distrib.worker.serve`; nothing is imported twice. Remote
machines start workers with ``repro worker HOST:PORT`` instead.

Precondition: fork from the thread that runs the coordinator, with no
other thread alive, as the ``pool`` executor's ``multiprocessing`` fork
already requires. A lock another thread holds at the fork stays held in
the child forever (CPython 3.12 warns with a ``DeprecationWarning`` that
says so; CI's distributed and service smokes fail on it).

The child leaves nothing of the parent's open: it closes every fd above
2 (listener, accepted connections, selector, journal, trace), points
stdout at ``/dev/null`` and stderr at fd 2, sets its chaos role and
shared secret in its own ``os.environ`` only, restores the default
SIGTERM and SIGINT before ``serve()`` installs its drain handler, and
leaves by ``os._exit`` on every path. The parent reaps each worker with
``waitpid``, so the workers' CPU lands in ``RUSAGE_CHILDREN`` and
:meth:`Fleet.close` leaves no process behind.
"""

from __future__ import annotations

import gc
import itertools
import logging
import os
import signal
import sys
import time
import traceback

from . import chaos
from .auth import load_secret

__all__ = ["Fleet", "spawn_local_worker"]

logger = logging.getLogger(__name__)

#: How long :meth:`Fleet.close` lets workers leave on the coordinator's
#: ``shutdown`` before it signals the ones still alive. A forked worker
#: was reaped 5 ms (median) and at most 11 ms after its coordinator's
#: close sent ``shutdown`` (40 workers over 20 two-worker ci-scale fig07
#: sweeps on a 2-vCPU host, idle or beside two busy processes), so a
#: worker that is still alive after this long is not leaving on its own.
_SHUTDOWN_GRACE_S = 1.0


def _preload() -> None:
    """Load the engine kernel and the compiled factorization walk here,
    once, so every fork inherits them (the walk loads even under
    ``REPRO_KERNEL=py``)."""
    from ..net.kernel import compiled_walk, engine_classes

    try:
        engine_classes()
        compiled_walk()
    except RuntimeError:
        pass  # REPRO_KERNEL=c refuses a stale module: each unit reports it


def _become_worker(role: str | None, secret: bytes | None) -> None:
    """Shed the parent's process state in a freshly forked child."""
    # Inherited objects are never collected here: a finalizer would close
    # an fd number this worker has since reused for its connection.
    gc.freeze()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", buffering=1, errors="backslashreplace", closefd=False)
    # A fresh process starts its chaos stream at the first draw.
    chaos._CACHE = None
    if role is not None:
        os.environ["REPRO_CHAOS_ROLE"] = role
    if secret is not None:
        os.environ["REPRO_SECRET"] = secret.decode("utf-8")


def spawn_local_worker(
    address: tuple[str, int],
    *,
    role: str | None = None,
    secret: bytes | None = None,
) -> int:
    """Fork one local worker attached to ``address``; return its pid.

    A wildcard listen address is dialled on loopback. ``role`` names the
    child's seeded chaos stream (``REPRO_CHAOS_ROLE``) and ``secret`` the
    shared secret it answers the handshake with (``REPRO_SECRET``). A
    failed fork raises ``OSError`` here, in the parent.
    """
    # Imported here, not at module top: the package imports this module,
    # and ``python -m repro.distrib.worker`` must find .worker unimported.
    from . import worker

    host, port = address
    if host in ("0.0.0.0", "::", ""):
        host = "127.0.0.1"
    _preload()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _become_worker(role, secret)
        code = worker.serve((host, port), secret=load_secret())
    except BaseException:
        traceback.print_exc()  # the child never unwinds into the parent
    finally:
        os._exit(code)


class Fleet:
    """The forked local workers of one coordinator: start, replace, reap.

    Each worker gets the role ``worker-N``, N counting up over every start
    and replacement, so a fleet under ``REPRO_CHAOS`` draws from
    partitioned fault streams and a replacement never replays its
    predecessor's. ``budget`` is how many more dead workers
    :meth:`maintain` may replace.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        max_respawns: int,
        secret: bytes | None = None,
    ) -> None:
        self.address = address
        self.secret = secret
        self.budget = max_respawns
        self.pids: list[int] = []
        self._roles = itertools.count()

    def _spawn(self) -> None:
        self.pids.append(
            spawn_local_worker(
                self.address, role=f"worker-{next(self._roles)}", secret=self.secret
            )
        )

    def start(self, n: int) -> None:
        """Fork ``n`` workers; a failed fork reaps those started and re-raises."""
        try:
            for _ in range(n):
                self._spawn()
        except OSError:
            self._terminate()  # no coordinator told these to shut down
            raise

    def reap(self) -> int:
        """Collect the workers that have exited; return how many."""
        live = []
        for pid in self.pids:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue  # reaped elsewhere (SIGCHLD ignored)
            if not done:
                live.append(pid)
        lost = len(self.pids) - len(live)
        self.pids = live
        return lost

    def maintain(self, replace: bool) -> None:
        """Reap exited workers and, if ``replace``, fork replacements
        while the budget lasts (a coordinator's per-tick watchdog)."""
        lost = self.reap()
        if replace:
            for _ in range(min(lost, max(self.budget, 0))):
                self._spawn()
                self.budget -= 1

    def close(self, timeout: float = 5.0) -> None:
        """Reap the workers as they leave, for up to ``_SHUTDOWN_GRACE_S``,
        then :meth:`_terminate` whoever is still alive.

        The coordinator's close sends every connected worker ``shutdown``
        first, and such a worker exits on it well within the grace, so a
        run that ends normally signals no one.
        """
        self._reap_for(_SHUTDOWN_GRACE_S)
        self._terminate(timeout)

    def _terminate(self, timeout: float = 5.0) -> None:
        """SIGTERM every worker (each drains its unit), reap them, and
        SIGKILL whoever is still alive after ``timeout`` seconds."""
        # An unreaped child's pid cannot be reused, so these kills reach
        # our workers (or their zombies) and nothing else.
        for pid in self.pids:
            os.kill(pid, signal.SIGTERM)
        self._reap_for(timeout)
        for pid in self.pids:
            logger.warning("worker pid %s ignored SIGTERM; killing", pid)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.pids = []

    def _reap_for(self, seconds: float) -> None:
        """Reap exited workers until none is left or ``seconds`` pass."""
        deadline = time.monotonic() + seconds
        self.reap()
        while self.pids and time.monotonic() < deadline:
            time.sleep(0.005)
            self.reap()
