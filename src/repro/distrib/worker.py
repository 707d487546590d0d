"""Worker: a thin lease-execute-report loop over one coordinator socket.

:func:`serve` connects to a coordinator, announces itself, and then
loops: request a unit, run it through the *same* executor functions the
in-process and pool paths use (:func:`repro.scenarios.runner._execute` /
``_execute_cell``), and stream the resulting document back. A daemon
thread heartbeats every couple of seconds so the coordinator can tell a
long cell from a dead worker. A remote worker starts as ``python -m
repro.distrib.worker HOST:PORT`` (or ``repro worker HOST:PORT``); its
scenario import is deferred to the first lease, so it is on the wire
within milliseconds of starting, and it imports only the leased
scenario's experiment module (a fig07 worker never loads the other
experiments, or numpy). A local worker is forked by
:mod:`repro.distrib.fleet` and enters :func:`serve` with everything a
lease needs already imported.

Connection lifecycle: dialing retries with jittered exponential backoff
(:func:`repro.distrib.chaos.backoff_delays`) until ``connect_timeout``
elapses — starting the worker terminal before the coordinator terminal
works — and each session opens with the protocol v2 handshake
(:func:`repro.distrib.auth.client_handshake`): hello, answer a challenge
when the coordinator holds a shared secret (``REPRO_SECRET`` /
``--secret-file``), proceed on welcome. A *lost* connection (EOF without
``shutdown``, a torn or undecodable frame, a send error) sends the
worker back to dialing rather than killing it: the coordinator re-leases
whatever the worker held, the worker reconnects and authenticates again
(fresh nonce), and the sweep continues. An authentication *refusal* is
final — the secret will be just as wrong on the next dial, so the worker
exits :data:`AUTH_EXIT` instead of mounting a reconnect storm.

Graceful drain: SIGTERM sets a drain flag. The worker finishes the unit
it holds (and reports its result), then sends ``bye`` instead of
``ready`` and exits 0 — so a fleet can be rolled (`kill`, instance
retirement, deploys) without re-leasing churn or lost work. The main
loop polls the socket with a short ``select`` timeout between frames, so
an *idle* drained worker departs within half a second too, and one still
dialing (its coordinator gone) stops dialing and exits 0 at once.

Fault injection comes from the seeded chaos harness (``REPRO_CHAOS``,
:mod:`repro.distrib.chaos`), consulted as each lease arrives:
``kill_worker`` makes the worker die abruptly — holding its lease,
without a word to the coordinator — and exit with status
:data:`KILLED_EXIT`, either with probability ``p`` or deterministically
on lease ``k+1`` (``kill_worker=after_k``); ``stall_heartbeat`` silences
the heartbeat thread while the unit computes (so the coordinator must
reap the stall and drop the late result as a duplicate); ``drop_auth``
tears the handshake mid-flight; and the frame seam in
``protocol.send_msg`` injects drops/corruption/replays/latency on
everything this worker sends.
"""

from __future__ import annotations

import argparse
import logging
import os
import select
import signal
import socket
import sys
import threading
from typing import Any

from .auth import AuthError, client_handshake, load_secret
from .chaos import backoff_delays, injector
from .protocol import (
    ProtocolError,
    apply_socket_policy,
    parse_address,
    recv_msg,
    send_msg,
)

__all__ = ["serve", "main", "KILLED_EXIT", "AUTH_EXIT", "HEARTBEAT_S"]

logger = logging.getLogger(__name__)

#: Seconds between heartbeats while the main loop is busy in a unit.
HEARTBEAT_S = 2.0

#: Exit status of a worker that died via the ``kill_worker`` chaos fault.
KILLED_EXIT = 17

#: Exit status when the coordinator refused this worker's credentials.
AUTH_EXIT = 4

#: Bound on the handshake conversation: a coordinator that accepts the
#: connection but never answers the hello must not wedge the worker.
_HANDSHAKE_TIMEOUT_S = 10.0

#: Main-loop poll interval: how often the drain flag is checked while
#: waiting for the next frame.
_POLL_S = 0.5


def _connect(
    address: tuple[str, int],
    timeout: float,
    drain: threading.Event | None = None,
) -> socket.socket | None:
    """Dial the coordinator, retrying with jittered backoff until ``timeout``.

    The backoff schedule starts at tens of milliseconds (a coordinator
    restarting right now) and doubles to a 2s cap (one that needs a
    moment), with jitter so a reconnecting fleet does not dogpile the
    listen socket in lockstep. The delays generator's budget *is* the
    time bound; exhausting it raises ``OSError`` naming the address.
    Returns ``None`` once ``drain`` is set: a worker told to leave while
    it dials holds no lease, so it stops at once.
    """
    host, port = address
    last: OSError | None = None
    stop = drain if drain is not None else threading.Event()
    for delay in backoff_delays(total=timeout):
        if stop.is_set():
            return None
        try:
            sock = socket.create_connection(address, timeout=5.0)
            apply_socket_policy(sock)
            # create_connection's timeout would otherwise persist as a 5s
            # *recv* timeout — and an idle worker (queue drained, another
            # worker holding the long tail unit) must block on the next
            # lease indefinitely, not die of boredom. Liveness flows the
            # other way, via the heartbeat thread.
            sock.settimeout(None)
            return sock
        except OSError as exc:
            last = exc
            stop.wait(delay)
    raise OSError(
        f"could not reach coordinator at {host}:{port} within "
        f"{timeout:.0f}s (last error: {last})"
    )


def _execute_lease(msg: dict[str, Any]) -> dict[str, Any]:
    """Run one leased unit; always returns a result document.

    The executor functions trap scenario exceptions themselves, but a
    lease can also fail *before* execution — undecodable params, or a
    scenario the worker's checkout doesn't know (version skew across a
    fleet). Those must come back as error documents too: a crash here
    would kill the worker, the coordinator would re-lease the poison unit
    to the next worker, and the whole fleet would fall over serially.
    """
    try:
        # Deferred import: the simulator and the leased scenario's
        # experiment module load only once real work arrives.
        from ..scenarios.encode import from_portable
        from ..scenarios.runner import _execute, _execute_cell

        params = from_portable(msg["params"])
        if msg["kind"] == "cell":
            doc, _value = _execute_cell(msg["name"], msg["cell_key"], params)
        else:
            doc, _value = _execute(msg["name"], params)
        return doc
    except Exception:
        import traceback

        # KeyboardInterrupt/SystemExit propagate (BaseException) and end
        # the worker; lease failures are reported to the coordinator AND
        # logged here with the unit label — the worker-side log is the
        # only record if the coordinator abandons the unit.
        logger.warning(
            "lease %r (cell=%r) failed before/at execution",
            msg.get("name"),
            msg.get("cell_key"),
            exc_info=True,
        )
        doc = {
            "scenario": msg.get("name"),
            "params": msg.get("params"),
            "error": traceback.format_exc(),
        }
        if msg.get("cell_key"):
            doc["cell"] = msg["cell_key"]
        return doc


def _session(
    sock: socket.socket,
    name: str,
    *,
    completed: int,
    heartbeat_s: float,
    secret: bytes | None = None,
    drain: threading.Event | None = None,
) -> tuple[str, int]:
    """One connected stint: handshake, then lease/result until the link ends.

    Returns ``("shutdown", completed)`` on an orderly coordinator-driven
    end, ``("drain", completed)`` when SIGTERM drained this worker (bye
    sent, lease finished), and ``("lost", completed)`` when the
    connection tore (EOF without shutdown, protocol violation, send
    failure) — the caller reconnects. :class:`AuthError` propagates: a
    refused credential is fatal, not retriable.
    """
    lock = threading.Lock()
    stop = threading.Event()
    stalled = threading.Event()
    if drain is None:
        drain = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            if stalled.is_set():
                continue  # chaos: the worker computes on, silently
            try:
                send_msg(sock, {"type": "heartbeat"}, lock)
            except OSError:
                return

    try:
        # Bounded handshake: a coordinator that accepts the connection
        # but never converses must not hang the worker. The v1-compat
        # case (legacy coordinator, no secret) cannot happen here —
        # every coordinator in this tree answers a v2 hello.
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        client_handshake(sock, role="worker", worker=name, secret=secret, lock=lock)
        sock.settimeout(None)
    except socket.timeout:
        sock.close()
        return "lost", completed
    except (OSError, ProtocolError):
        sock.close()
        return "lost", completed
    except AuthError:
        sock.close()
        raise

    threading.Thread(target=_beat, name="heartbeat", daemon=True).start()
    try:
        send_msg(sock, {"type": "ready"}, lock)
        while True:
            if drain.is_set():
                # Idle (or just finished a unit): deregister cleanly so
                # the coordinator neither waits out a lease timeout nor
                # counts us as lost.
                send_msg(sock, {"type": "bye"}, lock)
                return "drain", completed
            readable, _, _ = select.select([sock], [], [], _POLL_S)
            if not readable:
                continue
            try:
                msg = recv_msg(sock)
            except ProtocolError:
                return "lost", completed  # torn/corrupt frame: reconnect
            if msg is None:
                return "lost", completed  # EOF without shutdown
            if msg.get("type") == "shutdown":
                return "shutdown", completed
            if msg.get("type") != "lease":
                continue  # replayed welcome/challenge etc.: idempotent skip
            inj = injector()
            if inj is not None:
                # Die holding the lease, mid-sweep, the way a powered-off
                # machine would. after_k draws nothing from the stream.
                after = inj.config.kill_worker_after
                if after is not None and completed >= after:
                    os._exit(KILLED_EXIT)
                # One draw each, kill before stall, so the decision
                # sequence per lease is fixed regardless of which fires.
                kill = inj.decide("kill_worker")
                if inj.decide("stall_heartbeat"):
                    stalled.set()
                if kill:
                    os._exit(KILLED_EXIT)
            doc = _execute_lease(msg)
            send_msg(sock, {"type": "result", "uid": msg["uid"], "doc": doc}, lock)
            completed += 1
            stalled.clear()
            if not drain.is_set():
                send_msg(sock, {"type": "ready"}, lock)
            # A set drain flag falls through to the bye at the loop top:
            # the held lease was finished and reported first.
    except OSError:
        return "lost", completed
    finally:
        stop.set()
        sock.close()


def serve(
    address: str | tuple[str, int],
    *,
    connect_timeout: float = 30.0,
    heartbeat_s: float = HEARTBEAT_S,
    secret: bytes | None = None,
    log=print,
) -> int:
    """Attach to a coordinator and work until it says shutdown.

    Installs a SIGTERM drain handler when running on the main thread:
    the current unit finishes and is reported, then the worker says
    ``bye`` and exits 0. Returns :data:`AUTH_EXIT` when the coordinator
    refuses this worker's credentials.
    """
    host, port = parse_address(address)
    name = f"{socket.gethostname()}-{os.getpid()}"
    completed = 0
    drain = threading.Event()
    # The previous SIGTERM disposition must come back on exit: a process
    # that embeds serve() (tests, the CLI after a dial failure) would
    # otherwise keep the drain hook forever, and forked children — e.g.
    # multiprocessing pool workers — inherit it and shrug off
    # Pool.terminate()'s SIGTERM, hanging the join.
    prev_handler = None
    handler_installed = False
    try:
        prev_handler = signal.signal(
            signal.SIGTERM, lambda _sig, _frm: drain.set()
        )
        handler_installed = True
    except ValueError:
        pass  # not the main thread (tests embed serve()); no drain signal
    try:
        # The *initial* dial failing propagates (the CLI turns it into
        # "worker error: ..."); only an established link's loss is retried.
        sock = _connect((host, port), connect_timeout, drain)
        while sock is not None:
            log(
                f"[worker {name}] connected to {host}:{port}",
                file=sys.stderr,
                flush=True,
            )
            try:
                outcome, completed = _session(
                    sock,
                    name,
                    completed=completed,
                    heartbeat_s=heartbeat_s,
                    secret=secret,
                    drain=drain,
                )
            except AuthError as exc:
                log(f"[worker {name}] {exc}; exiting", file=sys.stderr, flush=True)
                return AUTH_EXIT
            if outcome == "shutdown":
                break
            if outcome == "drain":
                log(
                    f"[worker {name}] drained after SIGTERM "
                    f"({completed} unit(s))",
                    file=sys.stderr,
                    flush=True,
                )
                return 0
            if drain.is_set():
                # The link tore while we were already draining: nothing
                # left to hand back, so depart instead of reconnecting.
                break
            try:
                sock = _connect((host, port), connect_timeout, drain)
            except OSError as exc:
                # A coordinator that finished (or died for good) while our
                # link was torn looks exactly like this; exiting cleanly
                # matches the pre-reconnect behavior for that common case,
                # and the log line carries the address for the genuine one.
                log(f"[worker {name}] {exc}; exiting", file=sys.stderr, flush=True)
                break
        log(f"[worker {name}] done ({completed} unit(s))", file=sys.stderr, flush=True)
        return 0
    finally:
        if handler_installed:
            signal.signal(signal.SIGTERM, prev_handler)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker", description="Opera-repro distributed worker"
    )
    parser.add_argument("address", metavar="HOST:PORT", help="coordinator address")
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection (default 30)",
    )
    parser.add_argument(
        "--secret-file",
        default=None,
        help="file holding the shared secret (default: REPRO_SECRET env)",
    )
    args = parser.parse_args(argv)
    return serve(
        args.address,
        connect_timeout=args.connect_timeout,
        secret=load_secret(args.secret_file),
    )


if __name__ == "__main__":
    raise SystemExit(main())
