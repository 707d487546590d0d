"""Coordinator: lease work units to connected workers over TCP.

The coordinator owns the plan. It accepts worker connections on a
listening socket, leases cost-ordered units to workers as they announce
``ready``, tracks liveness through heartbeats, and *re-leases* the units
of dead or stalled workers — a worker that disconnects (or goes silent
past the lease timeout) mid-unit loses its lease back to the front of the
queue, and because every unit is deterministic (hash-derived seeds, see
:mod:`repro.scenarios.sharding`), the re-run on another worker produces a
bit-identical document. Duplicate results from a worker that was declared
dead but later answers anyway are dropped; the first result for a unit
wins.

Two modes share one event loop:

* :meth:`Coordinator.run` — the one-shot mode every executor path uses:
  one local job, results yielded to the caller, teardown at the end.
* :meth:`Coordinator.serve_forever` — the long-lived service behind
  ``repro serve``: a :class:`~repro.distrib.jobs.JobQueue` admits many
  concurrent sweep submissions over the wire, fair-share-interleaves
  their units across one shared worker fleet, pushes results to attached
  clients, and retains finished jobs for later fetches. The loop runs
  until drain mode (``repro cancel --drain``) meets an empty queue.

Hostile-network hardening (armed when a shared ``secret`` is set): the
HMAC challenge/response handshake of :mod:`repro.distrib.auth` gates
every frame — an unauthenticated peer gets exactly one frame's worth of
attention (an ``error`` reply) and is disconnected — and a
:class:`_PeerLedger` (armed via ``ban_after``) quarantines hosts that
accumulate protocol errors or dial in storms. Unauthenticated listeners
keep the legacy v1 behavior bit-for-bit: a bare ``hello`` (no ``proto``)
gets no reply, and a bare ``status`` frame is answered, so existing
workers and pollers on trusted networks are untouched.

The coordinator is transport only: it never executes scenario code and
never touches the cache — :class:`repro.scenarios.Runner` consumes the
``(uid, document, worker)`` stream exactly as it consumes the local
multiprocessing pool's, so caching, merging and progress reporting are
shared with every other executor.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Any, Callable, Iterator

from .auth import new_nonce, verify_mac
from .chaos import ChaosCrash
from .jobs import Job, JobQueue, ServiceError
from .protocol import (
    PROTO_VERSION,
    FrameReader,
    ProtocolError,
    apply_socket_policy,
    send_msg,
)

__all__ = ["Coordinator"]

#: How long a blocking ``sendall`` to one worker may take before the
#: worker is considered wedged and dropped (its lease is then re-queued).
_SEND_TIMEOUT_S = 30.0


class _Conn:
    """One connected peer: socket, frame buffer, lease, liveness, auth.

    Workers identify themselves with ``hello``; a connection that never
    does (a ``repro status`` poller) stays ``is_worker=False`` and is
    excluded from worker counts and liveness reaping. On a secret-armed
    coordinator every connection starts unauthenticated and must pass
    the challenge/response before any frame is honored.
    """

    __slots__ = (
        "sock",
        "reader",
        "name",
        "host",
        "lease_uid",
        "lease_at",
        "last_seen",
        "opened",
        "ready",
        "is_worker",
        "authed",
        "nonce",
        "proto",
        "role",
        "subscribed",
    )

    def __init__(
        self, sock: socket.socket, addr: Any, now: float, *, authed: bool
    ) -> None:
        self.sock = sock
        self.reader = FrameReader()
        # The addr from accept(), never getpeername(): a peer that sent
        # RST right after connecting must cost us one dead conn, not the
        # whole coordinator.
        self.name = f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple) else str(addr)
        self.host = addr[0] if isinstance(addr, tuple) else str(addr)
        self.lease_uid: int | None = None
        self.lease_at: float | None = None
        self.last_seen = now
        self.opened = now
        self.ready = False
        self.is_worker = False
        self.authed = authed
        self.nonce: str | None = None
        self.proto = 1
        self.role = "worker"
        self.subscribed: set[str] = set()


class _PeerLedger:
    """Per-host misbehavior accounting: error bans and dial-rate limits.

    A host that racks up ``ban_after`` protocol errors (garbage frames,
    failed authentications, refused hellos) is banned for ``ban_s``
    seconds — its connections are closed at ``accept`` without reading a
    byte. Independently, more than ``max_dials`` connections inside
    ``dial_window_s`` from one host (a reconnect storm — a worker stuck
    in a crash loop, or something hostile) are shed the same way. Both
    are per-host so one noisy peer cannot make the coordinator deaf to
    the rest of the fleet.
    """

    def __init__(
        self,
        *,
        ban_after: int,
        ban_s: float = 60.0,
        max_dials: int = 30,
        dial_window_s: float = 1.0,
    ) -> None:
        self.ban_after = ban_after
        self.ban_s = ban_s
        self.max_dials = max_dials
        self.dial_window_s = dial_window_s
        self._errors: dict[str, int] = {}
        self._banned_until: dict[str, float] = {}
        self._dials: dict[str, deque[float]] = {}
        #: Connections shed at accept (status surface).
        self.shed = 0

    def admit(self, host: str, now: float) -> bool:
        until = self._banned_until.get(host)
        if until is not None:
            if now < until:
                self.shed += 1
                return False
            del self._banned_until[host]
        dials = self._dials.setdefault(host, deque())
        dials.append(now)
        while dials and now - dials[0] > self.dial_window_s:
            dials.popleft()
        if len(dials) > self.max_dials:
            self.shed += 1
            return False
        return True

    def error(self, host: str, now: float) -> None:
        count = self._errors.get(host, 0) + 1
        if count >= self.ban_after:
            self._banned_until[host] = now + self.ban_s
            self._errors[host] = 0
        else:
            self._errors[host] = count

    def banned_hosts(self, now: float) -> list[str]:
        return sorted(h for h, t in self._banned_until.items() if now < t)


class Coordinator:
    """Fan units out to TCP workers; re-lease on death; stream results.

    Parameters
    ----------
    host, port:
        Listen address. Port ``0`` binds an ephemeral port; the resolved
        address is :attr:`address` (the Runner reports it via
        ``on_listen`` so external workers can be pointed at it).
    lease_timeout:
        Seconds of *silence* (no result, no heartbeat) after which a
        worker holding a lease is declared stalled and its unit
        re-queued. Workers heartbeat every couple of seconds while
        computing, so this bounds failure detection, not unit duration.
    poll_s:
        Event-loop tick; also how often the watchdog callback runs.
    max_releases:
        How many times one unit may lose its worker before the
        coordinator gives up on it and completes it with an error
        document — a unit that reliably *crashes* workers must not chew
        through the entire fleet and then hang the run. The give-up
        document is marked ``"quarantined"`` and names the distinct
        workers the unit took down.
    journal:
        Optional :class:`repro.distrib.journal.RunJournal` for the
        *local* job (:meth:`run`): lease grants are recorded *before*
        the lease frame goes out and completions as results are
        accepted, so a coordinator killed mid-run leaves an accurate
        write-ahead record for ``--resume-journal``.
    crash_after:
        Fault injection (``crash_coordinator=after_k`` chaos): raise
        :class:`~.chaos.ChaosCrash` out of :meth:`run` once this many
        results have been *yielded* — after the caller consumed (and
        cached) them, exactly like a real coordinator death between
        completions.
    on_event:
        Optional ``on_event(kind, uid, worker)`` observer, invoked from
        the event loop when a unit is ``"leased"`` to a worker or
        ``"released"`` back to the queue (the Runner feeds these into the
        sweep trace). Observer exceptions are swallowed: telemetry must
        never take down the lease loop.
    status_extra, status_refresh_s:
        ``repro status`` serves a *cached* snapshot (the MDS2 lesson:
        recomputing per poller turns monitoring into load). The snapshot
        is rebuilt in the run loop at most every ``status_refresh_s``
        seconds — heartbeat cadence, not poll cadence — and a ``status``
        frame is answered straight from the cache without touching lease
        state. ``status_extra`` is caller-owned context (the Runner puts
        run identity and cache-hit counts there) included verbatim.
    secret:
        Shared secret (bytes) arming the v2 challenge/response handshake
        (:mod:`repro.distrib.auth`). ``None`` keeps the open, legacy-
        compatible listener for loopback and trusted networks.
    max_jobs, history:
        Service-mode admission bound on concurrently active jobs, and
        how many finished jobs stay queryable.
    idle_timeout_s, auth_timeout_s:
        Idle reaping: a non-worker connection that is neither mid-
        handshake nor attached to a job is dropped after
        ``idle_timeout_s`` of silence; a connection that has not
        completed authentication within ``auth_timeout_s`` is dropped
        regardless (a byte-less socket must not hold a slot forever).
        Idle *workers* are never reaped — an idle fleet waiting for the
        next job is the normal service steady state.
    ban_after:
        Arm the :class:`_PeerLedger`: ban a host for ``ban_s`` seconds
        after this many protocol errors, and shed reconnect storms.
        ``None`` (the default) disarms it — chaos tests deliberately
        corrupt frames from localhost and must not ban themselves.
    journal_factory:
        Service mode: called with each admitted remote :class:`Job` to
        provide its write-ahead journal (or ``None``); ``repro serve``
        wires this to per-job journal files next to the cell cache.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_timeout: float = 60.0,
        poll_s: float = 0.2,
        max_releases: int = 3,
        journal: Any | None = None,
        crash_after: int | None = None,
        on_event: Callable[[str, int, str], None] | None = None,
        status_extra: dict[str, Any] | None = None,
        status_refresh_s: float = 2.0,
        secret: bytes | None = None,
        max_jobs: int = 8,
        history: int = 50,
        idle_timeout_s: float = 300.0,
        auth_timeout_s: float = 10.0,
        ban_after: int | None = None,
        ban_s: float = 60.0,
        journal_factory: Callable[[Job], Any] | None = None,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.poll_s = poll_s
        self.max_releases = max_releases
        self.journal = journal
        self.crash_after = crash_after
        self.on_event = on_event
        self.status_extra = status_extra
        self.status_refresh_s = status_refresh_s
        self.secret = secret
        self.idle_timeout_s = idle_timeout_s
        self.auth_timeout_s = auth_timeout_s
        self.journal_factory = journal_factory
        self._ledger = (
            _PeerLedger(ban_after=ban_after, ban_s=ban_s)
            if ban_after is not None
            else None
        )
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, None)
        self._conns: dict[socket.socket, _Conn] = {}
        self._queue = JobQueue(max_active=max_jobs, history=history)
        self._in_flight: dict[int, tuple[_Conn, dict[str, Any], Job]] = {}
        self._done: set[int] = set()
        self._completed: list[tuple[int, dict[str, Any], str]] = []
        self._release_counts: dict[int, int] = {}
        self._release_workers: dict[int, set[str]] = {}
        self._closed = False
        self.draining = False
        #: Units re-queued after their worker died or stalled.
        self.releases = 0
        #: Distinct workers that ever said hello.
        self.workers_seen = 0
        #: Workers that departed through an orderly SIGTERM drain (bye).
        self.workers_drained = 0
        #: Units given up on as poison (completed with an error doc).
        self.quarantined = 0
        self._run_started: float | None = None
        self._status: dict[str, Any] | None = None
        self._status_at = 0.0

    # ---------------------------------------------------------- introspection

    @property
    def pending_count(self) -> int:
        return self._queue.pending_total()

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    @property
    def connected_workers(self) -> int:
        return sum(1 for c in self._conns.values() if c.is_worker)

    @property
    def unfinished(self) -> bool:
        """True while any unit is neither completed nor streamed out."""
        return bool(self._queue.pending_total() or self._in_flight)

    def _emit(self, kind: str, uid: int, worker: str) -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(kind, uid, worker)
        except Exception:
            pass  # observers must never take down the lease loop

    def _build_status(self, now: float) -> dict[str, Any]:
        elapsed = now - self._run_started if self._run_started is not None else 0.0
        workers = []
        for conn in self._conns.values():
            if not conn.is_worker:
                continue
            workers.append(
                {
                    "worker": conn.name,
                    "ready": conn.ready,
                    "lease_uid": conn.lease_uid,
                    "lease_age_s": (
                        round(now - conn.lease_at, 3)
                        if conn.lease_at is not None and conn.lease_uid is not None
                        else None
                    ),
                    "silent_s": round(now - conn.last_seen, 3),
                }
            )
        completed = len(self._done)
        status: dict[str, Any] = {
            "state": "running" if self.unfinished else "idle",
            "units_total": self._queue.units_total(),
            "pending": self._queue.pending_total(),
            "in_flight": len(self._in_flight),
            "completed": completed,
            "quarantined": self.quarantined,
            "releases": self.releases,
            "workers_seen": self.workers_seen,
            "workers_drained": self.workers_drained,
            "workers": sorted(workers, key=lambda w: w["worker"]),
            "elapsed_s": round(elapsed, 3),
            "units_per_sec": round(completed / elapsed, 4) if elapsed > 0 else None,
            "jobs": self._queue.summaries(),
            "draining": self.draining,
            "auth": self.secret is not None,
            "proto": PROTO_VERSION,
        }
        if self._ledger is not None:
            status["shed_connections"] = self._ledger.shed
            status["banned_hosts"] = self._ledger.banned_hosts(now)
        if self.status_extra is not None:
            status["extra"] = self.status_extra
        return status

    def _refresh_status(self, now: float, serve_only: bool = False) -> dict[str, Any]:
        """The cached status snapshot, rebuilt at heartbeat cadence.

        ``serve_only`` (the poller path) never rebuilds a live snapshot —
        it only builds when none exists yet, so a poller that beats the
        first refresh tick still gets an answer while one hammering
        ``status`` frames costs a dict lookup per request, not a rebuild.
        """
        if self._status is None or (
            not serve_only and now - self._status_at >= self.status_refresh_s
        ):
            self._status = self._build_status(now)
            self._status_at = now
        return self._status

    # -------------------------------------------------------------- lifecycle

    def drain(self) -> None:
        """Stop admitting jobs; :meth:`serve_forever` exits when idle."""
        self.draining = True
        self._queue.draining = True

    def close(self) -> None:
        """Shut down every worker and release all sockets (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            try:
                send_msg(conn.sock, {"type": "shutdown"})
            except OSError:
                pass
            self._drop(conn, requeue=False)
        self._sel.unregister(self._listener)
        self._listener.close()
        self._sel.close()

    # ------------------------------------------------------------------- run

    def run(
        self,
        units: list[dict[str, Any]],
        watchdog: Callable[["Coordinator"], None] | None = None,
    ) -> Iterator[tuple[int, dict[str, Any], str]]:
        """Drive the event loop until every unit has a result.

        ``units`` are lease descriptors (``uid``/``kind``/``name``/
        ``cell_key``/``params``) in scheduling order — highest cost first,
        exactly as the Runner ordered them. Yields ``(uid, document,
        worker name)`` as results stream back, in completion order.
        ``watchdog`` runs every loop tick (the Runner uses it to respawn
        forked local workers that died while work remains).
        """
        job = self._queue.submit(
            list(units), label="local", source="local", journal=self.journal
        )
        total = job.total
        self._run_started = time.monotonic()
        yielded = 0
        while yielded < total:
            self._tick(watchdog)
            while self._completed:
                yielded += 1
                yield self._completed.pop(0)
            if self.crash_after is not None and yielded >= self.crash_after:
                # After the drain: every result up to the crash point has
                # been yielded to (and cached by) the caller, exactly the
                # state a real coordinator death leaves behind.
                raise ChaosCrash(
                    f"chaos: coordinator crashed after {yielded} completed "
                    f"unit(s) (crash_coordinator=after_{self.crash_after})"
                )
            if job.cancelled and job.finished:
                raise RuntimeError(
                    f"local job {job.jid} was cancelled with "
                    f"{total - yielded} unit(s) outstanding"
                )
        self.close()

    def serve_forever(
        self, watchdog: Callable[["Coordinator"], None] | None = None
    ) -> None:
        """The long-lived service loop behind ``repro serve``.

        Runs until :meth:`drain` (a ``cancel``+``drain`` frame, or the
        serve CLI's SIGTERM handler) *and* the job queue going idle,
        then shuts the worker fleet down cleanly. Results are pushed to
        attached clients as they land; nothing is yielded here.
        """
        self._run_started = time.monotonic()
        try:
            while not (self.draining and self._queue.idle):
                self._tick(watchdog)
        finally:
            self.close()

    # ------------------------------------------------------------- event loop

    def _tick(self, watchdog: Callable[["Coordinator"], None] | None = None) -> None:
        for key, _mask in self._sel.select(self.poll_s):
            if key.data is None:
                self._accept()
            else:
                self._read(key.data)
        self._reap_stalled()
        self._assign()
        self._refresh_status(time.monotonic())
        if watchdog is not None:
            watchdog(self)

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
                sock.settimeout(_SEND_TIMEOUT_S)
                apply_socket_policy(sock)
            except (BlockingIOError, OSError):
                return
            now = time.monotonic()
            host = addr[0] if isinstance(addr, tuple) else str(addr)
            if self._ledger is not None and not self._ledger.admit(host, now):
                # Banned or storming: shed at accept, before reading a
                # byte — the cheapest possible path through a bad peer.
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            conn = _Conn(sock, addr, now, authed=self.secret is None)
            self._conns[sock] = conn
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (OSError, socket.timeout):
            self._drop(conn, requeue=True)
            return
        if not data:
            self._drop(conn, requeue=True)
            return
        conn.last_seen = time.monotonic()
        try:
            for msg in conn.reader.feed(data):
                self._handle(conn, msg)
        except ProtocolError:
            if self._ledger is not None:
                self._ledger.error(conn.host, time.monotonic())
            self._drop(conn, requeue=True)

    # ------------------------------------------------------------ frame logic

    def _refuse(self, conn: _Conn, reason: str) -> None:
        """One ``error`` frame, a ledger mark, and the door."""
        try:
            send_msg(conn.sock, {"type": "error", "error": reason})
        except OSError:
            pass
        if self._ledger is not None:
            self._ledger.error(conn.host, time.monotonic())
        self._drop(conn, requeue=False)

    def _register_peer(self, conn: _Conn, msg: dict[str, Any]) -> None:
        worker = msg.get("worker")
        if isinstance(worker, str) and worker:
            conn.name = worker
        conn.role = msg.get("role") or "worker"
        if conn.role == "worker" and not conn.is_worker:
            # The is_worker gate makes a chaos-replayed hello idempotent.
            conn.is_worker = True
            self.workers_seen += 1

    def _handle_preauth(self, conn: _Conn, msg: dict[str, Any]) -> None:
        """The secret-armed gate: hello -> challenge -> auth -> welcome.

        Any deviation — a non-hello opener (an unauthenticated status
        poll, say), a protocol version that cannot authenticate, a wrong
        or replayed mac — earns exactly one ``error`` frame and a
        disconnect, plus a ledger mark toward the host's ban.
        """
        kind = msg.get("type")
        if kind == "hello":
            proto = msg.get("proto")
            if not isinstance(proto, int) or proto < 2:
                self._refuse(
                    conn,
                    "this coordinator requires authentication; protocol v1 "
                    "peers cannot authenticate — upgrade the worker/client",
                )
                return
            if proto > PROTO_VERSION:
                self._refuse(
                    conn,
                    f"peer speaks protocol v{proto}; this coordinator "
                    f"speaks v{PROTO_VERSION}",
                )
                return
            conn.proto = proto
            conn.role = msg.get("role") or "worker"
            worker = msg.get("worker")
            if isinstance(worker, str) and worker:
                conn.name = worker
            conn.nonce = new_nonce()
            try:
                send_msg(conn.sock, {"type": "challenge", "nonce": conn.nonce})
            except OSError:
                self._drop(conn, requeue=False)
            return
        if kind == "auth":
            if conn.nonce is None:
                self._refuse(conn, "auth before hello/challenge")
                return
            assert self.secret is not None
            if not verify_mac(self.secret, conn.nonce, conn.role, msg.get("mac")):
                # A replayed mac fails here too: it was computed over a
                # *previous* connection's nonce, and this one is fresh.
                self._refuse(conn, "authentication failed (bad secret?)")
                return
            conn.authed = True
            conn.nonce = None
            # Worker bookkeeping only after auth: a failed handshake must
            # not inflate workers_seen.
            if conn.role == "worker" and not conn.is_worker:
                conn.is_worker = True
                self.workers_seen += 1
            try:
                send_msg(conn.sock, {"type": "welcome", "proto": PROTO_VERSION})
            except OSError:
                self._drop(conn, requeue=False)
            return
        self._refuse(conn, "authentication required")

    def _handle(self, conn: _Conn, msg: dict[str, Any]) -> None:
        if not conn.authed:
            self._handle_preauth(conn, msg)
            return
        kind = msg.get("type")
        if kind == "hello":
            proto = msg.get("proto")
            self._register_peer(conn, msg)
            if isinstance(proto, int) and proto >= 2:
                if proto > PROTO_VERSION:
                    self._refuse(
                        conn,
                        f"peer speaks protocol v{proto}; this coordinator "
                        f"speaks v{PROTO_VERSION}",
                    )
                    return
                conn.proto = proto
                try:
                    send_msg(conn.sock, {"type": "welcome", "proto": PROTO_VERSION})
                except OSError:
                    self._drop(conn, requeue=True)
            # v1 hello: no reply — legacy peers never read one.
        elif kind == "status":
            # Served from the cached snapshot — a poller costs the lease
            # loop one frame write, never a status recompute.
            try:
                send_msg(
                    conn.sock,
                    {
                        "type": "status",
                        "status": self._refresh_status(
                            time.monotonic(), serve_only=True
                        ),
                    },
                )
            except OSError:
                self._drop(conn, requeue=True)
        elif kind == "ready":
            conn.ready = True
        elif kind == "result":
            if "job" in msg:
                self._handle_result_request(conn, msg)
            else:
                self._handle_worker_result(conn, msg)
        elif kind == "heartbeat":
            pass  # last_seen already refreshed by _read
        elif kind == "submit":
            self._handle_submit(conn, msg)
        elif kind == "jobs":
            try:
                send_msg(
                    conn.sock,
                    {
                        "type": "jobs",
                        "jobs": self._queue.summaries(),
                        "draining": self.draining,
                    },
                )
            except OSError:
                self._drop(conn, requeue=True)
        elif kind == "cancel":
            self._handle_cancel(conn, msg)
        elif kind == "bye":
            # Orderly drain departure: the worker finished (or never
            # held) its lease and will not reconnect. Requeue=True is a
            # no-op in the normal case and covers the race where a lease
            # frame was in flight toward a worker already deciding to
            # leave.
            if conn.is_worker:
                self.workers_drained += 1
            self._drop(conn, requeue=True)
        # Unknown types are ignored for forward compatibility.

    def _handle_worker_result(self, conn: _Conn, msg: dict[str, Any]) -> None:
        gid = msg.get("uid")
        doc = msg.get("doc")
        if not isinstance(gid, int) or not isinstance(doc, dict):
            return
        if conn.lease_uid == gid:
            conn.lease_uid = None
        if gid in self._done:
            return  # late duplicate from a worker declared dead earlier
        leased = self._in_flight.pop(gid, None)
        if leased is not None and leased[0] is not conn:
            leased[0].lease_uid = None  # first result wins
        self._done.add(gid)
        entry = self._queue.complete(gid, doc, conn.name)
        if entry is None:
            return  # the job is gone (cancelled and already finalized)
        job, uid = entry
        if job.journal is not None and leased is not None:
            job.journal.complete(leased[1].get("jkey"), uid, "error" not in doc)
        self._deliver(job, uid, doc, conn.name)
        self._notify_job(job)

    def _handle_result_request(self, conn: _Conn, msg: dict[str, Any]) -> None:
        """A client fetching (and optionally attaching to) a job's results."""
        jid = str(msg.get("job"))
        job = self._queue.get(jid)
        if job is None:
            self._reply_error(conn, f"unknown job {jid!r}")
            return
        results = [
            [uid, doc, worker]
            for uid, (doc, worker) in sorted(job.completed.items())
        ]
        try:
            send_msg(
                conn.sock,
                {
                    "type": "job-results",
                    "job": job.jid,
                    "state": job.state,
                    "results": results,
                },
            )
        except OSError:
            self._drop(conn, requeue=True)
            return
        if msg.get("attach") and job.state in ("queued", "running"):
            if conn not in job.subscribers:
                job.subscribers.append(conn)
            conn.subscribed.add(job.jid)

    def _handle_submit(self, conn: _Conn, msg: dict[str, Any]) -> None:
        units = msg.get("units")
        if not isinstance(units, list) or not all(
            isinstance(u, dict) for u in units
        ):
            self._refuse(conn, "submit expects a list of unit objects")
            return
        try:
            job = self._queue.submit(
                units,
                label=str(msg.get("label") or ""),
                run_key=msg.get("run_key"),
                token=msg.get("token") or None,
                source="remote",
            )
        except ServiceError as exc:
            # Admission refusal is an answer, not a protocol violation:
            # the connection stays up so the client can poll `jobs`.
            self._reply_error(conn, str(exc))
            return
        if job.journal is None and self.journal_factory is not None:
            try:
                job.journal = self.journal_factory(job)
            except Exception:
                job.journal = None  # journaling must never refuse a job
        try:
            send_msg(
                conn.sock,
                {
                    "type": "job",
                    "job": job.jid,
                    "state": job.state,
                    "units": job.total,
                },
            )
        except OSError:
            self._drop(conn, requeue=True)

    def _handle_cancel(self, conn: _Conn, msg: dict[str, Any]) -> None:
        if msg.get("drain"):
            self.drain()
            try:
                send_msg(
                    conn.sock,
                    {
                        "type": "jobs",
                        "jobs": self._queue.summaries(),
                        "draining": True,
                    },
                )
            except OSError:
                self._drop(conn, requeue=True)
            return
        jid = str(msg.get("job"))
        job = self._queue.cancel(jid)
        if job is None:
            job = self._queue.get(jid)
            if job is None:
                self._reply_error(conn, f"unknown job {jid!r}")
                return
        else:
            self._notify_job(job)
        try:
            send_msg(conn.sock, {"type": "job", **job.summary()})
        except OSError:
            self._drop(conn, requeue=True)

    def _reply_error(self, conn: _Conn, reason: str) -> None:
        """An ``error`` answer that keeps the (authenticated) peer online."""
        try:
            send_msg(conn.sock, {"type": "error", "error": reason})
        except OSError:
            self._drop(conn, requeue=True)

    def _deliver(self, job: Job, uid: int, doc: dict[str, Any], worker: str) -> None:
        if job.source == "local":
            self._completed.append((uid, doc, worker))
            return
        for sub in list(job.subscribers):
            try:
                send_msg(
                    sub.sock,
                    {
                        "type": "unit-result",
                        "job": job.jid,
                        "uid": uid,
                        "doc": doc,
                        "worker": worker,
                    },
                )
            except OSError:
                # The client is gone; the job continues and its results
                # are retained for a re-attach.
                self._drop(sub, requeue=False)

    def _notify_job(self, job: Job) -> None:
        """Tell subscribers when a job reaches a terminal state."""
        if not (job.finished or job.cancelled) or not job.subscribers:
            return
        frame = {"type": "job-state", "job": job.jid, "state": job.state}
        for sub in list(job.subscribers):
            try:
                send_msg(sub.sock, frame)
            except OSError:
                self._drop(sub, requeue=False)
            else:
                sub.subscribed.discard(job.jid)
        job.subscribers.clear()

    # --------------------------------------------------------------- reaping

    def _reap_stalled(self) -> None:
        now = time.monotonic()
        for conn in list(self._conns.values()):
            if (
                conn.lease_uid is not None
                and now - conn.last_seen > self.lease_timeout
            ):
                self._drop(conn, requeue=True)
            elif not conn.authed and now - conn.opened > self.auth_timeout_s:
                # A socket that never finished the handshake must not
                # hold a slot forever (slowloris-shaped peers).
                self._drop(conn, requeue=False)
            elif (
                not conn.is_worker
                and not conn.subscribed
                and now - conn.last_seen > self.idle_timeout_s
            ):
                self._drop(conn, requeue=False)

    def _assign(self) -> None:
        while True:
            conn = next(
                (c for c in self._conns.values() if c.ready and c.lease_uid is None),
                None,
            )
            if conn is None:
                return
            lease = self._queue.next_lease()
            if lease is None:
                return
            gid, job, payload = lease
            if job.journal is not None:
                # Write-ahead: the grant is on disk before the lease is on
                # the wire, so a crash between the two still knows the
                # unit may be running somewhere.
                job.journal.grant(payload.get("jkey"), payload["uid"], conn.name)
            try:
                # The wire uid is the global lease id: two jobs' unit
                # numberings never collide on a shared fleet.
                send_msg(conn.sock, dict(payload, type="lease", uid=gid))
            except OSError:
                self._queue.requeue(gid)
                self._drop(conn, requeue=True)
                continue
            conn.ready = False
            conn.lease_uid = gid
            conn.lease_at = time.monotonic()
            self._in_flight[gid] = (conn, payload, job)
            self._emit("leased", payload["uid"], conn.name)

    def _drop(self, conn: _Conn, requeue: bool) -> None:
        """Disconnect a peer; optionally re-queue its in-flight unit."""
        self._conns.pop(conn.sock, None)
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        for jid in conn.subscribed:
            job = self._queue.get(jid)
            if job is not None and conn in job.subscribers:
                job.subscribers.remove(conn)
        conn.subscribed.clear()
        gid = conn.lease_uid
        conn.lease_uid = None
        if gid is None or not requeue or gid in self._done:
            return
        leased = self._in_flight.get(gid)
        if leased is None or leased[0] is not conn:
            # The unit was already re-leased elsewhere; leave that lease be.
            return
        del self._in_flight[gid]
        _conn, payload, job = leased
        self.releases += 1
        self._emit("released", payload["uid"], conn.name)
        count = self._release_counts.get(gid, 0) + 1
        self._release_counts[gid] = count
        workers = self._release_workers.setdefault(gid, set())
        workers.add(conn.name)
        if count >= self.max_releases:
            # Every worker this unit touched died or stalled: treat the
            # unit as poison and fail *it*, with context, instead of
            # feeding it the rest of the fleet.
            label = (
                f"{payload.get('name')!r}"
                f"{'[' + payload['cell_key'] + ']' if payload.get('cell_key') else ''}"
            )
            doc: dict[str, Any] = {
                "scenario": payload.get("name"),
                "params": payload.get("params"),
                "error": (
                    f"unit {label} "
                    f"lost its worker {count} times (crashed or stalled "
                    f"executions); giving up on it"
                ),
                "quarantined": True,
                "workers": sorted(workers),
            }
            if payload.get("cell_key"):
                doc["cell"] = payload["cell_key"]
            self._done.add(gid)
            self.quarantined += 1
            if job.journal is not None:
                job.journal.quarantine(payload.get("jkey"), label, doc["error"])
            entry = self._queue.complete(gid, doc, conn.name)
            if entry is not None:
                self._deliver(job, entry[1], doc, conn.name)
                self._notify_job(job)
            return
        # Front of its job's queue: it was scheduled early for a reason
        # (cost order), and it has already waited one worker lifetime.
        self._queue.requeue(gid)
