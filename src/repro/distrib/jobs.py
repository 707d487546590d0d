"""Multi-sweep job queue and the client side of the coordinator service.

One-shot runs own their coordinator: the Runner builds one, streams one
sweep through it, and tears it down. A *service* coordinator
(``repro serve``) outlives any single sweep — many clients submit sweeps
concurrently, one shared worker fleet executes all of them, and finished
jobs stay queryable. This module is the bookkeeping for that mode, split
in two:

* :class:`Job` / :class:`JobQueue` — coordinator-side state. The queue
  owns admission control (bounded active jobs, drain mode), fair-share
  scheduling (round-robin across jobs, so one giant sweep cannot starve
  a small one — within a job, units keep their cost order), the
  global-lease-id indirection that keeps per-job unit ids from colliding
  on the wire, and retention of finished jobs for later ``result``
  fetches.
* :class:`ServiceClient` / :func:`fetch_jobs` / :func:`cancel_job` — the
  peer side: authenticated submit, a reconnecting result stream, and the
  one-shot ``jobs``/``cancel`` exchanges behind the matching CLI verbs.

The standing invariant does not bend in service mode: a job's result
documents are produced by the same executor functions as an in-process
run and merged client-side by the same Runner code, so service-mode sweep
rows are bitwise identical to local ones.
"""

from __future__ import annotations

import secrets as _secrets
import socket
import time
from collections import deque
from typing import Any, Callable, Iterator

from .auth import AuthError, client_handshake
from .chaos import backoff_delays
from .protocol import (
    ProtocolError,
    ProtocolTimeout,
    apply_socket_policy,
    parse_address,
    recv_msg,
    send_msg,
)

__all__ = [
    "ServiceError",
    "JobCancelled",
    "Job",
    "JobQueue",
    "ServiceClient",
    "fetch_jobs",
    "cancel_job",
]


class ServiceError(RuntimeError):
    """The coordinator refused a request (admission, unknown job, ...)."""


class JobCancelled(RuntimeError):
    """The job whose results were being streamed was cancelled."""


class Job:
    """One submitted sweep: its units, their progress, and its identity.

    ``uid`` values are client-scoped (the submitting Runner numbers its
    units 0..n-1); on the wire every lease carries a *global* id instead
    (see :class:`JobQueue`), and results are mapped back before they
    reach the client — two concurrent jobs therefore never see each
    other's unit ids, and neither needs to know the other exists.
    """

    __slots__ = (
        "jid",
        "label",
        "run_key",
        "token",
        "source",
        "submitted_at",
        "finished_at",
        "total",
        "pending",
        "inflight",
        "completed",
        "cancelled",
        "journal",
        "subscribers",
    )

    def __init__(
        self,
        jid: str,
        payloads: list[dict[str, Any]],
        *,
        label: str = "",
        run_key: str | None = None,
        token: str | None = None,
        source: str = "remote",
        journal: Any | None = None,
    ) -> None:
        self.jid = jid
        self.label = label
        self.run_key = run_key
        self.token = token
        self.source = source
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        self.total = len(payloads)
        #: Global lease ids awaiting a worker, in submission (cost) order.
        self.pending: deque[int] = deque()
        self.inflight = 0
        #: Client uid -> (document, worker name); the retained results.
        self.completed: dict[int, tuple[dict[str, Any], str]] = {}
        self.cancelled = False
        self.journal = journal
        #: Coordinator-managed: connections streaming this job's results.
        self.subscribers: list[Any] = []

    @property
    def finished(self) -> bool:
        if self.inflight:
            return False
        if self.cancelled:
            return not self.pending
        return not self.pending and len(self.completed) >= self.total

    @property
    def state(self) -> str:
        if self.cancelled:
            return "cancelled"
        if self.finished:
            return "done"
        if self.completed or self.inflight:
            return "running"
        return "queued"

    def summary(self, now: float | None = None) -> dict[str, Any]:
        """The ``jobs`` frame / status-snapshot row for this job."""
        now = time.time() if now is None else now
        end = self.finished_at if self.finished_at is not None else now
        return {
            "job": self.jid,
            "label": self.label,
            "state": self.state,
            "source": self.source,
            "units": self.total,
            "completed": len(self.completed),
            "pending": len(self.pending),
            "in_flight": self.inflight,
            "age_s": round(now - self.submitted_at, 3),
            "elapsed_s": round(end - self.submitted_at, 3),
            "run_key": self.run_key,
        }


class JobQueue:
    """Admission, fair-share scheduling and retention for many jobs.

    The queue deals in *global* lease ids (gids): each submitted unit is
    assigned one monotonically increasing gid, and the coordinator's
    lease/result/requeue machinery is keyed on gids alone. Fair share is
    round-robin across jobs that still have pending units — each
    ``next_lease`` call advances a cursor, so a fleet shared by a
    600-unit paper sweep and a 6-unit smoke test alternates between them
    instead of draining the big one first. Within one job, units stay in
    the order the client submitted them (its cost order).
    """

    def __init__(self, *, max_active: int = 8, history: int = 50) -> None:
        self.max_active = max_active
        self.draining = False
        self._jobs: dict[str, Job] = {}
        self._history: deque[Job] = deque(maxlen=max(history, 1))
        self._rotation: list[str] = []
        self._cursor = 0
        self._seq = 0
        self._next_gid = 0
        self._by_gid: dict[int, tuple[Job, int]] = {}
        self._payloads: dict[int, dict[str, Any]] = {}
        self._by_token: dict[str, Job] = {}

    # ---------------------------------------------------------------- intake

    def submit(
        self,
        payloads: list[dict[str, Any]],
        *,
        label: str = "",
        run_key: str | None = None,
        token: str | None = None,
        source: str = "remote",
        journal: Any | None = None,
    ) -> Job:
        """Admit one sweep; raises :class:`ServiceError` when refused.

        A repeated ``token`` returns the job already admitted under it —
        a client whose submit frame was replayed (or who resent after a
        torn reply) gets the same job back instead of a duplicate sweep.
        """
        if token:
            existing = self._by_token.get(token)
            if existing is not None:
                return existing
        if self.draining:
            raise ServiceError("coordinator is draining; not accepting new jobs")
        if len(self._jobs) >= self.max_active:
            raise ServiceError(
                f"job queue full ({len(self._jobs)} active, max {self.max_active})"
            )
        if not payloads:
            raise ServiceError("cannot submit a job with zero units")
        uids = [p.get("uid") for p in payloads]
        if any(not isinstance(u, int) for u in uids) or len(set(uids)) != len(uids):
            raise ServiceError("every unit needs a distinct integer uid")
        self._seq += 1
        jid = f"job-{self._seq:04d}"
        job = Job(
            jid,
            payloads,
            label=label,
            run_key=run_key,
            token=token,
            source=source,
            journal=journal,
        )
        for payload in payloads:
            gid = self._next_gid
            self._next_gid += 1
            self._by_gid[gid] = (job, payload["uid"])
            self._payloads[gid] = payload
            job.pending.append(gid)
        self._jobs[jid] = job
        self._rotation.append(jid)
        if token:
            self._by_token[token] = job
        return job

    # ------------------------------------------------------------ scheduling

    def next_lease(self) -> tuple[int, Job, dict[str, Any]] | None:
        """The next unit to lease, fair-share across jobs; ``None`` if idle."""
        n = len(self._rotation)
        for i in range(n):
            jid = self._rotation[(self._cursor + i) % n]
            job = self._jobs.get(jid)
            if job is None or not job.pending or job.cancelled:
                continue
            self._cursor = (self._cursor + i + 1) % n
            gid = job.pending.popleft()
            job.inflight += 1
            return gid, job, self._payloads[gid]
        return None

    def lookup(self, gid: int) -> tuple[Job, int] | None:
        return self._by_gid.get(gid)

    def requeue(self, gid: int) -> None:
        """A leased unit lost its worker: back to the front of its job."""
        entry = self._by_gid.get(gid)
        if entry is None:
            return
        job, _uid = entry
        job.inflight = max(job.inflight - 1, 0)
        if not job.cancelled:
            # Front of the queue: it was scheduled early for a reason
            # (cost order) and has already waited one worker lifetime.
            job.pending.appendleft(gid)
        self._maybe_finish(job)

    def complete(
        self, gid: int, doc: dict[str, Any], worker: str
    ) -> tuple[Job, int] | None:
        """Record one result; returns ``(job, client uid)`` or ``None``.

        Tolerates the re-lease race: a result for a gid that is back in
        its job's pending deque (its first worker was declared dead,
        then answered anyway) is accepted and the pending copy removed,
        so the unit is not executed twice.
        """
        entry = self._by_gid.get(gid)
        if entry is None:
            return None
        job, uid = entry
        try:
            job.pending.remove(gid)
        except ValueError:
            job.inflight = max(job.inflight - 1, 0)
        job.completed[uid] = (doc, worker)
        self._maybe_finish(job)
        return job, uid

    # ------------------------------------------------------------- lifecycle

    def cancel(self, jid: str) -> Job | None:
        """Cancel an active job: pending units are dropped, in-flight
        leases run to completion (their results are retained — discarding
        a computed document buys nothing), the job lands in history as
        ``cancelled``."""
        job = self._jobs.get(jid)
        if job is None:
            return None
        job.cancelled = True
        for gid in job.pending:
            self._forget_gid(gid)
        job.pending.clear()
        self._maybe_finish(job)
        return job

    def _maybe_finish(self, job: Job) -> None:
        if job.jid not in self._jobs or not job.finished:
            return
        job.finished_at = time.time()
        del self._jobs[job.jid]
        self._rotation.remove(job.jid)
        # Results stay on the job (history serves them); only the wire-id
        # maps are dropped, so a late duplicate result is simply unknown.
        for gid, entry in list(self._by_gid.items()):
            if entry[0] is job:
                self._forget_gid(gid)
        if job.journal is not None:
            try:
                job.journal.end()
            except Exception:
                pass
        self._history.append(job)

    def _forget_gid(self, gid: int) -> None:
        self._by_gid.pop(gid, None)
        self._payloads.pop(gid, None)

    # ---------------------------------------------------------- introspection

    def get(self, jid: str) -> Job | None:
        """Active or retained job by id (history serves ``result`` frames)."""
        job = self._jobs.get(jid)
        if job is not None:
            return job
        for past in self._history:
            if past.jid == jid:
                return past
        return None

    @property
    def active(self) -> list[Job]:
        return list(self._jobs.values())

    @property
    def idle(self) -> bool:
        return not self._jobs

    def pending_total(self) -> int:
        return sum(len(j.pending) for j in self._jobs.values())

    def units_total(self) -> int:
        return sum(j.total for j in self._jobs.values()) + sum(
            j.total for j in self._history
        )

    def summaries(self, now: float | None = None) -> list[dict[str, Any]]:
        """Active jobs first (submission order), then retained history."""
        now = time.time() if now is None else now
        rows = [self._jobs[jid].summary(now) for jid in self._rotation
                if jid in self._jobs]
        rows.extend(job.summary(now) for job in reversed(self._history))
        return rows


# --------------------------------------------------------------- client side


def _dial(
    address: tuple[str, int],
    *,
    secret: bytes | None,
    timeout: float,
) -> socket.socket:
    """Connect + v2 handshake as a ``client`` peer; bounded by ``timeout``."""
    sock = socket.create_connection(address, timeout=timeout)
    try:
        apply_socket_policy(sock)
        client_handshake(sock, role="client", secret=secret)
    except socket.timeout:
        sock.close()
        raise ProtocolTimeout(
            f"coordinator at {address[0]}:{address[1]} accepted the "
            f"connection but did not complete the handshake within "
            f"{timeout:g}s"
        ) from None
    except BaseException:
        sock.close()
        raise
    return sock


def _request(
    address: str | tuple[str, int],
    msg: dict[str, Any],
    *,
    secret: bytes | None = None,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """One authenticated request/reply exchange; raises on refusal."""
    addr = parse_address(address)
    sock = _dial(addr, secret=secret, timeout=timeout)
    try:
        send_msg(sock, msg)
        try:
            reply = recv_msg(sock)
        except socket.timeout:
            raise ProtocolTimeout(
                f"coordinator at {addr[0]}:{addr[1]} did not answer a "
                f"{msg.get('type')!r} request within {timeout:g}s"
            ) from None
    finally:
        sock.close()
    if reply is None:
        raise ProtocolError("coordinator closed the connection mid-exchange")
    if reply.get("type") == "error":
        raise ServiceError(str(reply.get("error", "request refused")))
    return reply


class ServiceClient:
    """Submit sweeps to a ``repro serve`` coordinator and stream results.

    One instance serves one job lifecycle: :meth:`submit` admits the
    sweep (idempotently — the submit token makes a replayed or resent
    frame return the same job), then :meth:`stream_results` yields
    ``(uid, document, worker)`` exactly once per unit, *reconnecting*
    through coordinator restarts of the connection: results already
    accepted by the coordinator are retained per job, so a re-attach
    replays the snapshot and a seen-set deduplicates it.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        secret: bytes | None = None,
        timeout: float = 10.0,
        stream_timeout: float = 120.0,
    ) -> None:
        self.address = parse_address(address)
        self.secret = secret
        self.timeout = timeout
        #: recv bound while streaming: long enough for any real unit gap
        #: (the coordinator pushes results as they land), short enough
        #: that a wedged coordinator triggers a re-attach, which is
        #: idempotent, instead of a forever-hang.
        self.stream_timeout = stream_timeout
        self.job: str | None = None
        self._token = _secrets.token_hex(8)

    def submit(
        self,
        payloads: list[dict[str, Any]],
        *,
        label: str = "",
        run_key: str | None = None,
    ) -> str:
        """Admit the sweep; returns the job id (raises ``ServiceError``
        on admission refusal, ``AuthError`` on a bad/missing secret)."""
        reply = _request(
            self.address,
            {
                "type": "submit",
                "units": payloads,
                "label": label,
                "run_key": run_key,
                "token": self._token,
            },
            secret=self.secret,
            timeout=self.timeout,
        )
        jid = reply.get("job")
        if not isinstance(jid, str):
            raise ProtocolError(f"malformed submit reply: {reply!r}")
        self.job = jid
        return jid

    def stream_results(
        self, job: str | None = None
    ) -> Iterator[tuple[int, dict[str, Any], str]]:
        """Yield ``(uid, doc, worker)`` once per unit until the job ends.

        Raises :class:`JobCancelled` if the job is cancelled server-side,
        :class:`ServiceError`/``AuthError`` on refusals, and ``OSError``
        only after the reconnect budget is exhausted — a single torn
        connection or coordinator stall re-attaches transparently.
        """
        jid = job or self.job
        if jid is None:
            raise ValueError("no job submitted or named")
        seen: set[int] = set()
        while True:
            try:
                sock = _dial(self.address, secret=self.secret, timeout=self.timeout)
            except OSError as exc:
                if not self._retry_wait():
                    raise OSError(
                        f"lost the coordinator at {self.address[0]}:"
                        f"{self.address[1]} and could not re-attach: {exc}"
                    ) from exc
                continue
            try:
                sock.settimeout(self.stream_timeout)
                send_msg(sock, {"type": "result", "job": jid, "attach": True})
                for item in self._read_stream(sock, jid, seen):
                    if item is None:
                        return
                    yield item
            except AuthError:
                raise
            except (JobCancelled, ServiceError):
                raise
            except (OSError, ProtocolError):
                if not self._retry_wait():
                    raise
            finally:
                try:
                    sock.close()
                except OSError:
                    pass

    def _read_stream(
        self, sock: socket.socket, jid: str, seen: set[int]
    ) -> Iterator[tuple[int, dict[str, Any], str] | None]:
        """Decode one attached connection's frames; ``None`` = job over."""
        while True:
            msg = recv_msg(sock)
            if msg is None:
                raise OSError("coordinator closed the result stream")
            kind = msg.get("type")
            if kind == "error":
                raise ServiceError(str(msg.get("error", "stream refused")))
            if kind == "job-results":
                for uid, doc, worker in msg.get("results", ()):
                    if uid not in seen:
                        seen.add(uid)
                        yield uid, doc, worker
                if msg.get("state") == "done":
                    yield None
                    return
                if msg.get("state") == "cancelled":
                    raise JobCancelled(f"job {jid} was cancelled")
            elif kind == "unit-result":
                uid, doc, worker = msg.get("uid"), msg.get("doc"), msg.get("worker")
                if isinstance(uid, int) and uid not in seen:
                    seen.add(uid)
                    yield uid, doc, str(worker)
            elif kind == "job-state":
                state = msg.get("state")
                if state == "done":
                    yield None
                    return
                if state == "cancelled":
                    raise JobCancelled(f"job {jid} was cancelled")
            # anything else (a replayed welcome, say) is ignored

    def _retry_wait(self) -> bool:
        """One backoff step of the re-attach budget; False when spent."""
        delays = getattr(self, "_delays", None)
        if delays is None:
            delays = self._delays = backoff_delays(total=30.0)
        for delay in delays:
            time.sleep(delay)
            return True
        return False


def fetch_jobs(
    address: str | tuple[str, int],
    *,
    secret: bytes | None = None,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """The coordinator's job table: ``{"jobs": [...], "draining": bool}``."""
    reply = _request(address, {"type": "jobs"}, secret=secret, timeout=timeout)
    if reply.get("type") != "jobs" or not isinstance(reply.get("jobs"), list):
        raise ProtocolError(f"unexpected jobs reply: {reply!r}")
    return {"jobs": reply["jobs"], "draining": bool(reply.get("draining"))}


def cancel_job(
    address: str | tuple[str, int],
    job: str | None = None,
    *,
    drain: bool = False,
    secret: bytes | None = None,
    timeout: float = 10.0,
) -> dict[str, Any]:
    """Cancel one job, or put the whole coordinator into drain mode.

    Drain: no new submissions are admitted, running jobs finish, and the
    serve loop exits (shutting workers down cleanly) once the last one
    does. Returns the coordinator's reply frame.
    """
    if not drain and job is None:
        raise ValueError("name a job id or pass drain=True")
    msg: dict[str, Any] = {"type": "cancel"}
    if drain:
        msg["drain"] = True
    else:
        msg["job"] = job
    return _request(address, msg, secret=secret, timeout=timeout)
