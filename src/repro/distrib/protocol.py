"""Length-prefixed JSON framing for the coordinator/worker wire protocol.

Every message is one frame: a 4-byte big-endian length header followed by
that many bytes of ASCII-safe JSON (``ensure_ascii`` keeps lone
surrogates and other non-UTF-8-safe text representable as ``\\uXXXX``
escapes, so any string a scenario produces survives the wire). The
*values* inside messages reuse :mod:`repro.scenarios.encode`: lease
parameters travel as the portable encoding (tuples stay tuples on the
worker) and cell results carry the same portable documents the cell cache
stores — the wire format and the cache format are one vocabulary.

Protocol versioning: peers open with ``hello`` carrying ``proto``
(:data:`PROTO_VERSION`). Version 1 is the original unversioned protocol
(a ``hello`` without ``proto``); version 2 adds the handshake reply
(``welcome`` / ``challenge``, see :mod:`repro.distrib.auth`), the job
frames (``submit``/``jobs``/``cancel``/``result`` requests, see
:mod:`repro.distrib.jobs`) and worker drain (``bye``). A coordinator
answers a v2 ``hello``; it stays silent after a v1 ``hello`` so legacy
peers (which never read a handshake reply) keep working on trusted
networks — but a coordinator *with a shared secret armed* refuses v1
peers outright, because v1 cannot authenticate.

Socket policy: every protocol socket — the worker's dial, the client
dial behind ``repro submit``/``jobs``/``cancel``, the status poll, and
each connection the coordinator accepts — passes through
:func:`apply_socket_policy`, which disables Nagle's algorithm
(``TCP_NODELAY``). The lease loop needs it: a worker reports a unit as
two small writes, ``result`` then ``ready``, and then blocks reading its
next ``lease``. With Nagle on, ``ready`` is held back until the peer
ACKs ``result``, and the peer's kernel delays that ACK (40 ms on Linux),
so every unit paid one delayed-ACK timeout between its result and the
next lease. On the 120-cell ci-scale fig07 sweep over two local workers
on a 2-vCPU host that cost a third of the sweep: 8.21 s median with
Nagle on, 5.63 s with it off, and each worker's busy share (run time
over first lease to last result) rose from 59–61 % to 91 %. Frames are
whole application messages already, so there is nothing for Nagle to
coalesce.

Core message types (``{"type": ...}``):

``hello``      peer -> coordinator, once: ``proto``, ``role``
               (``worker`` | ``client``), ``worker`` name, ``pid``.
``welcome``    coordinator -> peer (proto >= 2): handshake complete.
``challenge``  coordinator -> peer: authenticate (``nonce``); answered
               with ``auth`` (``mac``). See :mod:`repro.distrib.auth`.
``error``      coordinator -> peer: refusal (version mismatch, bad
               secret, admission control); the connection closes after.
``ready``      worker -> coordinator: give me a unit.
``lease``      coordinator -> worker: ``uid``, ``kind``, ``name``,
               ``cell_key``, ``params`` (portable-encoded).
``result``     worker -> coordinator: ``uid``, ``doc`` (the exact document
               the in-process executor would produce). A *client* sending
               ``result`` with a ``job`` field instead requests that
               job's retained results (service mode).
``heartbeat``  worker -> coordinator, periodic liveness while computing.
``bye``        worker -> coordinator: orderly drain departure (SIGTERM);
               the worker holds no lease and will not request more work.
``shutdown``   coordinator -> worker: no more work, exit.
``status``     poller -> coordinator: request the cached status snapshot;
               answered with ``{"type": "status", "status": {...}}`` from
               the coordinator's heartbeat-cadence cache (see
               :meth:`~repro.distrib.coordinator.Coordinator._refresh_status`).
               :func:`fetch_status` is the client side.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
from typing import Any, Iterator

from . import chaos

__all__ = [
    "ProtocolError",
    "ProtocolTimeout",
    "PROTO_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_FRAME",
    "encode_frame",
    "send_msg",
    "recv_msg",
    "FrameReader",
    "parse_address",
    "apply_socket_policy",
    "fetch_status",
]


class ProtocolError(RuntimeError):
    """Malformed frame, oversized frame, or non-object message."""


class ProtocolTimeout(OSError):
    """A peer stopped mid-conversation (half-open socket, wedged remote).

    Raised instead of a bare ``socket.timeout`` wherever this package
    performs a *bounded* exchange — a status poll, a dial handshake — so
    callers (and the CLI) can name what actually happened instead of
    printing ``timed out``.
    """


#: Wire protocol version this build speaks. Version 1 is the original
#: unversioned protocol; version 2 adds handshake replies, authentication,
#: job frames and worker drain. A coordinator accepts both (v1 only on
#: unauthenticated listeners); a peer announcing a version *newer* than
#: this is refused with a clear error instead of misparsed.
PROTO_VERSION = 2

#: Upper bound on one frame's body, and therefore on what a single
#: length prefix can make :func:`recv_msg` allocate. A frame holds one
#: JSON document (a lease or one cell's result document); paper-scale FCT
#: cell documents are tens of kilobytes, so the default 64 MiB is generous
#: headroom, not a limit anyone should meet — meeting it indicates a
#: corrupt or hostile peer. Tunable via ``REPRO_MAX_FRAME_BYTES`` for
#: workloads with genuinely enormous documents.
MAX_FRAME_BYTES = int(os.environ.get("REPRO_MAX_FRAME_BYTES", 64 * 1024 * 1024))

#: Backward-compatible alias (pre-service name).
MAX_FRAME = MAX_FRAME_BYTES

#: Largest single ``recv`` request. ``socket.recv(n)`` allocates an
#: ``n``-byte buffer up front, so reading a frame body in bounded chunks
#: keeps even a maximum-length frame from demanding one huge allocation.
_RECV_CHUNK = 1 << 20

_HEADER = struct.Struct(">I")


def parse_address(text: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) -> ``(host, port)``."""
    if isinstance(text, tuple):
        host, port = text
        return host, int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def apply_socket_policy(sock: socket.socket) -> None:
    """Configure one connected protocol socket: Nagle off.

    Called on every socket the protocol dials and on every connection the
    coordinator accepts (see "Socket policy" in the module docstring).
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def encode_frame(msg: dict[str, Any]) -> bytes:
    """One message -> header + ASCII JSON body."""
    body = json.dumps(
        msg, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body)) + body


def send_msg(
    sock: socket.socket,
    msg: dict[str, Any],
    lock: threading.Lock | None = None,
) -> None:
    """Send one framed message (atomically w.r.t. ``lock`` if given).

    The worker's heartbeat thread and its main loop share one socket, so
    every worker-side send passes the same lock to keep frames whole.

    This is the chaos seam: when ``REPRO_CHAOS`` arms the process-wide
    injector, every outgoing frame — coordinator and worker alike — may
    be delayed, dropped (the connection is torn down and ``OSError``
    raised, exactly the failure shape both peers already recover from),
    corrupted in flight (the receiver hits :class:`ProtocolError`), or
    replayed (sent twice back-to-back; every receiver in this package
    treats duplicate frames idempotently).
    """
    frame = encode_frame(msg)
    inj = chaos.injector()
    if inj is not None:
        frame = chaos.mangle_frame(inj, frame, sock)
    if lock is None:
        sock.sendall(frame)
    else:
        with lock:
            sock.sendall(frame)


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` only on EOF *at* the boundary.

    EOF after a partial read is a torn frame, never a clean close —
    reporting it as ``None`` would let a truncated length prefix
    impersonate an orderly shutdown, so it raises instead.

    ``n`` is bounded by :data:`MAX_FRAME_BYTES` (enforced by every
    caller before the body read) and each underlying ``recv`` asks for
    at most :data:`_RECV_CHUNK` bytes, so a corrupt or hostile length
    prefix can never demand one multi-gigabyte allocation: the read
    fails with EOF/:class:`ProtocolError` after at most one bounded
    chunk per loop turn.
    """
    if n > MAX_FRAME_BYTES + _HEADER.size:
        raise ProtocolError(
            f"refusing to read {n} bytes (> MAX_FRAME_BYTES {MAX_FRAME_BYTES})"
        )
    chunks: list[bytes] = []
    while n:
        chunk = sock.recv(min(n, _RECV_CHUNK))
        if not chunk:
            if chunks:
                raise ProtocolError("connection closed mid-frame")
            return None  # peer closed at a frame boundary
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking read of one framed message; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_body(body)


def _decode_body(body: bytes) -> dict[str, Any]:
    try:
        msg = json.loads(body.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def fetch_status(
    address: str | tuple[str, int],
    timeout: float = 5.0,
    secret: bytes | None = None,
) -> dict[str, Any]:
    """One-shot status poll of a live coordinator.

    Connects, sends a ``status`` frame and returns the snapshot dict.
    With ``secret`` the poll performs the v2 authenticated handshake
    first (role ``client``: no lease, excluded from worker counts);
    without one it stays on the legacy bare-``status`` exchange. Raises
    ``OSError`` when the coordinator is unreachable,
    :class:`ProtocolTimeout` when it accepts the connection but stops
    answering (half-open socket — the poll is bounded by ``timeout``,
    it can never hang ``repro status``), :class:`ProtocolError` on a
    malformed reply, and :class:`repro.distrib.auth.AuthError` when the
    coordinator rejects (or requires) authentication.
    """
    host, port = parse_address(address)
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            # create_connection's timeout persists as the per-op recv/send
            # timeout, which is exactly the bound we want on every frame.
            apply_socket_policy(sock)
            if secret is not None:
                from .auth import client_handshake

                client_handshake(sock, role="client", secret=secret)
            send_msg(sock, {"type": "status"})
            reply = recv_msg(sock)
    except socket.timeout as exc:
        raise ProtocolTimeout(
            f"coordinator at {host}:{port} accepted the connection but "
            f"did not answer within {timeout:g}s (half-open or wedged)"
        ) from exc
    if reply is not None and reply.get("type") == "error":
        from .auth import AuthError

        raise AuthError(str(reply.get("error", "request refused")))
    if (
        reply is None
        or reply.get("type") != "status"
        or not isinstance(reply.get("status"), dict)
    ):
        raise ProtocolError(f"unexpected status reply: {reply!r}")
    return reply["status"]


class FrameReader:
    """Incremental frame parser for the coordinator's non-blocking reads.

    Feed it whatever ``recv`` returned; it buffers partial frames across
    calls and yields every complete message, so a message split over
    arbitrary TCP segment boundaries decodes identically to one that
    arrived whole.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[dict[str, Any]]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds "
                    f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield _decode_body(body)
