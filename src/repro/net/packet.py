"""Packet model for the event simulator.

NDP's wire format distinguishes full data packets from *trimmed* headers
(payload cut at an overloaded queue, header forwarded at control priority so
the receiver learns of the loss immediately) and the control packets (ACK,
NACK, PULL) that drive the receiver-paced protocol. RotorLB bulk packets
carry their intended next-rack so a ToR can detect a missed slice.

Hot-path notes: a simulation allocates one :class:`Packet` per data MTU and
several control packets per delivery, so the class is ``__slots__``-only
(no per-instance dict) and both :class:`PacketKind` and :class:`Priority`
are ``IntEnum``\\ s — their members are ints on the wire-format hot path and
singletons, so the protocol code compares them with ``is``. Dead packets
are recycled through a free list (:func:`acquire` / :func:`release`) instead
of being re-allocated; endpoints must therefore not retain a packet object
after ``on_packet`` returns (see :class:`~repro.net.node.FlowEndpoint`).
"""

from __future__ import annotations

import enum

__all__ = [
    "PacketKind",
    "Priority",
    "Packet",
    "HEADER_BYTES",
    "MTU_BYTES",
    "acquire",
    "release",
]

HEADER_BYTES = 64
MTU_BYTES = 1500


class PacketKind(enum.IntEnum):
    DATA = 0  # full payload (NDP or RotorLB)
    HEADER = 1  # trimmed NDP data packet
    ACK = 2
    NACK = 3
    PULL = 4
    HELLO = 5  # failure-detection protocol (section 3.6.2)


class Priority(enum.IntEnum):
    """Queue service classes: lower value served first."""

    CONTROL = 0  # trimmed headers, ACK/NACK/PULL, hellos
    LOW_LATENCY = 1  # NDP data of latency-sensitive flows
    BULK = 2  # RotorLB data


_KIND_DATA = PacketKind.DATA
_KIND_HEADER = PacketKind.HEADER
_PRIO_CONTROL = Priority.CONTROL


class Packet:
    """One simulated packet. Mutable: hops/stamps update in flight."""

    __slots__ = (
        "flow_id",
        "kind",
        "src_host",
        "dst_host",
        "seq",
        "size_bytes",
        "priority",
        "slice_stamp",
        "salt",
        "hops",
        "next_rack",
        "relay_to",
        "recv_args",
        "_pooled",
    )

    def __init__(
        self,
        flow_id: int,
        kind: PacketKind,
        src_host: int,
        dst_host: int,
        seq: int,
        size_bytes: int,
        priority: Priority,
        slice_stamp: int | None = None,
        salt: int = 0,
        hops: int = 0,
        next_rack: int | None = None,
        relay_to: int | None = None,
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.src_host = src_host
        self.dst_host = dst_host
        self.seq = seq
        self.size_bytes = size_bytes
        self.priority = priority
        #: Topology slice stamped at the first ToR (Opera low-latency routing).
        self.slice_stamp = slice_stamp
        #: Per-packet salt for equal-cost path spraying.
        self.salt = salt
        #: ToR-to-ToR hops taken so far (TTL guard).
        self.hops = hops
        #: RotorLB: the rack this packet must reach on its next circuit hop.
        self.next_rack = next_rack
        #: RotorLB: final destination rack when relaying via an intermediate.
        self.relay_to = relay_to
        #: Preconstructed ``(self,)`` args tuple for delivery events — the
        #: engine's zero-allocation dispatch path schedules
        #: ``(deliver, packet.recv_args)`` without packing a fresh tuple
        #: per hop. Identity-stable across free-list recycling.
        self.recv_args = (self,)
        self._pooled = False

    def trim(self) -> None:
        """Cut the payload: the packet becomes a control-priority header."""
        if self.kind is not _KIND_DATA:
            raise ValueError("only data packets can be trimmed")
        self.kind = _KIND_HEADER
        self.size_bytes = HEADER_BYTES
        self.priority = _PRIO_CONTROL

    @property
    def is_control(self) -> bool:
        return self.priority is _PRIO_CONTROL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(flow={self.flow_id}, kind={self.kind.name}, "
            f"seq={self.seq}, {self.src_host}->{self.dst_host}, "
            f"{self.size_bytes}B, prio={self.priority.name})"
        )


# ----------------------------------------------------------------- free list
#
# ACK/NACK/PULL/header churn dominates allocation in NDP-heavy runs: every
# delivered data packet spawns at least one control packet that dies at the
# far host one RTT later. The pool recycles those objects. All fields are
# reassigned on acquire, so a recycled packet carries no state over; the
# `_pooled` flag makes a double release a no-op rather than a corruption.

_POOL: list[Packet] = []
_POOL_MAX = 8192


def acquire(
    flow_id: int,
    kind: PacketKind,
    src_host: int,
    dst_host: int,
    seq: int,
    size_bytes: int,
    priority: Priority,
    slice_stamp: int | None = None,
    salt: int = 0,
    next_rack: int | None = None,
    relay_to: int | None = None,
) -> Packet:
    """A packet from the free list (or a fresh one), fully re-initialised."""
    pool = _POOL
    if pool:
        packet = pool.pop()
        packet._pooled = False
        packet.flow_id = flow_id
        packet.kind = kind
        packet.src_host = src_host
        packet.dst_host = dst_host
        packet.seq = seq
        packet.size_bytes = size_bytes
        packet.priority = priority
        packet.slice_stamp = slice_stamp
        packet.salt = salt
        packet.hops = 0
        packet.next_rack = next_rack
        packet.relay_to = relay_to
        return packet
    return Packet(
        flow_id,
        kind,
        src_host,
        dst_host,
        seq,
        size_bytes,
        priority,
        slice_stamp=slice_stamp,
        salt=salt,
        next_rack=next_rack,
        relay_to=relay_to,
    )


def release(packet: Packet) -> None:
    """Return a dead packet to the free list (idempotent)."""
    if packet._pooled:
        return
    packet._pooled = True
    if len(_POOL) < _POOL_MAX:
        _POOL.append(packet)
