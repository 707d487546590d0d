"""Output-queued port model with priority queues and NDP trimming.

Each directed link is represented by its sender-side :class:`Port`:
per-priority FIFO queues, a serializer (one packet at a time at line rate)
and fixed propagation delay. The receive side is a *resolver* callback so
dynamic topologies (Opera's rotor circuits) can pick the far end at the
moment photons enter the fiber; static links resolve to a fixed node.

NDP's switch behaviour (Handley et al. [24]) is implemented here: when a
low-latency data packet arrives to a full data queue, its payload is
*trimmed* — the 64-byte header continues at control priority so the
receiver learns of the loss in well under an RTT. Control packets are
served with strict priority; bulk sits below low-latency data (section 4.2:
"NICs and ToRs each perform priority queuing").

Hot-path design (the engine's fast path — see README "Engine internals"):

* The three priority queues are three direct deque attributes with three
  byte counters — no ``dict[Priority, deque]`` hashing, no enum iteration.
* Serialization time is ``size * ps_per_byte`` with a precomputed
  picoseconds-per-byte constant whenever the line rate divides 8 bits/ps
  exactly (all power-of-ten rates do); the exact big-integer division is
  kept as a fallback.
* The serializer is clocked by ``_busy_until`` instead of one
  completion event per packet: a packet enqueued on an idle line starts
  (and schedules its *delivery*) immediately, with no intermediate
  transmission-done event; queued packets are started by a single pending
  *kick* event at the line-free time. Consecutive control packets are
  serialized back-to-back inside one kick — nothing can preempt the
  strict-priority control queue, so committing the whole burst at once is
  timing-identical to one event per packet
  (``tests/test_link_serializer.py`` pins this equivalence).
* Scheduling is allocation-free: deliveries are pushed as preconstructed
  ``(deliver, packet.recv_args)`` pairs (the receive callback is prebound
  per node, the args tuple lives on the packet), one scheduler entry per
  delivery, straight onto the simulator's list heap when it has one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable

from ..core.timing import PS_PER_S
from .packet import HEADER_BYTES, Packet, PacketKind, Priority
from .sim import Simulator

__all__ = ["Port", "PortStats"]

_CONTROL = Priority.CONTROL
_LOW_LATENCY = Priority.LOW_LATENCY
_BULK = Priority.BULK
_DATA = PacketKind.DATA

#: Sentinel: a static target whose delivery callback is bound on first
#: use — builders install routers (and their fused dispatch closures)
#: after wiring ports, so binding at construction would capture the
#: unfused fallback.
_LAZY = object()


class PortStats:
    """Counters for one port."""

    __slots__ = (
        "sent_packets",
        "sent_bytes",
        "trimmed",
        "dropped_control",
        "dropped_bulk",
        "undeliverable",
    )

    def __init__(self) -> None:
        self.sent_packets = 0
        self.sent_bytes = 0
        self.trimmed = 0
        self.dropped_control = 0
        self.dropped_bulk = 0
        self.undeliverable = 0

    def counters(self) -> dict[str, int]:
        """All six counters as plain data (telemetry drain / summaries)."""
        return {
            "sent_packets": self.sent_packets,
            "sent_bytes": self.sent_bytes,
            "trimmed": self.trimmed,
            "dropped_control": self.dropped_control,
            "dropped_bulk": self.dropped_bulk,
            "undeliverable": self.undeliverable,
        }


class Port:
    """Sender side of one directed link.

    Parameters
    ----------
    sim, name:
        Engine and a debug label.
    rate_bps, propagation_ps:
        Line rate and one-way fiber delay.
    resolver:
        ``resolver(packet, now_ps)`` returns the receiving node (anything
        with ``receive(packet)``) or ``None`` when the circuit is dark /
        mismatched; ``None`` routes the packet to ``on_undeliverable``.
        A *static* link may instead pass ``target=<node>`` (and no
        resolver): the far end is then fixed for the port's lifetime and
        the per-packet resolver call is skipped entirely.
    data_queue_bytes:
        NDP trim threshold for the low-latency data queue (12 KB in §4.2.1;
        an equal-sized header queue backs it).
    control_queue_bytes, bulk_queue_bytes:
        Capacities of the control/header and bulk queues.
    trimming:
        Disable to model plain drop-tail (non-NDP baselines).
    """

    __slots__ = (
        "sim",
        "name",
        "resolver",
        "rate_bps",
        "propagation_ps",
        "data_queue_bytes",
        "control_queue_bytes",
        "bulk_queue_bytes",
        "trimming",
        "on_undeliverable",
        "on_bulk_drop",
        "stats",
        "_q_control",
        "_q_data",
        "_q_bulk",
        "_bytes_control",
        "_bytes_data",
        "_bytes_bulk",
        "_busy_until",
        "_kick_pending",
        "_ps_per_byte",
        "_target",
        "_committed_control",
        "_deliver",
        "_kick_cb",
        "_undeliv_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        resolver: Callable[[Packet, int], object | None] | None = None,
        rate_bps: int = 10_000_000_000,
        propagation_ps: int = 500_000,
        data_queue_bytes: int = 12_000,
        control_queue_bytes: int = 12_000,
        bulk_queue_bytes: int = 256_000,
        trimming: bool = True,
        on_undeliverable: Callable[[Packet], None] | None = None,
        on_bulk_drop: Callable[[Packet], None] | None = None,
        target: object | None = None,
    ) -> None:
        if (resolver is None) == (target is None):
            raise ValueError("exactly one of resolver/target must be given")
        self.sim = sim
        self.name = name
        self.resolver = resolver
        self._target = target
        self.rate_bps = rate_bps
        self.propagation_ps = propagation_ps
        self.data_queue_bytes = data_queue_bytes
        self.control_queue_bytes = control_queue_bytes
        self.bulk_queue_bytes = bulk_queue_bytes
        self.trimming = trimming
        self.on_undeliverable = on_undeliverable
        self.on_bulk_drop = on_bulk_drop
        self._q_control: deque[Packet] = deque()
        self._q_data: deque[Packet] = deque()
        self._q_bulk: deque[Packet] = deque()
        self._bytes_control = 0
        self._bytes_data = 0
        self._bytes_bulk = 0
        self._busy_until = 0
        self._kick_pending = False
        #: (start_ps, size) of control packets committed back-to-back but
        #: not yet on the wire: still *queued* for admission accounting.
        self._committed_control: deque[tuple[int, int]] = deque()
        # ps per byte, exact whenever the rate divides 8 bits per ps.
        per_byte, rem = divmod(8 * PS_PER_S, rate_bps)
        self._ps_per_byte = per_byte if rem == 0 else 0
        # Zero-allocation dispatch: the delivery callback for a static
        # target is bound exactly once, on first use (resolver ports bind
        # per packet, preferring the node's prebound ``receive_cb``), and
        # the port's own kick/undeliverable callbacks are prebound so
        # rescheduling never re-creates a bound method.
        self._deliver = None if target is None else _LAZY
        self._kick_cb = self._kick
        self._undeliv_cb = self._undeliverable
        self.stats = PortStats()

    # ----------------------------------------------------------------- queue

    def serialization_ps(self, size_bytes: int) -> int:
        per_byte = self._ps_per_byte
        if per_byte:
            return size_bytes * per_byte
        return (size_bytes * 8 * PS_PER_S) // self.rate_bps

    def queued_bytes(self, priority: Priority | None = None) -> int:
        if self._committed_control:
            self._expire_committed(self.sim.now)
        if priority is None:
            return self._bytes_control + self._bytes_data + self._bytes_bulk
        if priority is _CONTROL:
            return self._bytes_control
        if priority is _LOW_LATENCY:
            return self._bytes_data
        return self._bytes_bulk

    def _expire_committed(self, now: int) -> None:
        """Release committed control bytes whose transmission has started.

        The back-to-back kick commits the whole control queue in one event
        but each packet only *leaves the queue* (stops occupying
        ``control_queue_bytes``) when its first bit enters the wire — the
        same instant the one-event-per-packet engine popped it. The ledger
        is settled lazily at every observation point, so admission checks
        and ``queued_bytes`` always see the occupancy an event-per-packet
        serializer would report.
        """
        committed = self._committed_control
        while committed and committed[0][0] <= now:
            self._bytes_control -= committed.popleft()[1]

    @property
    def busy(self) -> bool:
        """True while a packet is on the wire (serializer occupied)."""
        return self.sim.now < self._busy_until or self._kick_pending

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; returns False if dropped."""
        priority = packet.priority
        size = packet.size_bytes
        if priority is _LOW_LATENCY and packet.kind is _DATA:
            if self._bytes_data + size > self.data_queue_bytes:
                if not self.trimming:
                    return False  # drop-tail
                packet.trim()
                self.stats.trimmed += 1
                priority = _CONTROL
                size = packet.size_bytes
        if priority is _CONTROL:
            if self._committed_control:
                self._expire_committed(self.sim.now)
            if self._bytes_control + size > self.control_queue_bytes:
                self.stats.dropped_control += 1
                return False
        elif priority is _BULK:
            if self._bytes_bulk + size > self.bulk_queue_bytes:
                self.stats.dropped_bulk += 1
                if self.on_bulk_drop is not None:
                    self.on_bulk_drop(packet)
                return False
        sim = self.sim
        now = sim.now
        packet.enqueued_ps = now
        if not self._kick_pending and self._busy_until <= now:
            # Idle line, empty queues: transmit without touching a queue.
            # This is the single hottest path in the engine (most packets
            # meet an idle serializer), so _transmit is inlined here.
            per_byte = self._ps_per_byte
            if per_byte:
                done = now + size * per_byte
            else:
                done = now + (size * 8 * PS_PER_S) // self.rate_bps
            self._busy_until = done
            stats = self.stats
            stats.sent_packets += 1
            stats.sent_bytes += size
            deliver = self._deliver
            if deliver is None:
                target = self.resolver(packet, now)
                if target is None:
                    sim.at(done, self._undeliv_cb, packet)
                    return True
                deliver = getattr(target, "receive_cb", None) or target.receive  # type: ignore[attr-defined]
            elif deliver is _LAZY:
                target = self._target
                deliver = self._deliver = (
                    getattr(target, "receive_cb", None) or target.receive  # type: ignore[attr-defined]
                )
            if sim._heap.__class__ is list:
                # Inlined sim.at fast path onto the oracle's list heap (a
                # compiled simulator's native heap takes sim.at); the
                # past-time guard holds by construction (asserted, as
                # sim.at would).
                assert done + self.propagation_ps >= sim.now
                sim._seq = seq = sim._seq + 1
                heappush(
                    sim._heap,
                    (done + self.propagation_ps, seq, deliver, packet.recv_args),
                )
            else:
                sim.at(done + self.propagation_ps, deliver, packet)
            return True
        if priority is _CONTROL:
            self._q_control.append(packet)
            self._bytes_control += size
        elif priority is _LOW_LATENCY:
            self._q_data.append(packet)
            self._bytes_data += size
        else:
            self._q_bulk.append(packet)
            self._bytes_bulk += size
        if not self._kick_pending:
            self._kick_pending = True
            sim.at(self._busy_until, self._kick_cb)
        return True

    # ------------------------------------------------------------ serializer

    def _transmit(self, packet: Packet, start_ps: int) -> int:
        """Put ``packet`` on the wire at ``start_ps``; returns line-free time."""
        size = packet.size_bytes
        per_byte = self._ps_per_byte
        if per_byte:
            done = start_ps + size * per_byte
        else:
            done = start_ps + (size * 8 * PS_PER_S) // self.rate_bps
        self._busy_until = done
        stats = self.stats
        stats.sent_packets += 1
        stats.sent_bytes += size
        # The far end is fixed the moment the first bit enters the fiber.
        deliver = self._deliver
        sim = self.sim
        if deliver is None:
            target = self.resolver(packet, start_ps)
            if target is None:
                # Dark circuit: the loss is observed when the last bit
                # leaves, exactly when the old one-event-per-packet engine
                # reported it.
                sim.at(done, self._undeliv_cb, packet)
                return done
            deliver = getattr(target, "receive_cb", None) or target.receive  # type: ignore[attr-defined]
        elif deliver is _LAZY:
            target = self._target
            deliver = self._deliver = (
                getattr(target, "receive_cb", None) or target.receive  # type: ignore[attr-defined]
            )
        if sim._heap.__class__ is list:
            # Delivery is the engine's single hottest schedule call: push
            # straight onto the list heap (sim.at minus one frame; the time
            # is computed from now + positive delays, never in the past —
            # asserted below, mirroring sim.at's guard). A compiled
            # simulator's native heap takes sim.at.
            assert done + self.propagation_ps >= sim.now
            sim._seq = seq = sim._seq + 1
            heappush(
                sim._heap,
                (done + self.propagation_ps, seq, deliver, packet.recv_args),
            )
        else:
            sim.at(done + self.propagation_ps, deliver, packet)
        return done

    def _kick(self) -> None:
        """Start queued packets now that the line is free.

        The whole control queue is committed back-to-back in one event:
        control has strict priority and is FIFO within itself, so a control
        packet arriving while the burst drains would have queued behind it
        anyway — the commitment changes no timestamps. Each committed
        packet's delivery is pushed as it is committed. Lower priorities
        start one packet per kick, because a later control arrival *is*
        allowed to jump ahead of a not-yet-started data/bulk packet.
        """
        self._kick_pending = False
        start = self.sim.now
        queue = self._q_control
        if queue:
            # On the wire right now: out of the queue at once.
            packet = queue.popleft()
            self._bytes_control -= packet.size_bytes
            start = self._transmit(packet, start)
            committed = self._committed_control
            while queue:
                # Committed but not started: keep its bytes in the
                # admission ledger until its wire-entry time.
                packet = queue.popleft()
                committed.append((start, packet.size_bytes))
                start = self._transmit(packet, start)
        elif self._q_data:
            packet = self._q_data.popleft()
            self._bytes_data -= packet.size_bytes
            self._transmit(packet, start)
        elif self._q_bulk:
            packet = self._q_bulk.popleft()
            self._bytes_bulk -= packet.size_bytes
            self._transmit(packet, start)
        else:  # pragma: no cover - kick is only scheduled with work queued
            return
        if self._q_control or self._q_data or self._q_bulk:
            self._kick_pending = True
            self.sim.at(self._busy_until, self._kick_cb)

    def _undeliverable(self, packet: Packet) -> None:
        self.stats.undeliverable += 1
        if self.on_undeliverable is not None:
            self.on_undeliverable(packet)
