"""Regression tests pinning the back-to-back serializer's timing.

The fast-path Port (``repro.net.link``) replaced the original
one-transmission-done-event-per-packet serializer with ``_busy_until``
bookkeeping, a single pending *kick* event, and back-to-back commitment of
the control queue. These tests pin the observable behaviour to the old
engine's exact packet timings: every delivery time below is the value the
one-event-per-packet design produced.

Each class runs on the pure-Python ``Port`` and ``Simulator``; its
``*Compiled`` twin at the end runs the same tests on the compiled
kernel's classes, whose port keeps native queues, a native ledger and
native counters (skipped where the extension is not built). The one
exception is a line rate that is not a whole number of ps per byte,
which the compiled port refuses.
"""

import pytest

from repro.core.timing import PS_PER_S
from repro.net.kernel import compiled_available, engine_classes
from repro.net.packet import HEADER_BYTES, MTU_BYTES, Packet, PacketKind, Priority

SER_MTU = 1_200_000  # 1500 B at 10 Gb/s
SER_HDR = 51_200  # 64 B at 10 Gb/s
PROP = 500_000


def packet_class(kernel):
    """The packet class ``kernel``'s engine takes: the oracle's ``Packet``,
    or the compiled kernel's own ``CKPacket``."""
    if engine_classes(kernel).name == "c":
        from repro.net.kernel.engine import CKPacket

        return CKPacket
    return Packet


def make_packet(seq=0, size=MTU_BYTES, priority=Priority.LOW_LATENCY,
                kind=PacketKind.DATA, kernel="py"):
    """A packet of ``kernel``'s class (the compiled kernel takes only its own)."""
    return packet_class(kernel)(
        flow_id=1,
        kind=kind,
        src_host=0,
        dst_host=1,
        seq=seq,
        size_bytes=size,
        priority=priority,
    )


def control_packet(seq, kernel="py"):
    return make_packet(
        seq, size=HEADER_BYTES, priority=Priority.CONTROL, kind=PacketKind.ACK,
        kernel=kernel,
    )


class ArrivalLog:
    """Sink that records (time, seq, kind) triples."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet.seq, packet.kind))


class Engine:
    """The engine classes a test builds from: ``kernel``'s."""

    kernel = "py"

    def sim(self):
        return engine_classes(self.kernel).Simulator()

    def port(self, sim, name, **kwargs):
        return engine_classes(self.kernel).Port(sim, name, **kwargs)

    def port_to(self, sim, sink, **kwargs):
        return self.port(sim, "t", resolver=lambda _p, _n: sink, **kwargs)

    def make_packet(self, *args, **kwargs):
        return make_packet(*args, kernel=self.kernel, **kwargs)

    def control_packet(self, seq):
        return control_packet(seq, kernel=self.kernel)


class TestBackToBackTiming(Engine):
    def test_single_packet_exact_times(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        sim.run()
        assert sink.arrivals == [(SER_MTU + PROP, 0, PacketKind.DATA)]

    def test_burst_serializes_back_to_back(self):
        # Three MTUs enqueued at t=0: packet i's last bit leaves at
        # (i+1)*ser, arrives prop later — exactly the old per-event times.
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        for seq in range(3):
            port.enqueue(self.make_packet(seq))
        sim.run()
        assert [(t, s) for t, s, _k in sink.arrivals] == [
            (1 * SER_MTU + PROP, 0),
            (2 * SER_MTU + PROP, 1),
            (3 * SER_MTU + PROP, 2),
        ]

    def test_control_burst_back_to_back_exact_times(self):
        # A data packet occupies the line; three ACKs queue behind it. The
        # fast path commits the whole control burst in one kick — the
        # delivery times must still be per-packet exact.
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        for seq in (10, 11, 12):
            port.enqueue(self.control_packet(seq))
        sim.run()
        expected = [
            (SER_MTU + PROP, 0),
            (SER_MTU + 1 * SER_HDR + PROP, 10),
            (SER_MTU + 2 * SER_HDR + PROP, 11),
            (SER_MTU + 3 * SER_HDR + PROP, 12),
        ]
        assert [(t, s) for t, s, _k in sink.arrivals] == expected

    def test_control_preempts_queued_data_mid_burst(self):
        # d0 transmitting, d1 queued; an ACK arriving mid-serialization
        # jumps ahead of d1 but not d0 (old engine semantics, exact times).
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        port.enqueue(self.make_packet(1))
        sim.at(600_000, port.enqueue, self.control_packet(99))
        sim.run()
        assert [(t, s) for t, s, _k in sink.arrivals] == [
            (SER_MTU + PROP, 0),
            (SER_MTU + SER_HDR + PROP, 99),
            (2 * SER_MTU + SER_HDR + PROP, 1),
        ]

    def test_enqueue_at_exact_line_free_instant_starts_immediately(self):
        # The line frees at t=ser; a packet enqueued by an event at exactly
        # that time starts serializing with no gap.
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        sim.at(SER_MTU, port.enqueue, self.make_packet(1))
        sim.run()
        assert [(t, s) for t, s, _k in sink.arrivals] == [
            (SER_MTU + PROP, 0),
            (2 * SER_MTU + PROP, 1),
        ]

    def test_idle_gap_then_restart(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        sim.run()
        assert not port.busy
        # Much later: a fresh packet starts immediately at enqueue time.
        sim.at(10 * SER_MTU, port.enqueue, self.make_packet(1))
        sim.run()
        assert sink.arrivals[-1] == (11 * SER_MTU + PROP, 1, PacketKind.DATA)

    def test_busy_flag_during_and_after_transmission(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink)
        port.enqueue(self.make_packet(0))
        assert port.busy
        sim.run()
        assert not port.busy


class TestDropAndTrimTiming(Engine):
    def test_trimmed_header_checked_against_control_capacity(self):
        # Data overflowing the data queue trims to a header, which is then
        # admitted to (or dropped by) the *control* queue — both caps apply.
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(
            sim, sink, data_queue_bytes=2 * MTU_BYTES, control_queue_bytes=HEADER_BYTES
        )
        results = [port.enqueue(self.make_packet(seq)) for seq in range(6)]
        sim.run()
        assert port.stats.trimmed == 3
        assert port.stats.dropped_control == 2  # only one header fits
        assert results.count(False) == 2

    def test_undeliverable_reported_at_completion_time(self):
        # The old engine reported a dark-circuit loss when the last bit
        # left the serializer, not when transmission started.
        sim = self.sim()
        seen = []
        port = self.port(
            sim,
            "dark",
            resolver=lambda _p, _n: None,
            on_undeliverable=lambda p: seen.append((sim.now, p.seq)),
        )
        port.enqueue(self.make_packet(7))
        sim.run()
        assert seen == [(SER_MTU, 7)]
        assert port.stats.undeliverable == 1

    def test_resolver_sees_transmission_start_time(self):
        # Back-to-back batches resolve each packet at its own start time
        # ("the far end is fixed when the first bit enters the fiber").
        sim = self.sim()
        seen = []

        class Sink:
            def receive(self, packet):
                pass

        sink = Sink()

        def resolver(packet, now_ps):
            seen.append((now_ps, packet.seq))
            return sink

        port = self.port(sim, "t", resolver=resolver)
        port.enqueue(self.make_packet(0))
        for seq in (1, 2):
            port.enqueue(self.control_packet(seq))
        sim.run()
        assert seen == [
            (0, 0),
            (SER_MTU, 1),
            (SER_MTU + SER_HDR, 2),
        ]


class TestControlAdmissionDuringBurst(Engine):
    def test_committed_packets_still_occupy_the_control_queue(self):
        # An MTU on the wire, two ACKs filling a 128 B control queue. The
        # kick at t=ser commits both back-to-back, but the second only
        # enters the wire one header-time later: until then it must keep
        # occupying the queue, exactly as the one-event-per-packet engine
        # modeled it (one new ACK fits the freed slot, the next is dropped).
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink, control_queue_bytes=2 * HEADER_BYTES)
        port.enqueue(self.make_packet(0))
        assert port.enqueue(self.control_packet(1))
        assert port.enqueue(self.control_packet(2))
        assert not port.enqueue(self.control_packet(3))  # queue full
        outcomes = []

        def probe():
            # t = ser + 10 ns: ACK 1 is on the wire, ACK 2 committed but
            # not started — occupancy must read one header, admit exactly
            # one more packet, and drop the one after.
            outcomes.append(port.queued_bytes(Priority.CONTROL))
            outcomes.append(port.enqueue(self.control_packet(4)))
            outcomes.append(port.enqueue(self.control_packet(5)))

        sim.at(SER_MTU + 10_000, probe)
        sim.run()
        assert outcomes == [HEADER_BYTES, True, False]
        assert port.stats.dropped_control == 2
        assert [s for _t, s, _k in sink.arrivals] == [0, 1, 2, 4]


class TestSerializationConstants(Engine):
    def test_divisible_rate_uses_exact_per_byte_constant(self):
        sim = self.sim()
        port = self.port_to(sim, ArrivalLog(sim))
        assert port.serialization_ps(1500) == SER_MTU
        assert port.serialization_ps(64) == SER_HDR

    def test_non_divisible_rate_falls_back_to_exact_division(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink, rate_bps=3_000_000_000)
        expected = (1500 * 8 * PS_PER_S) // 3_000_000_000
        assert port.serialization_ps(1500) == expected
        port.enqueue(self.make_packet(0))
        sim.run()
        assert sink.arrivals == [(expected + PROP, 0, PacketKind.DATA)]

    def test_exactly_one_of_resolver_or_target(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        with pytest.raises(ValueError):
            self.port(sim, "neither")
        with pytest.raises(ValueError):
            self.port(sim, "both", resolver=lambda _p, _n: sink, target=sink)

    def test_static_target_port_delivers_identically(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port(sim, "static", target=sink)
        for seq in range(2):
            port.enqueue(self.make_packet(seq))
        sim.run()
        assert [(t, s) for t, s, _k in sink.arrivals] == [
            (SER_MTU + PROP, 0),
            (2 * SER_MTU + PROP, 1),
        ]


class TestQueueAccounting(Engine):
    def test_queued_bytes_per_priority_and_total(self):
        sim = self.sim()
        sink = ArrivalLog(sim)
        port = self.port_to(sim, sink, bulk_queue_bytes=1 << 20)
        port.enqueue(self.make_packet(0))  # transmitting, not queued
        port.enqueue(self.make_packet(1))
        port.enqueue(self.control_packet(2))
        port.enqueue(self.make_packet(3, priority=Priority.BULK))
        assert port.queued_bytes(Priority.LOW_LATENCY) == MTU_BYTES
        assert port.queued_bytes(Priority.CONTROL) == HEADER_BYTES
        assert port.queued_bytes(Priority.BULK) == MTU_BYTES
        assert port.queued_bytes() == 2 * MTU_BYTES + HEADER_BYTES
        sim.run()
        assert port.queued_bytes() == 0
        assert port.stats.sent_packets == 4
        assert port.stats.sent_bytes == 3 * MTU_BYTES + HEADER_BYTES


requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)


@requires_c
class TestBackToBackTimingCompiled(TestBackToBackTiming):
    kernel = "c"


@requires_c
class TestDropAndTrimTimingCompiled(TestDropAndTrimTiming):
    kernel = "c"


@requires_c
class TestControlAdmissionDuringBurstCompiled(TestControlAdmissionDuringBurst):
    kernel = "c"


@requires_c
class TestSerializationConstantsCompiled(TestSerializationConstants):
    kernel = "c"

    def test_non_divisible_rate_falls_back_to_exact_division(self):
        # The compiled port has no exact-division path: a line rate that
        # is not a whole number of ps per byte is outside the kernel's
        # contract, refused at construction.
        sim = self.sim()
        with pytest.raises(TypeError, match="3000000000 b/s.*REPRO_KERNEL=py"):
            self.port_to(sim, ArrivalLog(sim), rate_bps=3_000_000_000)


@requires_c
class TestQueueAccountingCompiled(TestQueueAccounting):
    kernel = "c"
