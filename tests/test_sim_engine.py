"""Tests for the event engine, port model and packet primitives."""

import pytest

from repro.net.link import Port
from repro.net.packet import (
    HEADER_BYTES,
    MTU_BYTES,
    Packet,
    PacketKind,
    Priority,
)
from repro.net.sim import Simulator


def make_packet(seq=0, size=MTU_BYTES, priority=Priority.LOW_LATENCY, kind=PacketKind.DATA):
    return Packet(
        flow_id=1,
        kind=kind,
        src_host=0,
        dst_host=1,
        seq=seq,
        size_bytes=size,
        priority=priority,
    )


class Collector:
    def __init__(self):
        self.packets = []
        self.times = []

    def receive(self, packet):
        self.packets.append(packet)


class TestSimulator:
    def test_events_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.at(50, seen.append, "b")
        sim.at(10, seen.append, "a")
        sim.at(90, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_fifo(self):
        sim = Simulator()
        seen = []
        for tag in "xyz":
            sim.at(5, seen.append, tag)
        sim.run()
        assert seen == ["x", "y", "z"]

    def test_until_inclusive(self):
        sim = Simulator()
        seen = []
        sim.at(10, seen.append, 1)
        sim.at(11, seen.append, 2)
        sim.run(until_ps=10)
        assert seen == [1]
        assert sim.pending == 1

    def test_no_past_scheduling(self):
        sim = Simulator()
        sim.at(10, lambda: sim.at(5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_after_relative(self):
        sim = Simulator()
        out = []
        sim.at(10, lambda: sim.after(7, lambda: out.append(sim.now)))
        sim.run()
        assert out == [17]

    def test_advances_to_horizon_when_idle(self):
        sim = Simulator()
        sim.run(until_ps=123)
        assert sim.now == 123

    def test_max_events_leaves_now_behind_horizon(self):
        # Contract: when the event budget (not the horizon) stops the run,
        # the clock stays at the last processed event — the runner cannot
        # claim the rest of the interval was quiet.
        sim = Simulator()
        for t in (10, 20, 30):
            sim.at(t, lambda: None)
        processed = sim.run(until_ps=100, max_events=2)
        assert processed == 2
        assert sim.now == 20  # behind the horizon by design
        assert sim.pending == 1
        # A later chunked call resumes cleanly and then idles to the horizon.
        processed = sim.run(until_ps=100, max_events=10)
        assert processed == 1
        assert sim.now == 100
        assert sim.events_processed == 3

    def test_max_events_exhausted_on_last_event_does_not_advance(self):
        # Boundary: the budget runs out exactly as the heap empties; the
        # clock still must not jump to the horizon (the run can't know the
        # heap is quiet without budget left to look).
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.at(20, lambda: None)
        assert sim.run(until_ps=500, max_events=2) == 2
        assert sim.now == 20
        # With budget to spare the same drain idles forward as usual.
        assert sim.run(until_ps=500, max_events=5) == 0
        assert sim.now == 500

    def test_horizon_wins_over_max_events(self):
        # Events beyond the horizon don't count against the budget and the
        # idle-advance still applies when the horizon (not the budget)
        # bounds the run.
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.at(900, lambda: None)
        assert sim.run(until_ps=100, max_events=5) == 1
        assert sim.now == 100
        assert sim.pending == 1

    def test_scheduling_into_skipped_interval_is_rejected(self):
        # Companion to the idle-advance: once the clock reached the horizon,
        # the skipped interval is really in the past.
        sim = Simulator()
        sim.run(until_ps=50)
        with pytest.raises(ValueError):
            sim.at(25, lambda: None)


class TestSchedulingErrors:
    def test_past_at_names_callback_and_times(self):
        sim = Simulator()
        sim.run(until_ps=100)

        def my_callback():
            pass  # pragma: no cover - never runs

        with pytest.raises(ValueError) as err:
            sim.at(50, my_callback)
        message = str(err.value)
        assert "my_callback" in message
        assert "50 < now=100" in message

    def test_past_after_names_callback(self):
        sim = Simulator()
        with pytest.raises(ValueError, match=r"append.*-1 < now=0"):
            sim.after(-1, [].append)

    def test_qualname_fallback_for_odd_callables(self):
        from functools import partial

        sim = Simulator()
        sim.run(until_ps=10)
        with pytest.raises(ValueError, match="partial"):
            sim.at(5, partial(print, "x"))


class TestPort:
    def _port(self, sim, sink, **kwargs):
        return Port(
            sim,
            "test",
            resolver=lambda _p, _n: sink,
            rate_bps=10_000_000_000,
            propagation_ps=500_000,
            **kwargs,
        )

    def test_serialization_exact(self):
        sim = Simulator()
        sink = Collector()
        port = self._port(sim, sink)
        assert port.serialization_ps(1500) == 1_200_000
        port.enqueue(make_packet())
        sim.run()
        # one serialization + one propagation
        assert sim.now == 1_200_000 + 500_000
        assert len(sink.packets) == 1

    def test_back_to_back_serialization(self):
        sim = Simulator()
        sink = Collector()
        port = self._port(sim, sink)
        port.enqueue(make_packet(0))
        port.enqueue(make_packet(1))
        sim.run()
        assert sim.now == 2 * 1_200_000 + 500_000

    def test_control_priority_preempts_data(self):
        sim = Simulator()
        sink = Collector()
        port = self._port(sim, sink)
        port.enqueue(make_packet(0))  # starts transmitting
        port.enqueue(make_packet(1))  # queued data
        port.enqueue(
            make_packet(2, size=HEADER_BYTES, priority=Priority.CONTROL, kind=PacketKind.ACK)
        )
        sim.run()
        order = [p.seq for p in sink.packets]
        assert order == [0, 2, 1]  # control jumps the data queue

    def test_trimming_on_full_data_queue(self):
        sim = Simulator()
        sink = Collector()
        # Queue limit of 2 full packets; 1 transmitting + 2 queued + overflow.
        port = self._port(sim, sink, data_queue_bytes=2 * MTU_BYTES)
        for seq in range(5):
            port.enqueue(make_packet(seq))
        sim.run()
        kinds = {p.seq: p.kind for p in sink.packets}
        assert port.stats.trimmed == 2
        trimmed = [s for s, k in kinds.items() if k is PacketKind.HEADER]
        assert len(trimmed) == 2
        # Trimmed headers arrive *before* the queued full packets.
        arrival_order = [p.seq for p in sink.packets]
        assert set(arrival_order) == {0, 1, 2, 3, 4}

    def test_drop_tail_without_trimming(self):
        sim = Simulator()
        sink = Collector()
        port = self._port(sim, sink, data_queue_bytes=2 * MTU_BYTES, trimming=False)
        results = [port.enqueue(make_packet(seq)) for seq in range(5)]
        sim.run()
        assert results.count(False) == 2
        assert len(sink.packets) == 3

    def test_control_queue_overflow_drops(self):
        sim = Simulator()
        sink = Collector()
        port = self._port(sim, sink, control_queue_bytes=2 * HEADER_BYTES)
        ok = [
            port.enqueue(
                make_packet(s, size=HEADER_BYTES, priority=Priority.CONTROL, kind=PacketKind.ACK)
            )
            for s in range(5)
        ]
        sim.run()
        assert ok.count(False) > 0
        assert port.stats.dropped_control > 0

    def test_bulk_drop_callback(self):
        sim = Simulator()
        sink = Collector()
        dropped = []
        port = self._port(
            sim, sink, bulk_queue_bytes=MTU_BYTES, on_bulk_drop=dropped.append
        )
        for seq in range(4):
            port.enqueue(make_packet(seq, priority=Priority.BULK))
        sim.run()
        assert dropped and all(p.priority is Priority.BULK for p in dropped)

    def test_undeliverable_handler(self):
        sim = Simulator()
        lost = []
        port = Port(
            sim,
            "dark",
            resolver=lambda _p, _n: None,
            on_undeliverable=lost.append,
        )
        port.enqueue(make_packet())
        sim.run()
        assert len(lost) == 1
        assert port.stats.undeliverable == 1


class TestPacket:
    def test_trim(self):
        pkt = make_packet()
        pkt.trim()
        assert pkt.kind is PacketKind.HEADER
        assert pkt.size_bytes == HEADER_BYTES
        assert pkt.priority is Priority.CONTROL

    def test_trim_only_data(self):
        pkt = make_packet(kind=PacketKind.ACK, priority=Priority.CONTROL, size=64)
        with pytest.raises(ValueError):
            pkt.trim()
