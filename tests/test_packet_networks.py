"""Integration tests: the four simulated networks deliver traffic correctly."""

import pytest

from repro.core.topology import OperaNetwork
from repro.net import (
    ClosSimNetwork,
    ExpanderSimNetwork,
    OperaSimNetwork,
    RotorNetSimNetwork,
)
from repro.topologies import ExpanderTopology, FoldedClos, RotorNetTopology

MS = 1_000_000_000  # picoseconds


@pytest.fixture(scope="module")
def opera_sim():
    net = OperaNetwork(k=8, n_racks=8, seed=0)
    return OperaSimNetwork(net)


def fresh_opera(seed=0, **kwargs):
    return OperaSimNetwork(OperaNetwork(k=8, n_racks=8, seed=seed), **kwargs)


class TestOperaLowLatency:
    def test_single_flow_delivers_exactly_once(self):
        sim = fresh_opera()
        rec = sim.start_low_latency_flow(0, 30, 20_000)
        sim.run(5 * MS)
        assert rec.complete
        assert rec.delivered_bytes == 20_000

    def test_fct_well_under_slice(self):
        sim = fresh_opera()
        rec = sim.start_low_latency_flow(0, 30, 1_436)
        sim.run(1 * MS)
        # One MTU across a few hops: tens of microseconds at most.
        assert rec.complete
        assert rec.fct_ps < sim.network.timing.epsilon_ps

    def test_rack_local_flow(self):
        sim = fresh_opera()
        rec = sim.start_low_latency_flow(0, 1, 10_000)
        sim.run(1 * MS)
        assert rec.complete

    def test_many_flows_all_complete(self):
        sim = fresh_opera()
        recs = [
            sim.start_low_latency_flow(src, (src + 9) % 32, 5_000, start_ps=src * 1000)
            for src in range(32)
        ]
        sim.run(10 * MS)
        assert all(r.complete for r in recs)
        assert sim.stats.completion_fraction() == 1.0

    def test_flows_spanning_slice_boundaries(self):
        """Flows started near a reconfiguration still complete (stamping)."""
        sim = fresh_opera()
        slice_ps = sim.network.timing.slice_ps
        recs = [
            sim.start_low_latency_flow(
                0, 30, 30_000, start_ps=s * slice_ps - 2_000_000
            )
            for s in range(1, 6)
        ]
        sim.run(20 * MS)
        assert all(r.complete for r in recs)


class TestOperaRouteTables:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_entry_is_the_uplinks_of_next_hops(self, seed):
        # The builder fills each ToR's table from the neighbours' distance
        # rows; SliceRoutes.next_hops stays the reference it must match.
        sim = fresh_opera(seed=seed)
        slices = sim.pipeline.routing.all_slices()
        n_racks = sim.network.n_racks
        for rack, tor in enumerate(sim.tors):
            uplinks = sim.uplink_ports[rack]
            options = tor.router.options
            assert len(options) == len(slices)
            for row, routes in zip(options, slices):
                assert row == tuple(
                    tuple(uplinks[w] for _peer, w in routes.next_hops(rack, dst))
                    for dst in range(n_racks)
                )


class TestOperaBulk:
    def test_bulk_waits_for_direct_circuit(self):
        sim = fresh_opera()
        rec = sim.start_bulk_flow(0, 30, 100_000)
        sim.run(20 * MS)
        assert rec.complete
        assert rec.delivered_bytes == 100_000

    def test_bulk_completion_within_cycles(self):
        sim = fresh_opera()
        cycle = sim.network.timing.cycle_ps
        rec = sim.start_bulk_flow(0, 30, 500_000)
        sim.run(30 * MS)
        assert rec.complete
        # 500 KB needs ~0.4 ms of circuit time; direct slices appear within
        # a few cycles.
        assert rec.fct_ps < 4 * cycle

    def test_vlb_helps_skewed_bulk(self):
        with_vlb = fresh_opera()
        rec_a = with_vlb.start_bulk_flow(0, 30, 2_000_000)
        with_vlb.run(60 * MS)
        without = fresh_opera(enable_vlb=False)
        rec_b = without.start_bulk_flow(0, 30, 2_000_000)
        without.run(60 * MS)
        assert rec_a.complete and rec_b.complete
        assert rec_a.fct_ps <= rec_b.fct_ps
        assert with_vlb.agents[0].vlb_bytes_sent > 0

    def test_mixed_bulk_and_low_latency(self):
        sim = fresh_opera()
        bulk = sim.start_bulk_flow(0, 30, 400_000)
        lls = [
            sim.start_low_latency_flow(1, 29, 3_000, start_ps=i * 100_000)
            for i in range(20)
        ]
        sim.run(30 * MS)
        assert bulk.complete
        assert all(r.complete for r in lls)

    def test_bulk_conservation_all_to_all(self):
        sim = fresh_opera()
        n = len(sim.hosts)
        recs = []
        for src in range(0, n, 4):
            for dst in range(1, n, 7):
                if src // 4 != dst // 4:
                    recs.append(sim.start_bulk_flow(src, dst, 50_000))
        sim.run(50 * MS)
        for rec in recs:
            assert rec.complete, f"flow {rec.flow_id} incomplete"
            assert rec.delivered_bytes == 50_000


class TestExpanderSim:
    @pytest.fixture(scope="class")
    def sim(self):
        topo = ExpanderTopology(8, 4, 4, seed=0)
        sim = ExpanderSimNetwork(topo)
        return sim

    def test_delivery(self, sim):
        rec = sim.start_low_latency_flow(0, 30, 50_000)
        sim.run(sim.sim.now + 5 * MS)
        assert rec.complete and rec.delivered_bytes == 50_000

    def test_congestion_trims_but_recovers(self):
        topo = ExpanderTopology(8, 4, 4, seed=0)
        sim = ExpanderSimNetwork(topo)
        # Incast: 8 senders to one host.
        recs = [
            sim.start_low_latency_flow(src, 31, 60_000)
            for src in range(0, 16, 2)
        ]
        sim.run(20 * MS)
        assert all(r.complete for r in recs)
        trims = sum(
            p.stats.trimmed
            for ports in sim.uplink_ports
            for p in ports.values()
        ) + sum(p.stats.trimmed for p in sim.host_ports.values())
        retx = sum(r.retransmissions for r in recs)
        assert trims == 0 or retx >= 0  # trims recovered via NACK/retx


class TestClosSim:
    @pytest.fixture(scope="class")
    def sim(self):
        return ClosSimNetwork(FoldedClos(4, 1))

    def test_same_pod_delivery(self, sim):
        rec = sim.start_low_latency_flow(0, 3, 20_000)
        sim.run(sim.sim.now + 5 * MS)
        assert rec.complete

    def test_cross_pod_delivery(self, sim):
        rec = sim.start_low_latency_flow(0, 15, 20_000)
        sim.run(sim.sim.now + 5 * MS)
        assert rec.complete

    def test_oversubscribed_clos(self):
        sim = ClosSimNetwork(FoldedClos(8, 3))
        recs = [
            sim.start_low_latency_flow(src, (src + 30) % sim.clos.n_hosts, 30_000)
            for src in range(0, 30, 3)
        ]
        sim.run(20 * MS)
        assert all(r.complete for r in recs)


class TestRotorNetSim:
    def test_hybrid_low_latency_fast(self):
        sim = RotorNetSimNetwork(RotorNetTopology(8, 4, 4, hybrid=True, seed=0))
        rec = sim.start_low_latency_flow(0, 30, 10_000)
        sim.run(5 * MS)
        assert rec.complete
        assert rec.fct_ps < 100_000_000  # < 100 us through the fabric

    def test_non_hybrid_low_latency_slow(self):
        hybrid = RotorNetSimNetwork(RotorNetTopology(8, 4, 4, hybrid=True, seed=0))
        fast = hybrid.start_low_latency_flow(0, 30, 10_000)
        hybrid.run(30 * MS)
        rotor_only = RotorNetSimNetwork(
            RotorNetTopology(8, 4, 4, hybrid=False, seed=0)
        )
        slow = rotor_only.start_low_latency_flow(0, 30, 10_000)
        rotor_only.run(30 * MS)
        assert fast.complete and slow.complete
        # Paper Fig 7c: short flows pay orders of magnitude without a
        # packet fabric (bounded by the scaled-down cycle here).
        assert slow.fct_ps > 5 * fast.fct_ps

    def test_bulk_delivery(self):
        sim = RotorNetSimNetwork(RotorNetTopology(8, 4, 4, hybrid=False, seed=0))
        recs = [sim.start_bulk_flow(h, (h + 13) % 32, 80_000) for h in range(8)]
        sim.run(40 * MS)
        assert all(r.complete for r in recs)
        assert all(r.delivered_bytes == 80_000 for r in recs)


class TestStatsCollector:
    def test_throughput_series(self, opera_sim):
        sim = fresh_opera()
        for src in range(4):
            sim.start_bulk_flow(src, src + 28, 200_000)
        sim.run(20 * MS)
        series = sim.stats.throughput_series(n_hosts=32)
        assert series
        assert all(0.0 <= v <= 1.0 for _t, v in series)
        total = sim.stats.total_delivered_bytes()
        assert total == 4 * 200_000

    def test_percentiles(self):
        sim = fresh_opera()
        recs = [
            sim.start_low_latency_flow(src, (src + 5) % 32, 2_000)
            for src in range(16)
        ]
        sim.run(10 * MS)
        p50 = sim.stats.fct_percentile_us(50)
        p99 = sim.stats.fct_percentile_us(99)
        assert p50 is not None and p99 is not None
        assert p99 >= p50 > 0
