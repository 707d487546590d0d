"""Dynamic failure injection: the fail -> detect -> reroute -> recover loop.

Three contracts are pinned here:

* **Recovery** — a mid-run component failure blackholes in-flight traffic
  (light stops arriving), the hello window delays rerouting, and the NDP
  timeout clock plus RotorLB re-offloading then recover every affected
  flow that is physically recoverable: goodput dips, nothing wedges.
* **Invisibility** — an armed-but-empty failure subsystem is bitwise
  identical to an uninstalled one, and ``REPRO_KERNEL=py`` == ``c`` under
  *active* failures of every component class, including a repaired draw.
* **Differential reachability** — the packet engine's observed steady-state
  reachability under a failure set matches the static analysis exactly:
  a pair completes iff :meth:`OperaRouting.any_slice_reachable` says some
  topology slice connects it; all-slice-partitioned pairs are classified
  unrecoverable, never left wedged.
"""

import random

import pytest

from repro.core.faults import FailureEvent, FailureSet, FailureSchedule
from repro.core.routing import OperaRouting
from repro.core.topology import OperaNetwork
from repro.net.builders import OperaSimNetwork
from repro.net.kernel import compiled_available
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import DATAMINING

requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)

MS = 1_000_000_000


def build_net(seed: int = 0) -> OperaSimNetwork:
    return OperaSimNetwork(OperaNetwork(k=8, n_racks=8, seed=seed))


def fault_workload(
    schedule: FailureSchedule | None,
    kernel: str = "py",
    seed: int = 7,
    load: float = 0.12,
    duration_ms: float = 1.0,
    horizon_ms: float = 16.0,
):
    """A small mixed workload with optional failure arming; returns every
    observable (the armed-but-empty and py-vs-c differentials compare
    these dicts wholesale)."""
    import os

    saved = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        net = build_net(seed=11)
        injector = (
            None if schedule is None else net.install_failures(schedule)
        )
        arrivals = PoissonArrivals(
            DATAMINING.truncated(500_000),
            load=load,
            n_hosts=len(net.hosts),
            hosts_per_rack=net.network.hosts_per_rack,
            seed=seed,
        )
        threshold = net.network.bulk_threshold_bytes
        for flow in arrivals.flows(duration_ps=int(duration_ms * MS)):
            if flow.size_bytes >= threshold:
                net.start_bulk_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
            else:
                net.start_low_latency_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
        net.run(until_ps=int(horizon_ms * MS))
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = saved
    stats = net.stats
    return {
        "events": net.sim.events_processed,
        "final_now": net.sim.now,
        "pending": net.sim.pending,
        "fcts": [
            (fid, rec.fct_ps, rec.delivered_bytes, rec.retransmissions)
            for fid, rec in sorted(stats.flows.items())
        ],
        "blackholed_packets": stats.total_blackholed_packets(),
        "blackholed_bytes": stats.blackholed_bytes,
        "affected": tuple(sorted(stats.affected_flows)),
        "unrecoverable": tuple(sorted(stats.unrecoverable_flows)),
        "rtx": (
            0
            if injector is None
            else injector.ndp.timeout_retransmits + injector.ndp.replayed_pulls
        ),
        "net": net,
        "injector": injector,
    }


def observables(run: dict) -> dict:
    return {k: v for k, v in run.items() if k not in ("net", "injector")}


# ---------------------------------------------------------------------------
# Satellite: loud validation of failure draws and schedules
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("fraction", [-0.1, 1.5, 2.0])
    def test_fraction_out_of_range_names_the_argument(self, fraction):
        rng = random.Random(0)
        for draw in (
            lambda: FailureSet.random_links(8, 4, fraction, rng),
            lambda: FailureSet.random_racks(8, fraction, rng),
            lambda: FailureSet.random_switches(4, fraction, rng),
        ):
            with pytest.raises(ValueError, match="fraction"):
                draw()

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="hosts"):
            FailureSchedule.random(8, 4, "hosts", 0.1, 0, random.Random(0))

    def test_repair_must_follow_fail(self):
        fs = FailureSet(links=frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="repair_at_ps"):
            FailureSchedule.fail_set(fs, at_ps=100, repair_at_ps=100)

    def test_event_field_validation(self):
        with pytest.raises(ValueError, match="component"):
            FailureEvent(0, "fiber", (0, 1))
        with pytest.raises(ValueError, match="action"):
            FailureEvent(0, "link", (0, 1), "wobble")
        with pytest.raises(ValueError, match="pair"):
            FailureEvent(0, "link", 3)
        with pytest.raises(ValueError, match="int"):
            FailureEvent(0, "rack", (1, 2))
        with pytest.raises(ValueError, match=">= 0"):
            FailureEvent(-5, "rack", 1)

    def test_schedule_validate_rejects_out_of_network_targets(self):
        sched = FailureSchedule((FailureEvent(0, "rack", 99),))
        with pytest.raises(ValueError, match="99"):
            sched.validate(8, 4)

    def test_install_failures_validates_against_the_network(self):
        net = build_net()
        bad = FailureSchedule((FailureEvent(0, "switch", 77),))
        with pytest.raises(ValueError, match="77"):
            net.install_failures(bad)

    def test_install_twice_rejected(self):
        net = build_net()
        net.install_failures(FailureSchedule.empty())
        with pytest.raises(RuntimeError, match="installed"):
            net.install_failures(FailureSchedule.empty())

    def test_install_mid_run_rejected(self):
        net = build_net()
        net.run(until_ps=2 * net.slice_ps)
        with pytest.raises(RuntimeError, match="pristine"):
            net.install_failures(FailureSchedule.empty())


class TestScheduleBasics:
    def test_events_sorted_regardless_of_construction_order(self):
        late = FailureEvent(500, "rack", 1)
        early = FailureEvent(100, "link", (0, 2))
        sched = FailureSchedule((late, early))
        assert [e.time_ps for e in sched] == [100, 500]

    def test_failure_set_at_folds_fail_and_repair(self):
        fs = FailureSet(links=frozenset({(1, 2)}), switches=frozenset({3}))
        sched = FailureSchedule.fail_set(fs, at_ps=1_000, repair_at_ps=9_000)
        assert sched.failure_set_at(0).empty
        assert sched.failure_set_at(1_000) == fs
        assert sched.failure_set_at(8_999) == fs
        assert sched.failure_set_at(9_000).empty
        assert sched.final_failure_set().empty
        assert len(sched) == 4 and not sched.empty_schedule

    def test_random_draw_matches_static_draw(self):
        # The dynamic schedule's single-epoch draw is the same seeded draw
        # fig11's static analysis uses: identical rng -> identical set.
        static = FailureSet.random_links(8, 4, 0.25, random.Random(42))
        sched = FailureSchedule.random(
            8, 4, "link", 0.25, 700, random.Random(42)
        )
        assert sched.final_failure_set() == static
        assert all(e.time_ps == 700 for e in sched)


# ---------------------------------------------------------------------------
# Tentpole: mid-run failure dips goodput, detection reroutes, NDP recovers
# ---------------------------------------------------------------------------


class TestDynamicRecovery:
    INJECT_PS = int(0.5 * MS)

    def _link_schedule(self, net, fraction=0.25, seed=3):
        return FailureSchedule.random(
            net.network.n_racks,
            net.network.n_switches,
            "link",
            fraction,
            self.INJECT_PS,
            random.Random(seed),
        )

    def test_link_failure_dips_goodput_and_recovers_every_flow(self):
        baseline = fault_workload(FailureSchedule.empty())
        run = fault_workload(self._link_schedule(build_net(seed=11)))
        stats = run["net"].stats
        injector = run["injector"]
        # The failure actually bit: packets were physically lost.
        assert run["blackholed_packets"] > 0
        assert run["affected"]
        # Detection lands after the hello window but within two cycles.
        applied, detected, _event = injector.log[0]
        cycle_ps = run["net"].slice_ps * run["net"].network.schedule.cycle_slices
        assert applied < detected <= applied + 2 * cycle_ps + run["net"].slice_ps
        # Goodput dips while stale routes blackhole traffic.
        window = 2 * stats.throughput_bin_ps
        base_stats = baseline["net"].stats
        assert stats.delivered_bytes_between(
            self.INJECT_PS, self.INJECT_PS + window
        ) < base_stats.delivered_bytes_between(
            self.INJECT_PS, self.INJECT_PS + window
        )
        # ... and the recovery layer recovers *everything* recoverable:
        # no affected flow is left incomplete without a classification.
        wedged = [
            fid
            for fid in stats.affected_flows - stats.unrecoverable_flows
            if not stats.flows[fid].complete
        ]
        assert wedged == []
        recovery = stats.recovery_time_ps(self.INJECT_PS)
        assert recovery is not None and recovery > 0
        assert run["rtx"] > 0

    def test_every_component_kind_recovers(self):
        for component in ("link", "rack", "switch"):
            net_probe = build_net(seed=11)
            sched = FailureSchedule.random(
                net_probe.network.n_racks,
                net_probe.network.n_switches,
                component,
                0.25,
                self.INJECT_PS,
                random.Random(5),
            )
            run = fault_workload(sched)
            stats = run["net"].stats
            wedged = [
                fid
                for fid in stats.affected_flows - stats.unrecoverable_flows
                if not stats.flows[fid].complete
            ]
            assert wedged == [], component
            assert stats.recovery_time_ps(self.INJECT_PS) is not None, component

    def test_slice_parking_defers_routeless_packets(self):
        # Under a heavy link draw some slices lose every surviving path
        # for some pair; the ToR parks those packets one slice instead of
        # dropping them (losses would cost a full timeout round-trip).
        run = fault_workload(
            self._link_schedule(build_net(seed=11), fraction=0.4)
        )
        ctx = run["net"].faults.ctx
        assert ctx.slice_parks > 0
        stats = run["net"].stats
        wedged = [
            fid
            for fid in stats.affected_flows - stats.unrecoverable_flows
            if not stats.flows[fid].complete
        ]
        assert wedged == []

    def test_isolated_rack_is_written_off_not_wedged(self):
        # Every uplink of rack 3 fails: the rack is alive but unreachable
        # in every slice. Flows into it must be classified unrecoverable
        # (stopping the NDP retry loop), and live pairs stay unaffected.
        net = build_net()
        n_sw = net.network.n_switches
        fs = FailureSet(links=frozenset((3, w) for w in range(n_sw)))
        injector = net.install_failures(
            FailureSchedule.fail_set(fs, at_ps=1_000_000)
        )
        hpr = net.network.hosts_per_rack
        net.start_low_latency_flow(0, 3 * hpr, 200_000, 6 * MS)
        net.start_low_latency_flow(1, 5 * hpr, 200_000, 6 * MS)
        net.run(until_ps=40 * MS)
        stats = net.stats
        dead, live = stats.flows[1], stats.flows[2]
        assert not dead.complete and dead.flow_id in stats.unrecoverable_flows
        assert live.complete and live.flow_id not in stats.affected_flows
        # The retry clock drained: written-off flows are not re-probed.
        assert not injector.ndp._pending and not injector.ndp._armed

    def test_ci_scale_stranded_relay_is_reshipped(self):
        # Regression: the forced-relay pass used to run inside _fill_vlb's
        # local-backlog loop, which early-returns once no offloadable
        # backlog remains — so a capable spare circuit appearing *after*
        # that return never shipped stranded relay traffic, wedging one
        # bulk flow forever in the ci-scale links@25% cell. The pass now
        # covers every spare circuit before the backlog loop.
        from repro.experiments.fig11_dynamic import run_cell, shards

        cell = next(
            c
            for c in shards(fractions=(0.25,), scale="ci")
            if c.key.startswith("links")
        )
        row = run_cell(**cell.params)
        assert row.wedged == 0
        assert row.completed == row.n_flows

    def test_dead_tor_relay_data_is_unrecoverable(self):
        net_probe = build_net(seed=11)
        sched = FailureSchedule.random(
            net_probe.network.n_racks,
            0,
            "rack",
            0.25,
            self.INJECT_PS,
            random.Random(9),
        )
        run = fault_workload(sched)
        stats = run["net"].stats
        dead_racks = sched.final_failure_set().racks
        assert dead_racks
        hpr = run["net"].network.hosts_per_rack
        for rec in stats.flows.values():
            if rec.complete:
                continue
            endpoint_dead = (
                rec.src_host // hpr in dead_racks
                or rec.dst_host // hpr in dead_racks
            )
            # Every incomplete flow is explained: dead endpoint or
            # payload destroyed inside a dead ToR's relay queues.
            assert rec.flow_id in stats.unrecoverable_flows
            if not endpoint_dead:
                assert rec.flow_id in run["injector"]._lost_data_flows


# ---------------------------------------------------------------------------
# Invisibility: armed-but-empty == uninstalled; py == c under failures
# ---------------------------------------------------------------------------


class TestArmedButEmptyIdentity:
    def test_bitwise_identical_to_uninstalled(self):
        plain = observables(fault_workload(None))
        armed = observables(fault_workload(FailureSchedule.empty()))
        assert armed == plain

    @requires_c
    def test_bitwise_identical_under_compiled_kernel(self):
        plain = observables(fault_workload(None, kernel="c"))
        armed = observables(fault_workload(FailureSchedule.empty(), kernel="c"))
        assert armed == plain


@requires_c
class TestKernelIdentityUnderFailures:
    def _schedule(self):
        return FailureSchedule.random(
            8, 4, "link", 0.25, int(0.5 * MS), random.Random(3)
        )

    def test_py_c_bitwise_under_active_failures(self):
        py = observables(fault_workload(self._schedule(), kernel="py"))
        ck = observables(fault_workload(self._schedule(), kernel="c"))
        assert ck == py
        assert py["blackholed_packets"] > 0  # the differential is not vacuous

    def test_py_c_bitwise_across_combos(self):
        # The other failure classes, and a draw that is repaired mid-run.
        for component, repair_ps in (
            ("rack", None),
            ("switch", None),
            ("link", int(4.0 * MS)),
        ):

            def schedule():
                return FailureSchedule.random(
                    8,
                    4,
                    component,
                    0.25,
                    int(0.5 * MS),
                    random.Random(3),
                    repair_at_ps=repair_ps,
                )

            py = observables(fault_workload(schedule(), kernel="py"))
            ck = observables(fault_workload(schedule(), kernel="c"))
            assert ck == py, (component, repair_ps)
            assert py["blackholed_packets"] > 0, (component, repair_ps)


# ---------------------------------------------------------------------------
# Satellite: packet-engine reachability == static analysis reachability
# ---------------------------------------------------------------------------


class TestDifferentialReachability:
    def test_steady_state_completion_matches_any_slice_reachable(self):
        # A draw guaranteed to partition rack 3 (every uplink dead) plus a
        # random sprinkle of other dead fibers; one LL flow per rack pair,
        # started after detection settles. The engine must complete
        # exactly the statically reachable pairs and write off the rest.
        net = build_net()
        n_racks = net.network.n_racks
        n_sw = net.network.n_switches
        rng = random.Random(17)
        fs = FailureSet(
            links=frozenset((3, w) for w in range(n_sw))
        ).union(FailureSet.random_links(n_racks, n_sw, 0.2, rng))
        net.install_failures(FailureSchedule.fail_set(fs, at_ps=1_000_000))
        routing = OperaRouting(net.network.schedule, fs)

        hpr = net.network.hosts_per_rack
        flow_pairs = {}
        fid = 0
        for src in range(n_racks):
            for dst in range(n_racks):
                if src == dst:
                    continue
                fid += 1
                flow_pairs[fid] = (src, dst)
                net.start_low_latency_flow(
                    src * hpr, dst * hpr, 60_000, 6 * MS
                )
        net.run(until_ps=120 * MS)

        stats = net.stats
        for flow_id, (src, dst) in flow_pairs.items():
            rec = stats.flows[flow_id]
            reachable = routing.any_slice_reachable(src, dst)
            assert rec.complete == reachable, (src, dst)
            if not reachable:
                assert flow_id in stats.unrecoverable_flows, (src, dst)
        # The run is differential in both directions.
        assert any(
            not routing.any_slice_reachable(s, d)
            for s, d in flow_pairs.values()
        )
        assert any(
            routing.any_slice_reachable(s, d) for s, d in flow_pairs.values()
        )

    def test_partitioned_fraction_consistent_with_static_report(self):
        # The all-slice-partitioned pairs the engine writes off are a
        # subset of the static report's any-slice-disconnected pairs.
        from repro.analysis.failures import opera_failure_report

        net = build_net()
        n_racks = net.network.n_racks
        n_sw = net.network.n_switches
        fs = FailureSet(
            links=frozenset((3, w) for w in range(n_sw))
        ).union(FailureSet.random_links(n_racks, n_sw, 0.2, random.Random(17)))
        routing = OperaRouting(net.network.schedule, fs)
        report = opera_failure_report(net.network.schedule, fs)
        pairs = [
            (a, b)
            for a in range(n_racks)
            for b in range(a + 1, n_racks)
            if a not in fs.racks and b not in fs.racks
        ]
        partitioned = sum(
            1 for a, b in pairs if not routing.any_slice_reachable(a, b)
        )
        assert partitioned > 0
        assert partitioned / len(pairs) <= report.any_slice_loss + 1e-12
