"""Bursts of events dispatch exactly as if scheduled one at a time.

The engine schedules every event as its own heap entry; packing bursts
into shared "train" entries (event coalescing) was removed. What the
train path was held to still holds, and is pinned here on the one path:
a burst of events scheduled back to back from one callback — the shape a
port's control burst produces — dispatches in ``(time, scheduling
order)``, and the trace, ``events_processed`` and ``pending`` do not
depend on whether the run drains in one call or is cut by horizons and
event budgets, nor on the kernel (``REPRO_KERNEL=py`` or ``c``).
"""

import random

import pytest

from repro.net.kernel import compiled_available, engine_classes

KERNELS = ("py", "c") if compiled_available() else ("py",)

#: Drain schedules: horizons and budgets that cut bursts and resume
#: them, a drain in small fixed budgets, and one uncut drain.
DRAINS = {
    "chunked": (
        dict(until_ps=100_000_000, max_events=500),
        dict(until_ps=2_000_000_000),
        dict(max_events=50),
        dict(max_events=3_000),
        dict(),
    ),
    "budgets": (dict(max_events=37),) * 30 + (dict(),),
    "one-shot": (dict(),),
}

COMBOS = [(kernel, drain) for kernel in KERNELS for drain in DRAINS]


def bulk_cascade(kernel: str, drain: str, seed: int, snapshots=None):
    """Seeded self-scheduling storm of bursts; returns every observable.

    Each event schedules a burst of up to three more: same-timestamp
    entries (tie-producing), short and long delays, and far-future ones.
    ``snapshots`` collects ``(chunk, processed, now, events_processed,
    pending, sched_pushes)`` after every ``run`` call of the drain.
    """
    sim = engine_classes(kernel).Simulator()
    rng = random.Random(seed)
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))
        # Subcritical branching (mean < 1) so every cascade dies out.
        k = rng.choices((0, 1, 2, 3), weights=(5, 3, 2, 1))[0]
        for i in range(k):
            delay = rng.choice(
                (
                    0,
                    rng.randrange(1, 80_000),
                    rng.randrange(1, 2_000_000),
                    rng.randrange(1, 5_000_000_000),
                )
            )
            sim.at(sim.now + delay, fire, f"{tag}.{i}")

    for i in range(40):
        sim.at(rng.randrange(0, 50_000_000), fire, str(i))
    for chunk in DRAINS[drain]:
        processed = sim.run(**chunk)
        if snapshots is not None:
            snapshots.append(
                (
                    chunk,
                    processed,
                    sim.now,
                    sim.events_processed,
                    sim.pending,
                    sim.sched_pushes,
                )
            )
    return tuple(trace), sim.now, sim.events_processed, sim.pending


class TestDifferentialCascades:
    @pytest.mark.parametrize("seed", range(15))
    def test_all_combos_trace_identically(self, seed):
        runs = {combo: bulk_cascade(*combo, seed) for combo in COMBOS}
        trace, _now, events, pending = runs["py", "one-shot"]
        assert events == len(trace) > 40 and pending == 0
        for (kernel, drain), run in runs.items():
            # Where a drain is cut never changes what runs, when, or how
            # often; the clock may differ only by idle-advance to a horizon.
            other, now, n, left = run
            assert (other, n, left) == (trace, events, pending), (kernel, drain)
            assert now >= trace[-1][0]
            # Across kernels, the same drain agrees on everything.
            assert run == runs[KERNELS[0], drain], (kernel, drain)

    @pytest.mark.parametrize("seed", range(10))
    def test_pending_and_events_processed_agree_at_every_chunk(self, seed):
        # The accounting observables hold at every chunk boundary, where a
        # budget or horizon may cut a burst: every pushed entry has either
        # run or is pending, and the clock keeps the run contract.
        views = {}
        for kernel in KERNELS:
            snapshots = []
            bulk_cascade(kernel, "chunked", seed, snapshots)
            views[kernel] = snapshots
            for chunk, processed, now, events, pending, pushes in snapshots:
                assert events + pending == pushes, (kernel, chunk)
                until = chunk.get("until_ps")
                budget = chunk.get("max_events")
                if until is not None:
                    assert now <= until, (kernel, chunk)
                    if budget is None or processed < budget:
                        assert now == until, (kernel, chunk)
            assert snapshots[-1][4] == 0
        for kernel, snapshots in views.items():
            assert snapshots == views[KERNELS[0]], kernel


class TestTrainMechanics:
    """A train — events pushed back to back at close times — under the
    run contract, on every kernel."""

    def _sim(self, kernel):
        return engine_classes(kernel).Simulator()

    def test_preempting_event_interleaves_exactly(self):
        # An event scheduled after the train but timed inside it dispatches
        # between the train's events; a later-scheduled tie goes last.
        for kernel in KERNELS:
            sim = self._sim(kernel)
            seen = []
            sim.at(10, seen.append, "t0")
            sim.at(1000, seen.append, "t1")
            sim.at(500, seen.append, "mid")
            sim.at(1000, seen.append, "tie")
            sim.run()
            assert seen == ["t0", "mid", "t1", "tie"], kernel

    def test_budget_cuts_train_and_resumes(self):
        for kernel in KERNELS:
            sim = self._sim(kernel)
            seen = []
            for t in (10, 20, 30):
                sim.at(t, seen.append, t)
            assert sim.run(until_ps=500, max_events=2) == 2
            assert seen == [10, 20]
            assert sim.now == 20  # behind the horizon by design
            assert sim.pending == 1
            assert sim.run(until_ps=500) == 1
            assert seen == [10, 20, 30]
            assert sim.now == 500 and sim.events_processed == 3, kernel

    def test_horizon_cuts_train_and_resumes(self):
        for kernel in KERNELS:
            sim = self._sim(kernel)
            seen = []
            sim.at(10, seen.append, 1)
            sim.at(2_000, seen.append, 2)
            assert sim.run(until_ps=100) == 1
            assert sim.now == 100 and sim.pending == 1
            sim.run()
            assert seen == [1, 2] and sim.now == 2_000, kernel

    def test_pending_is_exact_inside_a_running_train(self):
        # `pending` counts the events still to run while a train's own
        # callbacks execute, not only between run calls.
        for kernel in KERNELS:
            sim = self._sim(kernel)
            seen = []
            for _ in range(3):
                sim.at(5, lambda: seen.append(sim.pending))
            sim.run()
            assert seen == [2, 1, 0], kernel

    def test_budget_exhausted_on_last_train_element_does_not_advance(self):
        # The budget runs out on the train's last event: the clock stays
        # there, and only a later run with budget to spare idles forward.
        for kernel in KERNELS:
            sim = self._sim(kernel)
            sim.at(10, lambda: None)
            sim.at(20, lambda: None)
            assert sim.run(until_ps=500, max_events=2) == 2
            assert sim.now == 20, kernel
            assert sim.run(until_ps=500, max_events=5) == 0
            assert sim.now == 500, kernel


class TestPacketWorkloadDifferential:
    def test_opera_bit_identical_across_all_combos(self, monkeypatch):
        # A full packet workload drained in one call or in 0.25 ms horizon
        # steps, on every kernel: identical observable by observable.
        from test_kernel import packet_workload

        runs = {}
        for kernel in KERNELS:
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            for step_ms in (None, 0.25):
                runs[kernel, step_ms] = packet_workload(step_ms=step_ms)
        baseline = runs[KERNELS[0], None]
        assert baseline["events"] > 10_000 and baseline["fcts"]
        for combo, run in runs.items():
            assert run == baseline, combo
