"""Sharded scenario execution: portable encoding, plans, differential
equivalence, cost-ordered scheduling, and cache-granular resumption.

The load-bearing guarantees:

* ``from_portable(to_portable(v)) == v`` for every experiment result type
  (cells travel and cache through this encoding);
* a sharded run — in-process, pooled, or restored from the cell cache —
  produces bit-identical results to the scenario's own unsharded ``run()``;
* deleting a subset of cell cache entries re-executes exactly the missing
  cells and reproduces the identical merged payload.
"""

import dataclasses
import math

import pytest

from repro.experiments.fctsim import (
    NETWORK_COST_WEIGHT,
    FctResult,
    adaptive_cell_cost,
    fct_cell_cost,
)
from repro.scenarios import (
    Cell,
    EncodeError,
    Progress,
    ResultCache,
    Runner,
    ScenarioExecutionError,
    calibrate_costs,
    derive_cell_seed,
    from_portable,
    get,
    scenario,
    to_portable,
    validate_plan,
)

#: A fig07 configuration small enough for unit tests (4 packet cells of a
#: quarter-horizon 8-rack run each).
TINY_FIG07 = {
    "loads": (0.02, 0.05),
    "networks": ("opera", "rotornet"),
    "duration_ms": 0.4,
    "scale": "ci",
}


# ----------------------------------------------------------------- encoding


class TestPortableEncoding:
    def test_scalars_and_containers_roundtrip(self):
        for value in (
            None,
            True,
            42,
            0.1,
            "text",
            [1, [2, "x"], None],
            (1, (2, 3), "y"),
            {"a": 1, "b": (2, 3)},
            {(0, 10_000): (1.5, None), (10_000, 100_000): (2.5, 3.5)},
            {1, 2, 3},
            frozenset({"a", "b"}),
            range(0, 108, 4),
        ):
            assert from_portable(to_portable(value)) == value

    def test_types_survive_exactly(self):
        value = {"t": (1, 2), "l": [1, 2], "s": {3}, "f": frozenset({4})}
        decoded = from_portable(to_portable(value))
        assert isinstance(decoded["t"], tuple)
        assert isinstance(decoded["l"], list)
        assert isinstance(decoded["s"], set)
        assert isinstance(decoded["f"], frozenset)

    def test_dataclass_roundtrip(self):
        result = FctResult(
            network="opera",
            load=0.1,
            n_flows=50,
            completed=48,
            buckets={(0, 10_000): (12.5, 30.0), (10_000, 100_000): (None, None)},
        )
        decoded = from_portable(to_portable(result))
        assert isinstance(decoded, FctResult)
        assert decoded == result
        assert decoded.buckets[(0, 10_000)] == (12.5, 30.0)

    def test_marker_keys_are_escaped(self):
        # A plain dict whose key collides with the encoding's own markers
        # must not be misread as structure.
        tricky = {"__tuple__": [1, 2], "plain": 3}
        assert from_portable(to_portable(tricky)) == tricky

    def test_unportable_raises(self):
        with pytest.raises(EncodeError):
            to_portable(object())

    def test_non_dataclass_import_path_rejected(self):
        with pytest.raises(EncodeError):
            from_portable({"__dataclass__": "os:getcwd", "fields": {}})


# -------------------------------------------------------------------- plans


class TestShardPlans:
    def test_fig07_plan_covers_the_grid(self):
        plan = get("fig07").shard_plan(**get("fig07").bind({}))
        assert len(plan) == 15  # 5 networks x 3 loads
        keys = [cell.key for cell in plan]
        assert keys[0] == "opera@0.01" and "clos@0.25" in keys
        assert len(set(keys)) == len(keys)

    def test_cell_seeds_are_hash_derived_and_independent(self):
        plan = get("fig07").shard_plan(**get("fig07").bind({}))
        seeds = {cell.key: cell.params["seed"] for cell in plan}
        assert seeds["opera@0.01"] == derive_cell_seed(0, "fig07", "opera@0.01")
        assert len(set(seeds.values())) == len(seeds)  # no stream sharing
        # The seed depends only on (base seed, scenario, key) — not on
        # which other cells exist.
        small = get("fig07").shard_plan(
            **get("fig07").bind({"loads": (0.01,), "networks": ("opera",)})
        )
        assert small[0].params["seed"] == seeds["opera@0.01"]

    def test_cell_costs_follow_scale_network_load(self):
        assert fct_cell_cost("paper", "clos", 0.25, 4.0) > fct_cell_cost(
            "default", "clos", 0.25, 4.0
        )
        assert fct_cell_cost("default", "clos", 0.1, 4.0) > fct_cell_cost(
            "default", "opera", 0.1, 4.0
        )
        assert fct_cell_cost("default", "opera", 0.25, 4.0) > fct_cell_cost(
            "default", "opera", 0.01, 4.0
        )
        assert set(NETWORK_COST_WEIGHT) == {
            "opera", "expander", "clos", "rotornet-hybrid", "rotornet"
        }

    def test_all_grid_scenarios_declare_shards(self):
        for name in ("fig07", "fig09", "fig10", "fig11", "ablation_grouping",
                     "ablation_guard_bands", "ablation_vlb"):
            sc = get(name)
            assert sc.shardable, name
            plan = sc.shard_plan(**sc.bind({}))
            assert len(plan) > 1, name

    def test_validate_plan_rejects_bad_plans(self):
        with pytest.raises(ValueError, match="no cells"):
            validate_plan("x", [])
        with pytest.raises(ValueError, match="duplicate"):
            validate_plan("x", [Cell("a"), Cell("a")])
        with pytest.raises(ValueError, match="non-positive"):
            validate_plan("x", [Cell("a", cost=0.0)])
        with pytest.raises(ValueError, match="JSON-able"):
            validate_plan("x", [Cell("a", params={"obj": object()})])
        with pytest.raises(TypeError, match="must return Cells"):
            validate_plan("x", ["a"])

    def test_decorator_requires_all_three_hooks(self, scratch_registry):
        with pytest.raises(ValueError, match="declared together"):
            scenario("half-sharded", shards="shards")


# ------------------------------------------------------------- differential


class TestShardedMatchesUnsharded:
    """The acceptance property: sharded == pooled == in-process, bitwise."""

    def test_fig07_in_process_sharded_matches_plain_run(self, tmp_path):
        plain = Runner(cache=None).execute("fig07", **TINY_FIG07)
        sharded = Runner(cache=ResultCache(tmp_path)).run(
            names=["fig07"], overrides=TINY_FIG07
        )[0]
        assert sharded.cells == (4, 0, 4)
        assert sharded.value == plain
        # Per-bucket means/p99s and flow counts, exactly.
        for ours, theirs in zip(sharded.value, plain):
            assert ours.buckets == theirs.buckets
            assert (ours.n_flows, ours.completed) == (
                theirs.n_flows, theirs.completed
            )

    def test_fig07_pooled_matches_plain_run(self, tmp_path):
        plain = Runner(cache=None).execute("fig07", **TINY_FIG07)
        pooled = Runner(workers=2, cache=ResultCache(tmp_path)).run(
            names=["fig07"], overrides=TINY_FIG07
        )[0]
        assert pooled.value == plain
        serial = Runner(cache=None).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert pooled.payload == serial.payload
        assert pooled.rows == serial.rows

    def test_fig11_sharded_matches_plain_run(self):
        params = {"n_racks": 24, "fractions": (0.1, 0.4), "slice_stride": 12}
        plain = Runner(cache=None).execute("fig11", **params)
        sharded = Runner(cache=None).run(names=["fig11"], overrides=params)[0]
        assert sharded.cells == (6, 0, 6)
        assert sharded.value == plain

    def test_ablation_sharded_matches_plain_run(self):
        params = {"groups": (12, 6)}
        plain = Runner(cache=None).execute("ablation_grouping", **params)
        sharded = Runner(cache=None).run(
            names=["ablation_grouping"], overrides=params
        )[0]
        assert sharded.value == plain
        assert [row["group"] for row in sharded.value] == [12, 6]


# ------------------------------------------------------------ adaptive costs


class TestAdaptiveCosts:
    def test_calibrate_no_history_is_identity(self):
        static = {"a": 4.0, "b": 1.0}
        assert calibrate_costs(static, {}) == static
        assert calibrate_costs(static, {"a": 0.0}) == static

    def test_calibrate_full_history_orders_by_recorded(self):
        # Static says a >> b, recorded wall clocks say otherwise: the
        # blended costs must follow the measurements.
        blended = calibrate_costs({"a": 4.0, "b": 1.0}, {"a": 1.0, "b": 9.0})
        assert blended["b"] > blended["a"]
        # Total mass is preserved by the calibration fit.
        assert sum(blended.values()) == pytest.approx(5.0)

    def test_calibrate_partial_history_stays_comparable(self):
        # 'c' has no history; its static estimate must survive on a scale
        # comparable with the history-backed entries.
        blended = calibrate_costs(
            {"a": 2.0, "b": 2.0, "c": 5.0}, {"a": 10.0, "b": 30.0}
        )
        assert blended["c"] == 5.0
        assert blended["b"] == pytest.approx(3.0)  # 30s at 10s/unit
        assert blended["a"] == pytest.approx(1.0)
        assert blended["b"] > blended["a"]

    def test_calibrate_non_finite_recorded_is_no_history(self):
        # A corrupted duration (inf/NaN telemetry) must not poison the
        # fit: the key falls back to its static estimate and every
        # calibrated cost stays finite (they feed progress ETAs).
        static = {"a": 4.0, "b": 1.0, "c": 2.0}
        for bad in (math.inf, -math.inf, math.nan):
            blended = calibrate_costs(static, {"a": bad, "b": 9.0})
            assert blended["a"] == 4.0
            assert all(math.isfinite(v) for v in blended.values())

    def test_calibrate_all_history_non_finite_is_identity(self):
        static = {"a": 4.0, "b": 1.0}
        assert calibrate_costs(static, {"a": math.inf, "b": math.nan}) == static

    def test_calibrate_non_finite_static_key_excluded_from_fit(self):
        # A non-finite *static* estimate cannot participate in the
        # seconds-per-unit fit; the finite keys must calibrate as if it
        # were absent.
        blended = calibrate_costs(
            {"a": 2.0, "b": 2.0, "x": math.inf}, {"a": 10.0, "b": 30.0, "x": 5.0}
        )
        assert blended["a"] == pytest.approx(1.0)
        assert blended["b"] == pytest.approx(3.0)
        assert blended["x"] == math.inf  # kept as-is, not blended

    def test_adaptive_cell_cost_falls_back_to_static(self):
        static = fct_cell_cost("default", "opera", 0.1, 4.0)
        assert adaptive_cell_cost("default", "opera", 0.1, 4.0) == static
        assert (
            adaptive_cell_cost("default", "opera", 0.1, 4.0, history={})
            == static
        )
        # History for *other* cells only: this cell keeps its static
        # estimate (calibrated statics preserve no-history entries).
        adapted = adaptive_cell_cost(
            "default", "opera", 0.1, 4.0, history={"clos@0.25": 60.0}
        )
        assert adapted == static

    def test_adaptive_cell_cost_prefers_recorded_ordering(self):
        # Static weights say rotornet is the cheapest network, but the
        # recorded durations say its cells run *longest*: adaptive costs
        # must flip the ordering.
        history = {"rotornet@0.1": 50.0, "opera@0.1": 1.0}
        rotor = adaptive_cell_cost("default", "rotornet", 0.1, 4.0, history)
        opera = adaptive_cell_cost("default", "opera", 0.1, 4.0, history)
        assert fct_cell_cost("default", "rotornet", 0.1, 4.0) < fct_cell_cost(
            "default", "opera", 0.1, 4.0
        )
        assert rotor > opera

    #: Fabricated history: rotornet@0.02 dominates the wall clock, the
    #: exact inverse of the static model's ranking.
    FAKE_DURATIONS = {
        "rotornet@0.02": 500.0,
        "rotornet@0.05": 40.0,
        "opera@0.05": 20.0,
        "opera@0.02": 10.0,
    }

    def _put_history(self, cache, mutate=None):
        # History documents must be params-comparable with the coming
        # run: same cell params up to the seed (a prior run of the same
        # shape under a different base seed).
        sc = get("fig07")
        plan = sc.shard_plan(**sc.bind(TINY_FIG07))
        for cell in plan:
            params = dict(cell.params, seed=cell.params["seed"] + 1)
            if mutate:
                params = mutate(params)
            cache.put_cell(
                "fig07",
                cell.key,
                params,
                {"scenario": "fig07", "cell": cell.key, "params": params,
                 "value": None, "duration_s": self.FAKE_DURATIONS[cell.key]},
            )

    def test_runner_orders_by_recorded_durations(self, tmp_path):
        # The Runner must schedule by the fabricated history even though
        # the static model ranks rotornet last (see
        # TestCostOrderedScheduling.test_expensive_cells_run_first).
        cache = ResultCache(tmp_path)
        self._put_history(cache)
        seen: list[Progress] = []
        Runner(cache=cache, progress=seen.append).run(
            names=["fig07"], overrides=TINY_FIG07
        )
        labels = [p.label for p in seen]
        assert labels[0] == "fig07:rotornet@0.02"
        assert labels == [
            f"fig07:{k}"
            for k in sorted(
                self.FAKE_DURATIONS, key=self.FAKE_DURATIONS.get, reverse=True
            )
        ]

    def test_incomparable_history_is_ignored(self, tmp_path):
        # Same cell keys, different shape (another duration_ms): ci-scale
        # telemetry from a different horizon must not misorder this run —
        # static ordering prevails.
        cache = ResultCache(tmp_path)
        self._put_history(
            cache, mutate=lambda p: dict(p, duration_ms=p["duration_ms"] * 8)
        )
        seen: list[Progress] = []
        Runner(cache=cache, progress=seen.append).run(
            names=["fig07"], overrides=TINY_FIG07
        )
        labels = [p.label for p in seen]
        assert labels[0] == "fig07:opera@0.05"
        assert labels[-1] == "fig07:rotornet@0.02"

    def test_poisoned_history_keeps_eta_finite(self, tmp_path):
        # An inf duration in the cell telemetry (clock glitch, corrupted
        # cache row) used to propagate NaN through calibrate_costs into
        # total_cost and from there into the progress ETA. It must now be
        # treated as no-history: the run completes, ordering still works,
        # and every reported ETA is either unknown or finite and >= 0.
        cache = ResultCache(tmp_path)
        self._put_history(cache)
        sc = get("fig07")
        plan = sc.shard_plan(**sc.bind(TINY_FIG07))
        cell = plan[0]
        params = dict(cell.params, seed=cell.params["seed"] + 1)
        cache.put_cell(
            "fig07",
            cell.key,
            params,
            {"scenario": "fig07", "cell": cell.key, "params": params,
             "value": None, "duration_s": math.inf},
        )
        seen: list[Progress] = []
        Runner(cache=cache, progress=seen.append).run(
            names=["fig07"], overrides=TINY_FIG07
        )
        assert len(seen) == 4
        for p in seen:
            assert p.eta_s is None or (
                math.isfinite(p.eta_s) and p.eta_s >= 0.0
            )


# --------------------------------------------------- scheduling and progress


class TestCostOrderedScheduling:
    def test_expensive_cells_run_first(self, tmp_path):
        seen: list[Progress] = []
        runner = Runner(cache=ResultCache(tmp_path), progress=seen.append)
        runner.run(names=["fig07"], overrides=TINY_FIG07)
        labels = [p.label for p in seen]
        assert len(labels) == 4
        # Highest estimated cost first: the 5% cells lead their 2%
        # siblings, and rotornet's 0.4x weight sinks it below opera at
        # equal load.
        assert labels[0] == "fig07:opera@0.05"
        assert labels[-1] == "fig07:rotornet@0.02"
        assert labels.index("fig07:opera@0.05") < labels.index(
            "fig07:opera@0.02"
        )
        assert labels.index("fig07:rotornet@0.05") < labels.index(
            "fig07:rotornet@0.02"
        )
        assert seen[-1].done == seen[-1].total == 4
        assert all(p.eta_s is not None for p in seen)

    def test_sweep_points_order_by_estimated_cost(self):
        # All points of one sweep share the scenario's cost hint; the cells
        # they shard into carry real estimates, so the heavier load runs
        # first regardless of grid order.
        seen: list[Progress] = []
        runner = Runner(cache=None, progress=seen.append)
        runner.sweep(
            "fig07",
            {"loads": [(0.02,), (0.05,)]},
            overrides={"networks": ("opera",), "duration_ms": 0.4,
                       "scale": "ci"},
        )
        assert [p.label for p in seen] == [
            "fig07:opera@0.05",
            "fig07:opera@0.02",
        ]

    def test_shared_cells_run_once_per_batch(self, tmp_path):
        # Two sweep points whose plans overlap (both contain opera@0.02)
        # must execute the shared cell once and fan its value out.
        seen: list[Progress] = []
        runner = Runner(cache=ResultCache(tmp_path), progress=seen.append)
        results = runner.sweep(
            "fig07",
            {"networks": [("opera",), ("opera", "rotornet")]},
            overrides={"loads": (0.02,), "duration_ms": 0.4, "scale": "ci"},
        )
        labels = sorted(p.label for p in seen)
        assert labels == ["fig07:opera@0.02", "fig07:rotornet@0.02"]
        assert results[0].cells == (1, 0, 1)
        assert results[1].cells == (2, 0, 2)
        # The shared cell's value is identical in both merges.
        assert results[0].payload[0] == results[1].payload[0]

    def test_full_cache_hit_skips_all_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run(names=["fig07"], overrides=TINY_FIG07)
        seen: list[Progress] = []
        warm = Runner(cache=cache, progress=seen.append).run(
            names=["fig07"], overrides=TINY_FIG07
        )[0]
        assert warm.cached is True
        assert seen == []


# --------------------------------------------------------------- resumption


class TestResumption:
    def _run(self, cache, progress=None):
        return Runner(cache=cache, progress=progress).run(
            names=["fig07"], overrides=TINY_FIG07
        )[0]

    def test_interrupted_sweep_resumes_from_completed_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._run(cache)
        assert first.cells == (4, 0, 4)

        # Simulate a killed run: the merged document never landed, and a
        # strict subset of cell entries is gone.
        sc = get("fig07")
        params = sc.bind(TINY_FIG07)
        cache.path("fig07", params).unlink()
        plan = sc.shard_plan(**params)
        dropped = [plan[0], plan[3]]
        for cell in dropped:
            cache.cell_path("fig07", cell.key, cell.params).unlink()

        seen: list[Progress] = []
        second = self._run(cache, progress=seen.append)
        # Exactly the missing cells executed...
        executed = {p.label.split(":", 1)[1] for p in seen}
        assert executed == {cell.key for cell in dropped}
        assert second.cells == (2, 2, 4)
        # ...and the merged result is bit-identical to the uninterrupted run.
        assert second.payload == first.payload
        assert second.rows == first.rows
        assert second.value == first.value

    def test_dropping_all_cells_recomputes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._run(cache)
        cache.clear("fig07")
        seen: list[Progress] = []
        second = self._run(cache, progress=seen.append)
        assert len(seen) == 4
        assert second.payload == first.payload

    def test_no_cache_mode_still_writes_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(cache=cache, use_cache=False)
        runner.run(names=["fig07"], overrides=TINY_FIG07)
        sc = get("fig07")
        params = sc.bind(TINY_FIG07)
        for cell in sc.shard_plan(**params):
            assert cache.cell_path("fig07", cell.key, cell.params).is_file()


# ----------------------------------------------------------------- failures


def _shards_two(x: int = 1):
    return [
        Cell("ok", params={"variant": "ok", "x": x}),
        Cell("boom", params={"variant": "boom", "x": x}),
    ]


def _cell_two(variant: str, x: int) -> int:
    if variant == "boom":
        raise RuntimeError("cell exploded")
    return x * 2


def _merge_two(values, **_params):
    return values


def _shards_bad_value(x: int = 1):
    return [Cell("only", params={})]


def _cell_bad_value():
    return object()  # not portable -> cell-level execution error


class TestCellFailures:
    def test_cell_failure_carries_cell_context(self, scratch_registry, tmp_path):
        @scenario("twocell", title="one good one bad cell",
                  shards="_shards_two", cell="_cell_two", merge="_merge_two")
        def run(x: int = 1):
            return _merge_two([_cell_two(**c.params) for c in _shards_two(x)])

        cache = ResultCache(tmp_path)
        with pytest.raises(ScenarioExecutionError, match=r"twocell\[boom\]") as err:
            Runner(cache=cache).run(names=["twocell"])
        assert "cell exploded" in err.value.worker_traceback
        # The sibling cell's work survived the batch failure.
        assert cache.get_cell("twocell", "ok", {"variant": "ok", "x": 1})

    def test_unportable_cell_value_is_an_execution_error(self, scratch_registry):
        @scenario("badcell", title="cell value not portable",
                  shards="_shards_bad_value", cell="_cell_bad_value",
                  merge="_merge_two")
        def run(x: int = 1):
            return None

        with pytest.raises(ScenarioExecutionError, match="badcell"):
            Runner(cache=None).run(names=["badcell"])
