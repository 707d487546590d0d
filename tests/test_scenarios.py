"""Unit tests for the scenario registry, encoder, cache, and runner."""

import dataclasses
import json
import logging

import pytest

from repro.scenarios import (
    EncodeError,
    Param,
    ResultCache,
    Runner,
    ScenarioError,
    ScenarioExecutionError,
    all_scenarios,
    canonical_json,
    content_hash,
    derive_seed,
    get,
    scenario,
    select,
    to_jsonable,
)


def _exploding_formatter(value):
    """Module-level formatter target for the formatter-crash test."""
    raise KeyError("missing column")


class TestParamCoercion:
    def test_scalars(self):
        assert Param("k", 12).coerce("8") == 8
        assert Param("load", 0.5).coerce("0.25") == 0.25
        assert Param("name", "opera").coerce("clos") == "clos"
        assert Param("flag", False).coerce("true") is True
        assert Param("flag", True).coerce("0") is False

    def test_tuples_take_comma_lists(self):
        assert Param("loads", (0.1, 0.2)).coerce("0.3,0.4") == (0.3, 0.4)
        assert Param("radices", (12, 24)).coerce("8") == (8,)
        assert Param("nets", ("opera",)).coerce("clos,opera") == ("clos", "opera")

    def test_none_default_best_effort(self):
        param = Param("n_slices", None)
        assert param.coerce("27") == 27
        assert param.coerce("none") is None
        assert param.coerce("1.5") == 1.5

    def test_bad_values_raise_scenario_error(self):
        with pytest.raises(ScenarioError, match="n_racks"):
            Param("n_racks", 108).coerce("many")
        with pytest.raises(ScenarioError, match="flag"):
            Param("flag", True).coerce("maybe")


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = {sc.name for sc in all_scenarios()}
        assert {"fig04", "fig07", "fig16", "fig18", "table1", "table2"} <= names
        assert {
            "ablation_grouping",
            "ablation_guard_bands",
            "ablation_vlb",
        } <= names
        assert "fig11_dynamic" in names
        assert len(names) == 20

    def test_schema_from_signature_with_registry_defaults(self):
        sc = get("fig04")
        assert sc.params["k"].default == 12
        # The registry default (27) intentionally diverges from the
        # function's own default (None = all slices).
        assert sc.params["n_slices"].default == 27

    def test_select_by_name_glob_and_tag(self):
        assert [sc.name for sc in select(names=["fig04"])] == ["fig04"]
        assert {sc.name for sc in select(names=["table*"])} == {"table1", "table2"}
        analysis = {sc.name for sc in select(tags=["analysis"])}
        assert "fig04" in analysis and "fig07" not in analysis
        with pytest.raises(ScenarioError, match="unknown scenario"):
            select(names=["fig99"])
        with pytest.raises(ScenarioError, match="unknown tag"):
            select(tags=["nope"])

    def test_decorator_registers_and_validates(self, scratch_registry):
        @scenario("tiny", tags=("analysis",), cost="cheap", title="tiny demo")
        def run(x: int = 2, y: int = 3):
            return {"product": x * y}

        sc = get("tiny")
        assert sc.description == "tiny demo"
        assert sc.bind({"x": "5"}) == {"x": 5, "y": 3}
        with pytest.raises(ScenarioError, match="no parameter"):
            sc.bind({"z": 1})
        assert sc.format(run()) == [repr({"product": 6})]  # no format_rows

    def test_decorator_rejects_undefaulted_params(self, scratch_registry):
        with pytest.raises(ValueError, match="fully defaulted"):
            @scenario("bad")
            def run(x):  # pragma: no cover - registration fails
                return x

    def test_decorator_rejects_unknown_cost_and_defaults(self, scratch_registry):
        with pytest.raises(ValueError, match="cost hint"):
            scenario("bad", cost="enormous")
        with pytest.raises(ValueError, match="unknown"):
            @scenario("bad2", defaults={"zz": 1})
            def run(x: int = 1):  # pragma: no cover
                return x


class TestEncode:
    def test_dataclass_and_odd_keys(self):
        @dataclasses.dataclass
        class Point:
            x: int
            tags: tuple

        value = {"pt": Point(1, ("a", "b")), "hist": {3: 4, 5: 6}}
        encoded = to_jsonable(value)
        assert encoded == {
            "pt": {"x": 1, "tags": ["a", "b"]},
            "hist": {"__pairs__": [[3, 4], [5, 6]]},
        }
        json.dumps(encoded)  # actually JSON-encodable

    def test_unencodable_raises(self):
        with pytest.raises(EncodeError):
            to_jsonable(object())

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": (1, 2)})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert content_hash({"b": 1, "a": (1, 2)}) == content_hash(
            {"a": [1, 2], "b": 1}
        )


class TestResultCache:
    def test_roundtrip_and_keying(self, tmp_path):
        cache = ResultCache(tmp_path)
        doc = {"rows": ["r1"], "payload": {"v": 1}}
        cache.put("fig06", {"n_racks": 108}, doc)
        assert cache.get("fig06", {"n_racks": 108}) == doc
        assert cache.get("fig06", {"n_racks": 216}) is None
        assert cache.path("fig06", {"n_racks": 108}).parent.name == "fig06"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", {}, {"rows": []})
        cache.path("fig06", {}).write_text("{not json")
        assert cache.get("fig06", {}) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig06", {}, {"rows": []})
        cache.put("table1", {}, {"rows": []})
        assert cache.clear("fig06") == 1
        assert cache.get("fig06", {}) is None
        assert cache.get("table1", {}) is not None
        assert cache.clear() == 1

    def test_env_var_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultCache().root == tmp_path / "envcache"

    def test_run_file_stats_and_gc(self, tmp_path):
        import os
        import time

        from repro.scenarios.cache import STALE_RUN_FILE_S

        cache = ResultCache(tmp_path)
        assert cache.run_file_stats() == {}
        (tmp_path / "_journal").mkdir()
        (tmp_path / "_trace").mkdir()
        fresh = tmp_path / "_journal" / "fresh.jsonl"
        stale = tmp_path / "_trace" / "stale.jsonl"
        fresh.write_text('{"ev": "start"}\n')
        stale.write_text('{"ev": "start"}\n')
        old = time.time() - STALE_RUN_FILE_S - 24 * 3600
        os.utime(stale, (old, old))
        stats = cache.run_file_stats()
        assert stats["_journal"]["files"] == 1
        assert stats["_trace"]["oldest_age_s"] > STALE_RUN_FILE_S
        # Age-bounded GC takes only the stale file; unbounded takes all.
        assert cache.gc_run_files(STALE_RUN_FILE_S) == 1
        assert fresh.exists() and not stale.exists()
        assert cache.gc_run_files() == 1
        assert not fresh.exists()

    def test_scenario_scoped_clear_gcs_stale_run_files(self, tmp_path):
        import os
        import time

        from repro.scenarios.cache import STALE_RUN_FILE_S

        cache = ResultCache(tmp_path)
        cache.put("fig06", {}, {"rows": []})
        (tmp_path / "_journal").mkdir()
        stale = tmp_path / "_journal" / "old-run.jsonl"
        fresh = tmp_path / "_journal" / "live-run.jsonl"
        stale.write_text("{}\n")
        fresh.write_text("{}\n")
        old = time.time() - STALE_RUN_FILE_S - 24 * 3600
        os.utime(stale, (old, old))
        # Scenario-scoped: the entry goes by name, run files only by age
        # (a fresh journal may belong to someone else's live run).
        assert cache.clear("fig06") == 2
        assert not stale.exists() and fresh.exists()
        # Root-wide clear removes run files regardless of age.
        assert cache.clear() == 1
        assert not fresh.exists()


class TestRunner:
    def test_in_process_run_keeps_raw_value(self):
        res = Runner(cache=None).run(names=["fig06"])[0]
        assert res.cached is False
        assert isinstance(res.value, dict) and res.value["cycle_slices"] == 108
        assert any("cycle" in row for row in res.rows)

    def test_cache_hit_and_no_cache_refresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = Runner(cache=cache).run(names=["fig06"])[0]
        second = Runner(cache=cache).run(names=["fig06"])[0]
        assert (first.cached, second.cached) == (False, True)
        assert second.rows == first.rows and second.payload == first.payload
        # --no-cache semantics: reads skipped, result still stored.
        third = Runner(cache=cache, use_cache=False).run(names=["fig06"])[0]
        assert third.cached is False

    def test_worker_pool_matches_in_process(self, tmp_path):
        serial = Runner(cache=None).run(names=["fig06", "table2"])
        pooled = Runner(workers=2, cache=ResultCache(tmp_path)).run(
            names=["fig06", "table2"]
        )
        assert [r.name for r in pooled] == ["fig06", "table2"]  # input order
        for s, p in zip(serial, pooled):
            assert p.rows == s.rows and p.payload == s.payload
        # The pooled run populated the cache for both scenarios.
        warm = Runner(workers=2, cache=ResultCache(tmp_path)).run(
            names=["fig06", "table2"]
        )
        assert all(r.cached for r in warm)

    def test_overrides_apply_loosely_across_selection(self):
        results = Runner(cache=None).run(
            names=["fig06", "table2"], overrides={"n_racks": "216"}
        )
        by_name = {r.name: r for r in results}
        assert by_name["fig06"].params["n_racks"] == 216
        assert "n_racks" not in by_name["table2"].params
        with pytest.raises(ScenarioError, match="no selected scenario"):
            Runner(cache=None).run(names=["fig06"], overrides={"bogus": "1"})

    def test_base_seed_derives_stable_per_scenario_seeds(self):
        jobs = Runner(cache=None, base_seed=42).resolve(names=["fig04", "fig16"])
        seeds = {job.scenario.name: job.params["seed"] for job in jobs}
        assert seeds["fig04"] == derive_seed(42, "fig04")
        assert seeds["fig16"] == derive_seed(42, "fig16")
        assert seeds["fig04"] != seeds["fig16"]
        # An explicit override beats derivation.
        jobs = Runner(cache=None, base_seed=42).resolve(
            names=["fig04"], overrides={"seed": "5"}
        )
        assert jobs[0].params["seed"] == 5

    def test_sweep_runs_the_grid(self, tmp_path):
        results = Runner(cache=ResultCache(tmp_path)).sweep(
            "fig06", {"n_racks": [108, 216], "n_switches": [6]}
        )
        assert [(r.params["n_racks"], r.params["n_switches"]) for r in results] == [
            (108, 6),
            (216, 6),
        ]
        assert results[0].value["cycle_slices"] != results[1].value["cycle_slices"]

    def test_execute_validates_and_returns_raw(self):
        data = Runner().execute("fig06", n_racks=216)
        assert data["cycle_slices"] == 216
        with pytest.raises(ScenarioError):
            Runner().execute("fig06", bogus=1)

    def test_failures_carry_scenario_context(self, scratch_registry):
        @scenario("boom", title="always raises")
        def run():
            raise RuntimeError("kaboom")

        with pytest.raises(ScenarioExecutionError, match="boom") as err:
            Runner(cache=None).run(names=["boom"])
        assert "kaboom" in err.value.worker_traceback

    def test_scenario_failure_is_logged_with_label(
        self, scratch_registry, caplog
    ):
        # Trapped scenario exceptions become error docs, but never
        # silently: the runner logs a warning carrying the unit label and
        # the real traceback even when no caller inspects the doc.
        @scenario("boomlog", title="always raises")
        def run():
            raise RuntimeError("kaboom")

        with caplog.at_level(logging.WARNING, logger="repro.scenarios.runner"):
            with pytest.raises(ScenarioExecutionError):
                Runner(cache=None).run(names=["boomlog"])
        records = [
            r for r in caplog.records if "boomlog" in r.getMessage()
        ]
        assert records, "scenario failure was swallowed without a log line"
        assert records[0].exc_info is not None
        assert "kaboom" in str(records[0].exc_info[1])

    def test_cell_failure_is_logged_with_cell_label(self, tmp_path, caplog):
        # Cell failures log scenario *and* cell key (the unit label).
        from repro.scenarios.runner import _execute_cell

        with caplog.at_level(logging.WARNING, logger="repro.scenarios.runner"):
            doc, value = _execute_cell("fig07", "bogus@1.0", {"no_such": 1})
        assert value is None and "error" in doc
        msgs = [r.getMessage() for r in caplog.records]
        assert any("fig07" in m and "bogus@1.0" in m for m in msgs)

    def test_formatter_crash_is_a_scenario_failure(self, scratch_registry):
        # Formatters run inside the execution guard: a formatter bug must
        # surface as ScenarioExecutionError with context, not escape raw.
        @scenario("badfmt", title="formatter raises",
                  formatter="_exploding_formatter")
        def run(x: int = 1):
            return x

        with pytest.raises(ScenarioExecutionError, match="badfmt") as err:
            Runner(cache=None).run(names=["badfmt"])
        assert "missing column" in err.value.worker_traceback

    def test_missing_formatter_falls_back_to_repr(self, scratch_registry):
        @scenario("nofmt", title="no formatter in module",
                  formatter="_no_such_function")
        def run(x: int = 1):
            return x

        assert Runner(cache=None).run(names=["nofmt"])[0].rows == ["1"]

    def test_one_failure_does_not_discard_batch_caching(
        self, scratch_registry, tmp_path
    ):
        calls = {"good": 0}

        @scenario("good", title="succeeds")
        def good():
            calls["good"] += 1
            return {"ok": True}

        @scenario("bad", title="fails")
        def bad():
            raise RuntimeError("nope")

        cache = ResultCache(tmp_path)
        with pytest.raises(ScenarioExecutionError, match="bad"):
            Runner(cache=cache).run(names=["good", "bad"])
        # The success was cached despite the batch failure...
        assert calls["good"] == 1
        res = Runner(cache=cache).run(names=["good"])[0]
        assert res.cached is True
        assert calls["good"] == 1  # ...so it is not recomputed.
