"""End-to-end telemetry: metrics registry, engine drain, sweep tracing,
coordinator status — and the bitwise-invisibility contract.

The load-bearing guarantees:

* a telemetry-armed run produces simulated results bit-identical to a
  telemetry-off run, at the cell level and through the full Runner
  (cached documents included: the metric snapshot is a side channel,
  never cached bytes);
* ``REPRO_KERNEL=py`` and ``=c`` runs of the same cell drain identical
  metric snapshots — the counters live in shared ``__slots__`` both
  kernels write, so equality is by construction;
* every dropped packet is attributed to exactly one cause and the causes
  sum to the total, under both kernels on a faulted run;
* the coordinator's status snapshot answers from cache, and a status
  poller is never mistaken for a worker.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.net.kernel import compiled_available
from repro.obs.metrics import (
    FCT_BUCKET_BOUNDS_US,
    REGISTRY,
    Histogram,
    MetricsRegistry,
    armed,
    drop_cause_totals,
    merge_snapshots,
    validate_snapshot,
)
from repro.obs.trace import (
    TraceWriter,
    Tracer,
    build_spans,
    list_traces,
    load_trace,
    render_trace,
    trace_path,
)
from repro.scenarios import Progress, ResultCache, Runner

requires_c = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled kernel (_ckernel) not built in this environment",
)

MS = 1_000_000_000

#: Same tiny fig07 configuration the sharding/distrib tests pin (4 cells).
TINY_FIG07 = {
    "loads": (0.02, 0.05),
    "networks": ("opera", "rotornet"),
    "duration_ms": 0.4,
    "scale": "ci",
}


@pytest.fixture(autouse=True)
def telemetry_hygiene(monkeypatch, tmp_path):
    """Arm/disarm cleanly per test; never touch the user's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    saved = os.environ.get("REPRO_TELEMETRY")
    yield
    if saved is None:
        os.environ.pop("REPRO_TELEMETRY", None)
    else:
        os.environ["REPRO_TELEMETRY"] = saved
    REGISTRY.reset()


def _run_cell(monkeypatch, kernel="py"):
    """One ci-scale opera fig07 cell under an explicit kernel."""
    from repro.experiments.fctsim import run_fct_cell

    monkeypatch.setenv("REPRO_KERNEL", kernel)
    return run_fct_cell("opera", 0.1, "datamining", 4.0, 0, "ci")


# ------------------------------------------------------------------ arming


class TestArming:
    @pytest.mark.parametrize("raw", ["", "0", "false", "off"])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TELEMETRY", raw)
        assert not armed()

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not armed()

    @pytest.mark.parametrize("raw", ["1", "true", "yes"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TELEMETRY", raw)
        assert armed()


# -------------------------------------------------------------- primitives


class TestPrimitives:
    def test_counter_gauge(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counter("a").value == 5  # get-or-create returns live inst
        reg.gauge("g").set(7)
        reg.gauge("g").high_water(3)
        assert reg.gauge("g").value == 7
        reg.gauge("g").high_water(11)
        assert reg.gauge("g").value == 11

    def test_histogram_bucketing_and_overflow(self):
        h = Histogram((10, 100))
        for v in (5, 10, 11, 100, 2_000):
            h.observe(v)
        assert h.counts == [2, 2, 1]  # inclusive upper bounds + overflow
        assert h.count == 5 and h.total == 2_126

    def test_histogram_bounds_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram((10, 10))
        with pytest.raises(ValueError, match="ascending"):
            Histogram((100, 10))
        with pytest.raises(ValueError, match="ascending"):
            Histogram(())

    def test_histogram_rebound_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError, match="different bounds"):
            reg.histogram("h", (1, 3))

    def test_snapshot_is_creation_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(1)
        a.counter("y").inc(2)
        b.counter("y").inc(2)
        b.counter("x").inc(1)
        assert a.snapshot() == b.snapshot()

    def test_reset_and_bool(self):
        reg = MetricsRegistry()
        assert not reg
        reg.counter("x").inc()
        assert reg
        reg.reset()
        assert not reg and reg.snapshot()["counters"] == {}

    def test_portable_roundtrip_validates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1)
        reg.histogram("h", FCT_BUCKET_BOUNDS_US).observe(50)
        plain = validate_snapshot(reg.portable())
        assert plain == reg.snapshot()
        # The plain form validates too (render path feeds it back in).
        assert validate_snapshot(reg.snapshot()) == reg.snapshot()

    @pytest.mark.parametrize(
        "bad",
        [
            {"counters": {}},
            {"counters": {}, "gauges": {}, "histograms": {"h": {}}},
            {"counters": {"x": "nan"}, "gauges": {}, "histograms": {}},
            {
                "counters": {},
                "gauges": {},
                "histograms": {
                    "h": {"bounds": (1,), "counts": [1], "count": 1, "total": 0}
                },
            },
            {
                "counters": {},
                "gauges": {},
                "histograms": {
                    "h": {"bounds": (1,), "counts": [1, 2], "count": 9, "total": 0}
                },
            },
        ],
    )
    def test_validate_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_snapshot(bad)

    def test_merge_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(5)
        b.gauge("g").set(9)
        a.histogram("h", (10,)).observe(1)
        b.histogram("h", (10,)).observe(100)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 5  # counters add
        assert merged["gauges"]["g"] == 9  # gauges take the max
        assert merged["histograms"]["h"]["counts"] == [1, 1]
        assert merged["histograms"]["h"]["total"] == 101


# ------------------------------------------------------------ engine drain


class TestEngineDrain:
    def test_armed_cell_equals_off_cell(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        REGISTRY.reset()
        off = _run_cell(monkeypatch)
        assert not REGISTRY  # off runs never touch the registry
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        armed_result = _run_cell(monkeypatch)
        assert armed_result == off  # telemetry is pure observation
        snap = REGISTRY.snapshot()
        assert snap["counters"]["flows.total"] > 0
        assert snap["counters"]["engine.events"] > 0
        assert snap["histograms"]["flows.fct_us"]["count"] == snap[
            "counters"
        ]["flows.completed"]
        # The Opera cell drains its RotorLB agents too.
        assert snap["counters"]["rotorlb.direct_bytes"] > 0
        assert snap["counters"]["rotorlb.vlb_bytes"] > 0
        assert "rotorlb.requeues" in snap["counters"]
        assert "rotorlb.pending_bytes_at_drain" in snap["gauges"]

    @requires_c
    def test_snapshot_identical_across_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        snaps = {}
        for kernel in ("py", "c"):
            REGISTRY.reset()
            result = _run_cell(monkeypatch, kernel=kernel)
            snaps[kernel] = (result, REGISTRY.snapshot())
        assert snaps["py"] == snaps["c"]
        # The compiled slice step keeps the RotorLB counters the oracle does.
        counters = snaps["c"][1]["counters"]
        assert counters["rotorlb.direct_bytes"] > 0
        assert counters["rotorlb.vlb_bytes"] > 0


# ------------------------------------------------------- drop-cause ledger


class TestDropCauses:
    INJECT_PS = int(0.5 * MS)

    def _faulted(self, kernel: str):
        from repro.core.faults import FailureSchedule

        from test_faults_dynamic import build_net, fault_workload

        probe = build_net(seed=11)
        schedule = FailureSchedule.random(
            probe.network.n_racks,
            probe.network.n_switches,
            "link",
            0.25,
            self.INJECT_PS,
            random.Random(3),
        )
        return fault_workload(schedule, kernel=kernel)

    def test_causes_partition_the_drops(self):
        # Property: every dropped packet has exactly one cause, so the
        # causes sum to the total — under both kernels.
        kernels = ("py", "c") if compiled_available() else ("py",)
        reference = None
        for kernel in kernels:
            run = self._faulted(kernel)
            causes = drop_cause_totals(run["net"])
            assert causes["total"] == (
                causes["failure_blackhole"]
                + causes["queue_overflow"]
                + causes["undeliverable"]
            )
            assert causes["failure_blackhole"] == run["blackholed_packets"]
            assert causes["failure_blackhole"] > 0  # the draw bit
            if reference is None:
                reference = causes
            else:
                assert causes == reference, kernel

    def test_per_flow_recovery_time_pin(self):
        # Regression pin: the worst per-flow recovery time of this seeded
        # link draw is deterministic — integer picoseconds, no wall clock
        # — so pin it exactly, plus the max-over-flows identity.
        run = self._faulted("py")
        stats = run["net"].stats
        recovery = stats.recovery_time_ps(self.INJECT_PS)
        per_flow = {
            fid: stats.flows[fid].end_ps - self.INJECT_PS
            for fid in stats.affected_flows - stats.unrecoverable_flows
        }
        assert per_flow and recovery == max(per_flow.values())
        assert recovery == 2_909_656_800
        assert min(per_flow.values()) >= 0


# ------------------------------------------------------------ trace stream


class TestTraceStream:
    def test_tracer_sinkless_is_falsy_and_noop(self):
        tracer = Tracer()
        assert not tracer
        tracer.emit({"ev": "queued"})  # must not raise or stamp anything

    def test_sink_exception_is_swallowed(self):
        tracer = Tracer()
        seen = []
        tracer.add_sink(lambda ev: (_ for _ in ()).throw(RuntimeError("x")))
        tracer.add_sink(seen.append)
        tracer.emit({"ev": "queued", "uid": 1})
        assert len(seen) == 1 and seen[0]["t"] > 0  # later sinks still fire

    def test_writer_roundtrip_and_torn_tail(self, tmp_path):
        path = trace_path(tmp_path, "deadbeef")
        assert path.parent.name == "_trace"
        with TraceWriter(path) as writer:
            writer.write({"ev": "run-start", "run": "deadbeef", "units": 1})
            writer.write({"ev": "queued", "uid": 0, "label": "x"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "completed", "ui')  # torn final append
        events = load_trace(path)
        assert [e["ev"] for e in events] == ["run-start", "queued"]
        assert load_trace(tmp_path / "missing.jsonl") == []

    def test_list_traces_most_recent_first(self, tmp_path):
        older = trace_path(tmp_path, "aaaa")
        newer = trace_path(tmp_path, "bbbb")
        TraceWriter(older).close()
        TraceWriter(newer).close()
        os.utime(older, (1, 1))
        os.utime(newer, (2, 2))
        assert [p.stem for p in list_traces(tmp_path)] == ["bbbb", "aaaa"]
        assert list_traces(tmp_path / "nowhere") == []

    def test_build_spans_attempt_counting(self):
        events = [
            {"ev": "run-start", "run": "r", "units": 2, "t": 0.0},
            {"ev": "cache-hit", "label": "fig06", "kind": "doc", "t": 0.0},
            {"ev": "queued", "uid": 0, "label": "a", "t": 0.1},
            {"ev": "queued", "uid": 1, "label": "b", "t": 0.1},
            {"ev": "leased", "uid": 0, "label": "a", "worker": "w1", "t": 0.2},
            {"ev": "released", "uid": 0, "label": "a", "worker": "w1", "t": 0.5},
            {"ev": "leased", "uid": 0, "label": "a", "worker": "w2", "t": 0.6},
            {
                "ev": "completed", "uid": 0, "label": "a", "worker": "w2",
                "duration_s": 0.3, "failed": False, "quarantined": False,
                "done": 1, "total": 2, "eta_s": 1.0, "t": 0.9,
            },
            {
                "ev": "completed", "uid": 1, "label": "b", "worker": None,
                "duration_s": 0.1, "failed": True, "quarantined": True,
                "done": 2, "total": 2, "eta_s": None, "t": 1.0,
            },
            {"ev": "run-end", "wall_s": 1.0, "crashed": False, "t": 1.0},
        ]
        doc = build_spans(events)
        assert doc["units"] == 2 and doc["wall_s"] == 1.0 and not doc["crashed"]
        assert doc["cache_hits"] == [{"label": "fig06", "kind": "doc"}]
        a, b = doc["spans"][0], doc["spans"][1]
        assert a["attempts"] == 2 and a["worker"] == "w2"
        assert a["first_leased_t"] == 0.2 and a["completed_t"] == 0.9
        assert b["attempts"] == 1  # local execution: no lease events
        assert b["failed"] and b["quarantined"]

    def test_render_trace(self):
        reg = MetricsRegistry()
        reg.counter("engine.events").inc(42)
        reg.counter("port.sent_packets").inc(7)
        events = [
            {"ev": "run-start", "run": "cafebabe" * 4, "units": 1, "t": 10.0},
            {"ev": "queued", "uid": 0, "label": "fig07:opera@0.1", "t": 10.0},
            {
                "ev": "completed", "uid": 0, "label": "fig07:opera@0.1",
                "worker": "w1", "duration_s": 2.5, "failed": False,
                "quarantined": False, "done": 1, "total": 1, "eta_s": 0.0,
                "telemetry": reg.snapshot(), "t": 12.5,
            },
            {"ev": "run-end", "wall_s": 2.5, "crashed": False, "t": 12.5},
        ]
        text = "\n".join(render_trace(events))
        assert "cafebabecafe" in text and "1 unit(s)" in text
        assert "fig07:opera@0.1" in text and "w1" in text
        assert "stragglers:" in text and "critical path:" in text
        assert "42 events" in text and "7 packet hops" in text
        # No lease events (local/pool execution): no worker section.
        assert "busy" not in text
        assert build_spans(events)["workers"] == {}

    def test_worker_busy_share(self):
        def completed(uid, worker, duration, t):
            return {
                "ev": "completed", "uid": uid, "label": f"u{uid}",
                "worker": worker, "duration_s": duration, "failed": False,
                "quarantined": False, "done": uid + 1, "total": 4,
                "eta_s": None, "t": t,
            }

        events = [
            {"ev": "run-start", "run": "r", "units": 4, "t": 0.0},
            {"ev": "leased", "uid": 0, "worker": "w1", "t": 1.0},
            {"ev": "leased", "uid": 2, "worker": "w2", "t": 1.0},
            {"ev": "leased", "uid": 3, "worker": "w3", "t": 1.1},
            {"ev": "released", "uid": 3, "worker": "w3", "t": 1.2},
            completed(2, "w2", 0.4, 1.5),
            {"ev": "leased", "uid": 3, "worker": "w2", "t": 1.6},
            completed(3, "w2", 0.35, 2.0),
            # The coordinator leases w1 its next unit before the Runner
            # consumes (and stamps) w1's previous result: pairing u0's
            # completion with w1's next lease would find none, or a whole
            # unit later; busy share is order-independent.
            {"ev": "leased", "uid": 1, "worker": "w1", "t": 2.02},
            completed(0, "w1", 1.0, 2.05),
            completed(1, "w1", 1.0, 3.05),
            {"ev": "run-end", "wall_s": 3.05, "crashed": False, "t": 3.05},
        ]
        workers = build_spans(events)["workers"]
        assert set(workers) == {"w1", "w2", "w3"}
        w1, w2, w3 = workers["w1"], workers["w2"], workers["w3"]
        assert w1["units"] == 2 and w1["busy_s"] == pytest.approx(2.0)
        assert w1["first_leased_t"] == 1.0 and w1["last_completed_t"] == 3.05
        assert w1["span_s"] == pytest.approx(2.05)
        assert w2["units"] == 2 and w2["busy_s"] == pytest.approx(0.75)
        assert w2["span_s"] == pytest.approx(1.0)
        # A worker that died holding its only lease completed nothing.
        assert w3["units"] == 0 and w3["span_s"] is None
        # First-unit overhead: first completion - first lease - its run
        # time. w2's second unit (0.05 s of wire) does not enter it.
        assert w1["first_unit_overhead_s"] == pytest.approx(0.05)
        assert w2["first_unit_overhead_s"] == pytest.approx(0.1)
        assert w3["first_unit_overhead_s"] is None
        text = "\n".join(render_trace(events))
        assert "worker busy share" in text
        lines = {line.split()[0]: line for line in text.splitlines()
                 if line.startswith("  w")}
        assert lines["w1"].endswith("98% busy") and "2 unit(s)" in lines["w1"]
        assert "first-unit overhead 0.05s" in lines["w1"]
        assert lines["w2"].endswith("75% busy")
        assert "first-unit overhead 0.10s" in lines["w2"]
        assert lines["w3"].endswith("no completed unit")


# --------------------------------------------------------- runner telemetry


class TestRunnerTelemetry:
    def _run(self, tmp_path, sub, progress=None, **env):
        cache = ResultCache(tmp_path / sub)
        runner = Runner(cache=cache, progress=progress)
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            result = runner.run(names=["fig07"], overrides=TINY_FIG07)[0]
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return result, cache

    def test_armed_run_is_bitwise_invisible(self, tmp_path):
        off, off_cache = self._run(tmp_path, "off", REPRO_TELEMETRY="0")
        on, on_cache = self._run(tmp_path, "on", REPRO_TELEMETRY="1")
        assert on.rows == off.rows
        assert on.payload == off.payload
        assert on.value == off.value
        # Cached documents identical (modulo the wall-clock duration_s no
        # two runs share): the snapshot is popped before any cache write,
        # so no cached document ever carries a "telemetry" key.
        def docs(sub):
            out = {}
            for p in sorted((tmp_path / sub).rglob("*.json")):
                assert '"telemetry"' not in p.read_text()
                doc = json.loads(p.read_text())
                doc.pop("duration_s", None)
                out[p.name] = doc
            return out

        off_docs, on_docs = docs("off"), docs("on")
        assert off_docs and on_docs == off_docs

    def test_trace_file_records_the_run(self, tmp_path):
        _result, cache = self._run(tmp_path, "on", REPRO_TELEMETRY="1")
        (path,) = list_traces(cache.root)
        events = load_trace(path)
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "run-start" and kinds[-1] == "run-end"
        assert kinds.count("queued") == 4 and kinds.count("completed") == 4
        # Every per-unit snapshot on the stream validates and carries the
        # engine drain.
        snaps = [
            validate_snapshot(e["telemetry"])
            for e in events
            if e["ev"] == "completed"
        ]
        assert len(snaps) == 4
        merged = merge_snapshots(snaps)
        assert merged["counters"]["engine.events"] > 0
        # The cached re-run leaves cache-hit events, not spans.
        _again, cache = self._run(tmp_path, "on", REPRO_TELEMETRY="1")
        (path,) = list_traces(cache.root)
        kinds = [e["ev"] for e in load_trace(path)]
        assert "cache-hit" in kinds and "queued" not in kinds

    def test_off_run_writes_no_trace(self, tmp_path):
        _result, cache = self._run(tmp_path, "off", REPRO_TELEMETRY="0")
        assert list_traces(cache.root) == []

    def test_progress_is_a_span_consumer(self, tmp_path):
        # The --progress callback is a sink over the same event stream;
        # it fires with telemetry off (no trace file involved).
        seen: list[Progress] = []
        _result, cache = self._run(
            tmp_path, "off", progress=seen.append, REPRO_TELEMETRY="0"
        )
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 for p in seen)
        assert all(p.label for p in seen)
        assert list_traces(cache.root) == []


# ------------------------------------------------------- coordinator status


class TestCoordinatorStatus:
    def test_status_during_run_and_poller_is_not_a_worker(self):
        from repro.distrib import Coordinator
        from repro.distrib.protocol import fetch_status

        from test_distrib import _FakeWorker, _cheap_units

        coord = Coordinator(
            max_releases=1,
            status_refresh_s=0.0,
            status_extra={"run": "abc123", "jobs": 1},
        )
        fake = _FakeWorker(coord.address[1], mode="stall")
        results: list = []
        thread = threading.Thread(
            target=lambda: results.extend(coord.run(_cheap_units()[:1])),
            daemon=True,
        )
        thread.start()
        try:
            deadline = time.time() + 20
            status = None
            while time.time() < deadline:
                status = fetch_status(coord.address, timeout=5)
                if status["in_flight"] == 1:
                    break
                time.sleep(0.05)
            assert status is not None and status["in_flight"] == 1
            assert status["state"] == "running"
            assert status["units_total"] == 1 and status["pending"] == 0
            assert status["extra"] == {"run": "abc123", "jobs": 1}
            # Status pollers never say hello: the workers list shows only
            # the real (fake) worker, holding its lease.
            (worker,) = status["workers"]
            assert worker["worker"] == "fake"
            assert worker["lease_uid"] == 0
            assert worker["lease_age_s"] is not None
            assert worker["lease_age_s"] >= 0
        finally:
            fake.stop()  # socket closes -> release -> poison at max_releases=1
            thread.join(timeout=30)
            coord.close()
        assert not thread.is_alive()
        ((uid, doc, _w),) = results
        assert uid == 0 and "error" in doc
        assert coord.quarantined == 1

    def test_fetch_status_rejects_malformed_reply(self):
        import socket as socket_mod

        from repro.distrib.protocol import (
            ProtocolError,
            fetch_status,
            recv_msg,
            send_msg,
        )

        server = socket_mod.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def _serve():
            conn, _ = server.accept()
            with conn:
                recv_msg(conn)
                send_msg(conn, {"type": "nope"})

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProtocolError, match="unexpected status reply"):
                fetch_status(("127.0.0.1", port), timeout=5)
        finally:
            thread.join(timeout=10)
            server.close()


# -------------------------------------------------------------- CLI surface


class TestCli:
    def test_trace_disabled_cache_errors(self, capsys):
        from repro.cli import main

        assert main(["trace", "--cache-dir", ""]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_trace_empty_listing(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 0
        assert "no recorded traces" in capsys.readouterr().out
        assert main(["trace", "latest"]) == 2
        assert "no recorded trace matches" in capsys.readouterr().err

    def test_run_telemetry_then_trace(self, capsys):
        from repro.cli import main

        assert main(["run", "fig06", "--telemetry", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["trace"]) == 0
        listing = capsys.readouterr().out
        assert "1 unit(s)" in listing and "done" in listing
        assert main(["trace", "latest"]) == 0
        rendered = capsys.readouterr().out
        assert "trace" in rendered and "fig06" in rendered
        assert main(["trace", "latest", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["ev"] == "run-start"
        assert events[-1]["ev"] == "run-end"

    def test_status_unreachable_coordinator(self, capsys):
        from repro.cli import main

        assert main(["status", "127.0.0.1:1", "--timeout", "0.2"]) == 1
        assert "status error" in capsys.readouterr().err

    def test_quarantined_cache_entry_warns(self, tmp_path, caplog):
        import logging

        cache = ResultCache(tmp_path)
        path = cache.path("fig06", {"k": 8})
        path.parent.mkdir(parents=True)
        path.write_text("not json {")
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.cache"):
            assert cache.get("fig06", {"k": 8}) is None
        assert any("quarantining" in r.message for r in caplog.records)
        assert path.with_name(path.name + ".corrupt").exists()
