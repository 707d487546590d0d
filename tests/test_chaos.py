"""Chaos harness: seeded fault injection, journaled crash-resume, and
quarantine/degradation across the sweep stack.

The contract under test, end to end:

* the ``REPRO_CHAOS`` grammar parses strictly and round-trips;
* a given ``(seed, role)`` pair replays the identical fault-decision
  sequence — chaos runs are experiments, not dice rolls;
* frame-seam faults surface as the failure shapes the recovery machinery
  already handles (drop -> torn connection, corrupt -> ProtocolError);
* the write-ahead journal survives torn tails and reconstructs a crashed
  run's outstanding/quarantined state;
* the cache quarantines corrupt entries as ``*.corrupt`` misses;
* ``policy="degraded"`` quarantines poison units with tracebacks instead
  of wedging the sweep, while ``"strict"`` keeps the historical raise;
* executor degradation ``distributed -> pool -> local`` warns once and
  changes nothing but parallelism;
* the house invariant: a chaos run that completes — including one that
  crashes the coordinator and resumes from the journal — is bitwise
  identical to the fault-free in-process run.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
import time
import warnings

import pytest

from repro.distrib import Coordinator
import repro.distrib as distrib_pkg
from repro.distrib.chaos import (
    ChaosConfig,
    ChaosCrash,
    ChaosError,
    ChaosInjector,
    backoff_delays,
    injector,
    mangle_frame,
    parse_chaos,
)
from repro.distrib.journal import RunJournal, journal_path, load_journal
from repro.distrib.protocol import (
    ProtocolError,
    encode_frame,
    recv_msg,
    send_msg,
)
from repro.distrib.worker import _connect
from repro.scenarios import (
    ResultCache,
    Runner,
    ScenarioExecutionError,
    scenario,
)
from repro.scenarios import registry as registry_mod
from repro.scenarios import runner as runner_mod

#: Same tiny fig07 configuration the distrib/sharding tests pin (4 cells).
TINY_FIG07 = {
    "loads": (0.02, 0.05),
    "networks": ("opera", "rotornet"),
    "duration_ms": 0.4,
    "scale": "ci",
}


@pytest.fixture
def fresh_degrade_warnings():
    """Reset the one-time degradation-warning dedup between tests."""
    runner_mod._DEGRADE_WARNED.clear()
    yield
    runner_mod._DEGRADE_WARNED.clear()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ------------------------------------------------------------------ grammar


class TestChaosGrammar:
    def test_full_spec_round_trips(self):
        spec = (
            "seed=7,kill_worker=0.2,drop_frame=0.1,corrupt_frame=0.05,"
            "delay_ms=1:5,stall_heartbeat=0.3,crash_coordinator=after_4"
        )
        cfg = parse_chaos(spec)
        assert cfg.seed == 7
        assert cfg.kill_worker == 0.2
        assert cfg.drop_frame == 0.1
        assert cfg.corrupt_frame == 0.05
        assert cfg.stall_heartbeat == 0.3
        assert cfg.delay_ms == (1.0, 5.0)
        assert cfg.crash_coordinator == 4
        assert parse_chaos(cfg.to_spec()) == cfg

    def test_defaults_are_no_fault(self):
        cfg = parse_chaos("seed=3")
        assert cfg == ChaosConfig(seed=3)
        assert cfg.delay_ms is None and cfg.crash_coordinator is None

    def test_crash_coordinator_spellings(self):
        assert parse_chaos("crash_coordinator=after_3").crash_coordinator == 3
        assert parse_chaos("crash_coordinator=3").crash_coordinator == 3

    def test_single_delay_bound_means_fixed(self):
        assert parse_chaos("delay_ms=2").delay_ms == (2.0, 2.0)

    def test_rejections(self):
        with pytest.raises(ChaosError, match="unknown chaos key"):
            parse_chaos("kill_wrker=0.5")
        with pytest.raises(ChaosError, match=r"\[0, 1\]"):
            parse_chaos("drop_frame=1.5")
        with pytest.raises(ChaosError, match="probability"):
            parse_chaos("kill_worker=lots")
        with pytest.raises(ChaosError, match="key=value"):
            parse_chaos("seed")
        with pytest.raises(ChaosError, match="integer"):
            parse_chaos("seed=x")
        with pytest.raises(ChaosError, match="0 <= a <= b"):
            parse_chaos("delay_ms=5:1")
        with pytest.raises(ChaosError, match=">= 1"):
            parse_chaos("crash_coordinator=0")
        with pytest.raises(ChaosError, match="after_K"):
            parse_chaos("crash_coordinator=soon")


# -------------------------------------------------------------- determinism


class TestDeterminism:
    def test_decision_stream_is_pinned_by_seed_and_role(self):
        """The stream derivation is part of the reproducibility contract:
        sha256(f"{seed}:{role}")[:8] seeds the rng, one uniform draw per
        decide() regardless of which fault kind is consulted."""
        cfg = ChaosConfig(seed=11, kill_worker=0.5, drop_frame=0.5)
        inj = ChaosInjector(cfg, role="worker-0")
        got = [inj.decide("kill_worker") for _ in range(20)]

        digest = hashlib.sha256(b"11:worker-0").digest()
        ref = random.Random(int.from_bytes(digest[:8], "big"))
        assert got == [ref.random() < 0.5 for _ in range(20)]

        # A different kind with the same probability consumes the same
        # stream: one draw per decide, kind-independent.
        inj2 = ChaosInjector(cfg, role="worker-0")
        assert [inj2.decide("drop_frame") for _ in range(20)] == got

    def test_roles_and_seeds_partition_streams(self):
        def stream(role, seed):
            inj = ChaosInjector(ChaosConfig(seed=seed), role)
            return [inj._rng.random() for _ in range(32)]

        assert stream("worker-0", 1) != stream("worker-1", 1)
        assert stream("worker-0", 1) != stream("worker-0", 2)
        assert stream("worker-0", 1) == stream("worker-0", 1)

    def test_armed_but_quiet_never_fires_but_still_draws(self):
        inj = ChaosInjector(ChaosConfig(seed=5))
        assert not any(inj.decide("kill_worker") for _ in range(64))
        # The draws were consumed: the stream position advanced exactly 64.
        digest = hashlib.sha256(b"5:main").digest()
        ref = random.Random(int.from_bytes(digest[:8], "big"))
        for _ in range(64):
            ref.random()
        assert inj._rng.random() == ref.random()

    def test_env_injector_caches_per_spec_and_role(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert injector() is None
        monkeypatch.setenv("REPRO_CHAOS", "seed=9")
        first = injector()
        assert first is not None and first.config.seed == 9
        assert injector() is first  # the fault stream must be continuous
        monkeypatch.setenv("REPRO_CHAOS", "seed=10")
        second = injector()
        assert second is not first and second.config.seed == 10
        monkeypatch.setenv("REPRO_CHAOS_ROLE", "worker-3")
        assert injector().role == "worker-3"


# ------------------------------------------------------------------ backoff


class TestBackoff:
    def test_seeded_schedule_is_reproducible(self):
        a = list(backoff_delays(total=5.0, rng=random.Random(42)))
        b = list(backoff_delays(total=5.0, rng=random.Random(42)))
        assert a == b and len(a) > 0

    def test_bounds(self):
        delays = list(
            backoff_delays(base=0.05, cap=2.0, total=30.0, rng=random.Random(7))
        )
        assert sum(delays) <= 30.0
        assert all(d <= 2.0 for d in delays)
        # Equal jitter: never less than half the base, so retries always
        # make progress instead of hammering at zero delay.
        assert all(d >= 0.025 for d in delays)
        # The first delay is drawn from the un-doubled first step.
        assert delays[0] <= 0.05

    def test_growth_reaches_cap(self):
        delays = list(
            backoff_delays(base=0.5, cap=2.0, total=60.0, rng=random.Random(0))
        )
        assert max(delays) > 1.0  # the doubled steps actually grew

    def test_zero_budget_yields_nothing(self):
        assert list(backoff_delays(total=0.0, rng=random.Random(1))) == []


# -------------------------------------------------------------- frame chaos


class TestFrameChaos:
    def test_drop_tears_connection_and_peer_sees_eof(self):
        inj = ChaosInjector(ChaosConfig(drop_frame=1.0))
        a, b = socket.socketpair()
        try:
            with pytest.raises(OSError, match="chaos: frame dropped"):
                mangle_frame(inj, encode_frame({"type": "ready"}), a)
            assert recv_msg(b) is None  # the peer observes a closed link
        finally:
            b.close()

    def test_corrupt_flips_one_body_byte_past_header(self):
        inj = ChaosInjector(ChaosConfig(corrupt_frame=1.0))
        frame = encode_frame({"type": "result", "uid": 3})
        a, b = socket.socketpair()
        try:
            mangled = mangle_frame(inj, frame, a)
            assert mangled[:4] == frame[:4]  # length prefix stays valid
            assert len(mangled) == len(frame)
            diff = [i for i in range(len(frame)) if mangled[i] != frame[i]]
            assert len(diff) == 1 and diff[0] >= 4
            a.sendall(mangled)
            with pytest.raises(ProtocolError, match="undecodable frame"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_armed_but_quiet_frames_pass_unchanged(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=1")
        a, b = socket.socketpair()
        try:
            msg = {"type": "lease", "uid": 1, "params": {"x": 2}}
            send_msg(a, msg)
            assert recv_msg(b) == msg
        finally:
            a.close()
            b.close()

    def test_corruption_through_the_send_seam(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,corrupt_frame=1")
        a, b = socket.socketpair()
        try:
            send_msg(a, {"type": "heartbeat"})
            with pytest.raises(ProtocolError):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_delay_preserves_payload(self):
        inj = ChaosInjector(ChaosConfig(delay_ms=(1.0, 2.0)))
        frame = encode_frame({"type": "ready"})
        a, b = socket.socketpair()
        try:
            assert mangle_frame(inj, frame, a) == frame
        finally:
            a.close()
            b.close()


# ------------------------------------------------------------ worker dialing


class TestWorkerConnect:
    def test_exhausted_backoff_names_the_address(self):
        port = _free_port()  # nothing listening there
        started = time.monotonic()
        with pytest.raises(OSError, match=rf"127\.0\.0\.1:{port}"):
            _connect(("127.0.0.1", port), 0.5)
        # The budget is the time bound: a refused dial must not take the
        # old fixed-sleep forever, nor spin without sleeping.
        assert time.monotonic() - started < 5.0


# ------------------------------------------------------------------ journal


class TestJournal:
    def test_roundtrip_and_outstanding(self, tmp_path):
        path = journal_path(tmp_path, "runkey")
        with RunJournal(path) as j:
            j.start("runkey", 3)
            j.grant("k1", 0, "w0")
            j.grant("k2", 1, "w1")
            j.grant("k3", 2, "w0")
            j.complete("k1", 0, True)
            j.quarantine("k3", "fig07[x]", "Traceback ...")
            j.crash("chaos: boom")
        state = load_journal(path)
        assert state is not None
        assert state.run_key == "runkey" and state.units == 3
        assert state.completed == {"k1"}
        assert state.quarantined == {
            "k3": {"label": "fig07[x]", "error": "Traceback ..."}
        }
        assert state.outstanding == {"k2"}
        assert state.crashed and not state.ended

    def test_torn_tail_is_skipped(self, tmp_path):
        path = journal_path(tmp_path, "r")
        with RunJournal(path) as j:
            j.start("r", 1)
            j.grant("k1", 0, "w0")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev":"complete","jk')  # the writer died mid-append
        state = load_journal(path)
        assert state is not None
        assert state.granted == {"k1": "w0"}
        assert state.completed == set()

    def test_absent_or_empty_is_none(self, tmp_path):
        assert load_journal(tmp_path / "nope.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert load_journal(empty) is None

    def test_resume_appends_fresh_run_truncates(self, tmp_path):
        path = journal_path(tmp_path, "r")
        with RunJournal(path) as j:
            j.start("r", 2)
            j.grant("k1", 0, "w0")
        with RunJournal(path, resume=True) as j:
            j.complete("k1", 0, True)
            j.end()
        state = load_journal(path)
        assert state.completed == {"k1"} and state.ended
        with RunJournal(path) as j:  # resume=False: a fresh history
            j.start("r", 2)
        state = load_journal(path)
        assert state.granted == {} and not state.ended

    def test_events_without_jkey_are_not_recorded(self, tmp_path):
        path = journal_path(tmp_path, "r")
        with RunJournal(path) as j:
            j.start("r", 1)
            j.grant(None, 0, "w0")
            j.complete(None, 0, True)
            j.quarantine(None, "label", "err")
        state = load_journal(path)
        assert state.granted == {} and state.completed == set()
        assert state.quarantined == {}


# ------------------------------------------------------- cache quarantine


class TestCacheQuarantine:
    def test_truncated_entry_becomes_corrupt_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": ["r"], "x": 1})
        path.write_text('{"rows": ["r"')  # torn mid-write
        assert cache.get("fig06", {"k": 1}) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # The slot is reusable: the sweep recomputes and re-caches.
        cache.put("fig06", {"k": 1}, {"rows": ["r"], "x": 1})
        assert cache.get("fig06", {"k": 1}) == {"rows": ["r"], "x": 1}

    def test_non_utf8_bytes_are_quarantined_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": []})
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get("fig06", {"k": 1}) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_non_object_document_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": []})
        path.write_text("[1, 2, 3]")  # valid JSON, not a cache entry
        assert cache.get("fig06", {"k": 1}) is None

    def test_cell_entries_quarantine_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put_cell("fig07", "opera@0.1", {"s": 1}, {"value": 2})
        path.write_text("{nope")
        assert cache.get_cell("fig07", "opera@0.1", {"s": 1}) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_stats_count_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": []})
        path.write_text("{")
        cache.get("fig06", {"k": 1})
        cache.put("fig06", {"k": 2}, {"rows": []})
        stats = cache.stats()
        assert stats["fig06"]["corrupt"] == 1
        assert stats["fig06"]["results"] == 1

    def test_clear_removes_corrupt_and_journals(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": []})
        path.write_text("{")
        cache.get("fig06", {"k": 1})
        with RunJournal(journal_path(tmp_path, "r")) as j:
            j.start("r", 1)
        assert cache.clear() == 2  # the .corrupt file and the journal
        assert list(tmp_path.rglob("*.corrupt")) == []
        assert list(tmp_path.rglob("*.jsonl")) == []

    def test_cli_stats_report_corrupt_counts(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        path = cache.put("fig06", {"k": 1}, {"rows": []})
        path.write_text("{")
        cache.get("fig06", {"k": 1})
        assert main(["cache", "--cache-dir", str(tmp_path), "stats"]) == 0
        captured = capsys.readouterr()
        assert "1 corrupt!" in captured.out
        assert "quarantined as *.corrupt" in captured.err


# ------------------------------------------- quarantine policy (Runner)


def _twocell_shards(n: int = 2, poison: str = "b"):
    from repro.scenarios.sharding import Cell

    return [Cell(key=k, params={"k": k, "poison": poison}) for k in ("a", "b")[:n]]


def _twocell_cell(k: str = "a", poison: str = "b"):
    if k == poison:
        raise ValueError(f"cell {k} is poison")
    return {"k": k}


def _twocell_merge(values, n: int = 2, poison: str = "b"):
    return {"cells": [v["k"] for v in values]}


def _twocell_format(value):
    return [" ".join(value["cells"])]


class TestQuarantinePolicy:
    def _register(self):
        @scenario(
            "twocell",
            shards="_twocell_shards",
            cell="_twocell_cell",
            merge="_twocell_merge",
            formatter="_twocell_format",
        )
        def twocell(n: int = 2, poison: str = "b"):
            values = [_twocell_cell(**c.params) for c in _twocell_shards(n, poison)]
            return _twocell_merge(values, n, poison)

    def test_strict_policy_raises_after_drain(self, scratch_registry, tmp_path):
        self._register()
        with pytest.raises(ScenarioExecutionError, match="twocell"):
            Runner(cache=ResultCache(tmp_path)).run(names=["twocell"])

    def test_degraded_policy_quarantines_poison_cell(
        self, scratch_registry, tmp_path
    ):
        self._register()
        cache = ResultCache(tmp_path)
        (res,) = Runner(cache=cache, policy="degraded").run(names=["twocell"])
        assert res.quarantined is not None
        ((rec),) = res.quarantined
        assert rec["label"] == "twocell:b"
        assert "cell b is poison" in rec["error"]  # full traceback travels
        assert any(r.startswith("[degraded] twocell") for r in res.rows)
        assert any("[quarantined] twocell:b" in r for r in res.rows)
        # A partial merge must never be cached as the real result.
        params = registry_mod.get("twocell").bind({})
        assert cache.get("twocell", params) is None
        # The healthy sibling cell completed and was cached as usual.
        assert cache.get_cell("twocell", "a", {"k": "a", "poison": "b"}) is not None

    def test_degraded_policy_quarantines_whole_scenario_failure(
        self, scratch_registry, tmp_path
    ):
        @scenario("boom")
        def boom(x: int = 1):
            raise RuntimeError("scenario exploded")

        (res,) = Runner(cache=ResultCache(tmp_path), policy="degraded").run(
            names=["boom"]
        )
        assert res.quarantined and res.quarantined[0]["label"] == "boom"
        assert "scenario exploded" in res.quarantined[0]["error"]
        assert res.rows == [
            runner_mod.quarantine_row("boom", res.quarantined[0]["error"])
        ]

    def test_degraded_run_heals_once_poison_is_fixed(
        self, scratch_registry, tmp_path
    ):
        self._register()
        cache = ResultCache(tmp_path)
        Runner(cache=cache, policy="degraded").run(names=["twocell"])
        (res,) = Runner(cache=cache, policy="degraded").run(
            names=["twocell"], overrides={"poison": "none"}
        )
        assert res.quarantined is None
        assert res.rows == ["a b"]

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            Runner(policy="yolo")


class _DyingWorker:
    """Scripted raw-socket worker: takes one lease to its grave."""

    def __init__(self, port: int):
        self.thread = threading.Thread(target=self._run, args=(port,), daemon=True)
        self.thread.start()

    def _run(self, port: int) -> None:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            send_msg(sock, {"type": "hello", "worker": "dying", "pid": 0})
            send_msg(sock, {"type": "ready"})
            sock.settimeout(30)
            recv_msg(sock)  # the lease
        finally:
            sock.close()


class TestCoordinatorPoisonDoc:
    def test_poison_doc_is_marked_quarantined_with_workers(self):
        from repro.scenarios import get
        from repro.scenarios.encode import to_portable

        unit = {
            "uid": 0,
            "kind": "scenario",
            "name": "fig06",
            "cell_key": None,
            "params": to_portable(get("fig06").bind({})),
            "jkey": "jk-fig06",
        }
        coord = Coordinator(max_releases=2)
        _DyingWorker(coord.address[1])
        _DyingWorker(coord.address[1])
        try:
            ((uid, doc, _w),) = list(coord.run([unit]))
        finally:
            coord.close()
        assert uid == 0
        assert doc["quarantined"] is True
        assert "lost its worker 2 times" in doc["error"]
        assert doc["workers"] and doc["workers"] == sorted(doc["workers"])


# ------------------------------------------------------- executor degradation


class TestExecutorDegradation:
    def test_distributed_degrades_to_local_with_one_warning(
        self, fresh_degrade_warnings, monkeypatch
    ):
        def _no_bind(*args, **kwargs):
            raise OSError("listen socket: address in use")

        monkeypatch.setattr(distrib_pkg, "Coordinator", _no_bind)
        plain = Runner(cache=None).run(names=["fig06"])[0]
        with pytest.warns(RuntimeWarning, match="degrading to 'local'"):
            degraded = Runner(
                cache=None, executor="distributed", workers=1
            ).run(names=["fig06"])[0]
        assert degraded.rows == plain.rows
        assert degraded.payload == plain.payload
        # One-time: an identical later degradation stays quiet.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Runner(cache=None, executor="distributed", workers=1).run(
                names=["fig06"]
            )
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_pool_degrades_to_local(self, fresh_degrade_warnings, monkeypatch):
        def _no_fork(*args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(runner_mod.multiprocessing, "Pool", _no_fork)
        plain = Runner(cache=None).run(names=["fig06", "table1"])
        with pytest.warns(RuntimeWarning, match="'pool' unavailable"):
            degraded = Runner(cache=None, workers=2).run(names=["fig06", "table1"])
        assert [r.rows for r in degraded] == [r.rows for r in plain]

    def test_full_chain_distributed_pool_local(
        self, fresh_degrade_warnings, monkeypatch
    ):
        def _boom(*args, **kwargs):
            raise OSError("nope")

        monkeypatch.setattr(distrib_pkg, "Coordinator", _boom)
        monkeypatch.setattr(runner_mod.multiprocessing, "Pool", _boom)
        plain = Runner(cache=None).run(names=["fig06", "table1"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = Runner(
                cache=None, executor="distributed", workers=2
            ).run(names=["fig06", "table1"])
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        assert any("'distributed' unavailable" in m for m in messages)
        assert any("degrading to 'local'" in m for m in messages)
        assert [r.rows for r in degraded] == [r.rows for r in plain]


# ------------------------------------------------- acceptance differentials


class TestChaosAcceptance:
    def test_chaos_sweep_is_bitwise_identical(self, tmp_path, monkeypatch):
        """The house invariant: kills, drops and corruption change nothing
        about the merged rows — only how much recovery ran."""
        plain = Runner(cache=None).run(names=["fig07"], overrides=TINY_FIG07)[0]
        monkeypatch.setenv(
            "REPRO_CHAOS",
            "seed=3,kill_worker=0.25,drop_frame=0.1,corrupt_frame=0.1",
        )
        chaotic = Runner(
            cache=ResultCache(tmp_path),
            executor="distributed",
            workers=2,
            lease_timeout=6.0,
            max_respawns=64,
            # Generous poison bound: at kill_worker=0.25 a legitimate cell
            # can easily lose several workers in a row; the bound exists
            # to catch units that *always* kill, not unlucky ones.
            max_cell_attempts=12,
        ).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert chaotic.rows == plain.rows
        assert chaotic.payload == plain.payload

    def test_coordinator_crash_resumes_from_journal(self, tmp_path, monkeypatch):
        """crash_coordinator=after_2 kills the run after two completed
        cells; the same command with resume_journal=True disarms the crash,
        restores the completed cells from cache, and converges bitwise."""
        plain = Runner(cache=None).run(names=["fig07"], overrides=TINY_FIG07)[0]
        monkeypatch.setenv("REPRO_CHAOS", "seed=1,crash_coordinator=after_2")
        cache = ResultCache(tmp_path)
        with pytest.raises(ChaosCrash, match="after 2 completed"):
            Runner(
                cache=cache,
                executor="distributed",
                workers=2,
                lease_timeout=10.0,
            ).run(names=["fig07"], overrides=TINY_FIG07)
        (jfile,) = (tmp_path / "_journal").glob("*.jsonl")
        state = load_journal(jfile)
        assert state is not None and state.crashed and not state.ended
        resumed = Runner(
            cache=cache,
            executor="distributed",
            workers=2,
            lease_timeout=10.0,
            resume_journal=True,
        ).run(names=["fig07"], overrides=TINY_FIG07)[0]
        assert resumed.rows == plain.rows
        assert resumed.payload == plain.payload
        computed, restored, total = resumed.cells
        assert total == 4 and restored >= 2  # the pre-crash work survived
        assert load_journal(jfile).ended
