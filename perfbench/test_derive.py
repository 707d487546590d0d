"""The benchmark's own derivations, pinned on hand-written inputs.

Run with ``python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import derive  # noqa: E402
import run  # noqa: E402

#: A distributed run: unit 0 leased once, unit 1 lost its first worker
#: and was re-leased, unit 2 completed without a lease (a local unit).
SPAN_STREAM = [
    {"ev": "run-start", "t": 100.0, "units": 3},
    {"ev": "queued", "t": 100.1, "uid": 0},
    {"ev": "queued", "t": 100.1, "uid": 1},
    {"ev": "leased", "t": 101.0, "uid": 0, "worker": "a"},
    {"ev": "leased", "t": 101.2, "uid": 1, "worker": "b"},
    {"ev": "released", "t": 102.0, "uid": 1, "worker": "b"},
    {"ev": "completed", "t": 103.5, "uid": 0, "duration_s": 2.0},
    {"ev": "leased", "t": 104.0, "uid": 1, "worker": "a"},
    {"ev": "completed", "t": 106.5, "uid": 1, "duration_s": 2.25},
    {"ev": "completed", "t": 107.0, "uid": 2, "duration_s": 0.5},
    {"ev": "run-end", "t": 107.1, "wall_s": 7.1},
]


def test_setup_is_first_arrival_minus_its_duration():
    # The 103.5 record arrives first: its unit started at 100.5.
    records = [(105.0, 2.0), (103.5, 3.0), (110.0, 9.5)]
    assert derive.setup_from_progress(100.0, records) == pytest.approx(0.5)


def test_setup_needs_a_progress_record():
    with pytest.raises(ValueError):
        derive.setup_from_progress(0.0, [])


def test_worker_idle_frac():
    assert derive.worker_idle_frac(15.0, 2, 10.0) == pytest.approx(0.25)
    assert derive.worker_idle_frac(20.0, 2, 10.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        derive.worker_idle_frac(1.0, 0, 10.0)
    with pytest.raises(ValueError):
        derive.worker_idle_frac(1.0, 2, 0.0)


def test_lease_overheads_charge_the_last_lease_only():
    overheads = derive.lease_overheads(SPAN_STREAM)
    # unit 0: 103.5 - 101.0 - 2.0; unit 1: 106.5 - 104.0 - 2.25.
    assert overheads == pytest.approx([0.5, 0.25])
    assert derive.nearest_rank(overheads, 50) == pytest.approx(0.25)
    assert derive.nearest_rank(overheads, 90) == pytest.approx(0.5)
    assert derive.nearest_rank([], 90) == 0.0


def test_spawn_and_releases():
    assert derive.spawn_s(SPAN_STREAM) == pytest.approx(1.0)
    assert derive.releases(SPAN_STREAM) == 1
    pool = [ev for ev in SPAN_STREAM if ev["ev"] not in ("leased", "released")]
    assert derive.spawn_s(pool) == 0.0
    assert derive.lease_overheads(pool) == []


def test_digest_check_flags_changed_missing_and_extra():
    observed = {"a": "1", "b": "2", "extra": "3"}
    reference = {"a": "1", "b": "X", "missing": "4"}
    assert derive.digest_mismatches(observed, reference) == [
        "b", "extra", "missing"
    ]
    assert derive.digest_mismatches(reference, dict(reference)) == []


def test_cell_digests_label_cells_and_rows_by_seed():
    jobs = [
        {"params": json.dumps({"seed": 7}), "rows": ["r1", "r2"],
         "cells": {"opera@0.01": '{"x":1}'}},
    ]
    digests = run.cell_digests(jobs)
    assert digests == {
        "seed=7:opera@0.01": derive.sha256_text('{"x":1}'),
        "seed=7:rows": derive.sha256_text("r1\nr2"),
    }
    assert run.cell_values(jobs) == {"seed=7:opera@0.01": '{"x":1}'}


def test_ledger_counts_failed_missing_and_mismatched_units():
    ledger = run.Ledger()
    doc = {"ok": True, "progress": [[1.0, 0.5, False], [2.0, 0.5, True]],
           "restored": 0, "stray": 0, "kernel": "c"}
    assert not ledger.sweep(doc, expected_units=3)
    assert (ledger.attempted, ledger.failed) == (3, 2)  # 1 failed + 1 missing
    ledger.compare("check", {"a": "1"}, {"a": "2"})
    assert ledger.failed == 3
    clean = run.Ledger()
    doc = {"ok": True, "progress": [[1.0, 0.5, False]], "restored": 1,
           "stray": 0, "kernel": "c"}
    assert not clean.sweep(doc, expected_units=1)  # cache hit
    assert clean.failed == 0 and clean.problems


def test_lpt_makespan_hands_out_longest_first():
    # 5 and 4 go to separate workers, 3 joins the 4, 2 joins the 5.
    assert derive.lpt_makespan([2.0, 5.0, 3.0, 4.0], 2) == pytest.approx(7.0)
    # One cell longer than all the rest together sets the makespan alone.
    assert derive.lpt_makespan([1.0, 10.0, 2.0], 2) == pytest.approx(10.0)
    assert derive.lpt_makespan([1.0, 2.0], 1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        derive.lpt_makespan([1.0], 0)


def test_input_size_weights_hops_by_network(monkeypatch):
    monkeypatch.setattr(run, "WORKERS", 2)
    hops = {"fig07:clos@0.25": 3_000_000, "fig07:opera@0.1": 1_000_000,
            "fig07:rotornet@0.1": 500_000}
    makespan, total = run.input_size(hops)
    clos = run.HOP_COST_US["clos"] * 3.0
    rest = run.HOP_COST_US["opera"] * 1.0 + run.HOP_COST_US["rotornet"] * 0.5
    assert total == pytest.approx(clos + rest)
    assert makespan == pytest.approx(max(clos, rest))


def test_reference_covers_every_workload():
    reference = run.load_reference()
    for workload, wl in run.WORKLOADS.items():
        entry = reference[workload]
        assert entry["seed"] == 0
        assert any(label.endswith(":rows") for label in entry["digests"])
        if wl.normalize:
            assert sum(entry["cell_hops"].values()) > 0
