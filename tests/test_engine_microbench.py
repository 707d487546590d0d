"""Tests for the engine microbenchmark's gate (``benchmarks/engine_microbench.py``).

``check_regression`` runs on hand-built records against an artifact
written to ``tmp_path``, so no benchmark runs here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from engine_microbench import check_regression  # noqa: E402


def engine_record(events_per_hop=1.36, reentries=66):
    return {
        "reference_events_per_sec": 2_000_000,
        "events_per_hop": events_per_hop,
        "per_network": [
            {
                "network": "clos",
                "reentries": reentries,
                "reentries_per_hop": round(reentries / 215_000, 4),
            },
        ],
    }


def committed_artifact(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(
        json.dumps({"engines": {"heap": engine_record(), "heap-c": engine_record()}})
    )
    return path


def test_check_regression_without_a_py_record(tmp_path, capsys):
    # A --kernels c run carries only heap-c: the py gate is skipped with a
    # note, and the event-count gate runs on heap-c instead.
    committed = committed_artifact(tmp_path)
    fresh = {"engines": {"heap-c": engine_record()}}
    assert check_regression(fresh, committed) == 0
    out = capsys.readouterr().out
    assert "no py (heap) record" in out
    assert "perf-smoke [heap-c]: fresh 1.3600 entries/hop" in out
    assert "perf-smoke: ok" in out

    bloated = {"engines": {"heap-c": engine_record(events_per_hop=1.6)}}
    assert check_regression(bloated, committed) == 1
    assert "events-per-hop regression" in capsys.readouterr().err


def test_reentry_gate_counts_frames_not_rounded_ratios(tmp_path, capsys):
    # The gate reads the frame counts, which no rounding coarsens: 66 ->
    # 72 stays under the 10% ceiling of 72.6, and 73 fails it.
    committed = committed_artifact(tmp_path)
    ok = {"engines": {"heap-c": engine_record(reentries=72)}}
    assert check_regression(ok, committed) == 0
    assert "clos 72 re-entries vs committed 66" in capsys.readouterr().out
    risen = {"engines": {"heap-c": engine_record(reentries=73)}}
    assert check_regression(risen, committed) == 1
    assert "re-entry regression on clos" in capsys.readouterr().err
