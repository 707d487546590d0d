"""Engine throughput: fig07 microbenchmark under both kernels.

Runs the fixed Figure 7 packet workload through the pure-Python engine and
(when built) the compiled kernel, asserts the fast-path engine's floor,
and writes a local ``BENCH_engine.local.json`` snapshot. The *committed*
``BENCH_engine.json`` (the CI perf-smoke anchor) is only updated
deliberately, via::

    PYTHONPATH=src python benchmarks/engine_microbench.py \
        --repeat 3 --sharded ci:2 --telemetry --faults --output BENCH_engine.json
"""

import json
from pathlib import Path

from conftest import emit, run_once

from engine_microbench import PRE_PR_REFERENCE, format_rows, run_microbench

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_engine.local.json"


def test_engine_microbench(benchmark):
    # run_microbench aborts if heap-c and heap disagree on any count.
    doc = run_once(benchmark, run_microbench)
    emit("Engine microbenchmark (fig07 workload)", format_rows(doc))
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n")
    heap = doc["engines"]["heap"]
    # The fast-path engine must stay comfortably ahead of the pre-PR
    # engine's event throughput on the reference stream (>=3x at commit
    # time; this floor only guards against catastrophic regressions since
    # CI machines vary).
    assert heap["reference_events_per_sec"] > PRE_PR_REFERENCE["events_per_sec"]
