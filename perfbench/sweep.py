"""One timed sweep in a fresh interpreter (the benchmark's child process).

``python3 sweep.py '<spec json>'`` runs ``Runner.sweep`` exactly the way
``repro sweep`` does — public Runner, the workload's executor and worker
count, an empty private cache root — and writes one JSON document to
``spec["out"]``. The parent (``run.py``) launches this file so that every
timed sweep pays interpreter start, imports, registry load, planning and
pool fork or worker spawn, which is what ``setup_s`` measures.

Spec keys: ``scenario``, ``grid``, ``overrides``, ``executor``,
``workers``, ``cache_root``, ``out``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec: dict) -> dict:
    from repro.net.kernel import engine_classes
    from repro.obs.trace import list_traces, load_trace
    from repro.scenarios import Runner, registry
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.encode import canonical_json, to_portable

    progress: list[tuple[float, float, bool]] = []

    def on_progress(rec) -> None:
        progress.append((time.monotonic(), rec.duration_s, rec.failed))

    out: dict = {"ok": False, "error": None}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        runner = Runner(
            workers=spec["workers"],
            cache=ResultCache(spec["cache_root"]),
            executor=spec["executor"],
            progress=on_progress,
        )
        results = runner.sweep(spec["scenario"], spec["grid"], spec["overrides"])
    except Exception:
        out["error"] = traceback.format_exc()
        results = []
    out["sweep_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    out["rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["progress"] = progress
    # Resolved after the sweep so the probe's import does not move work
    # out of the workers and into the measured setup.
    out["kernel"] = engine_classes().name
    sc = registry.get(spec["scenario"])
    jobs = []
    restored = 0
    for res in results:
        restored += int(res.cached) + (res.cells[1] if res.cells else 0)
        plan = sc.shard_plan(**res.params)
        values = res.value if res.value is not None else []
        jobs.append(
            {
                "params": canonical_json(res.params),
                "rows": res.rows,
                "cells": {
                    cell.key: canonical_json(to_portable(value))
                    for cell, value in zip(plan, values)
                },
            }
        )
    out["jobs"] = jobs
    out["restored"] = restored
    traces = list_traces(spec["cache_root"])
    out["trace_events"] = load_trace(traces[0]) if traces else []
    out["ok"] = out["error"] is None
    return out


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    doc = main(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
