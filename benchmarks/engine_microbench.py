"""Engine microbenchmark: the fig07 packet workload, events/sec tracked.

Runs the Figure 7 reduced-scale workload (Datamining arrivals at 10% load
over all five evaluation networks, 4 ms of arrivals + 10 ms drain) under
each kernel (``REPRO_KERNEL=py|c``) and records throughput to
``BENCH_engine.json`` so the engine's perf trajectory is tracked. The
pure-Python record is ``heap``, the compiled one ``heap-c``; the latter
doubles as a differential check: its deterministic observables (events,
entries, hops) must equal the py oracle's exactly or the bench aborts.

Metrics per engine configuration:

* ``events`` / ``wall_s`` / ``events_per_sec`` — raw dispatch throughput.
  Note that the fast-path engine *eliminates* events (no per-packet
  transmission-done event on an idle line), so its raw events/sec
  understates the win: fewer, heavier events remain.
* ``packet_hops`` / ``hops_per_sec`` — simulated work per second, the
  event-structure-independent measure.
* ``sched_entries`` / ``events_per_hop`` — scheduler insertions actually
  performed and their ratio to packet hops: the per-event interpreter
  cost. Both are deterministic (no wall clock involved), so the CI gate
  on ``events_per_hop`` has zero runner noise.
* ``reference_events_per_sec`` — the pre-PR engine's event count for this
  exact workload divided by the current wall time: throughput denominated
  in the *reference* event stream, directly comparable across engine
  rewrites (this is the number the CI perf-smoke gate and the >=3x
  acceptance threshold use).
* ``reentries`` / ``reentries_per_hop`` (``heap-c`` only) — Python frames
  the compiled kernel entered directly, counted by a profile hook in a
  separate untimed pass per network (:func:`count_reentries`), so the
  timed walls carry no hook. Deterministic like ``events_per_hop``: it
  says how much Python the compiled path still runs per hop. The gate
  compares the integer counts; the per-hop ratio is rounded to 4
  decimals, too coarse once a network re-enters only tens of times.

``--profile N`` runs the py pass under ``cProfile`` and prints the
top-N cumulative functions, so per-event interpreter-cost claims stay
attributable to specific code.

Further phases feed the artifact. Each subsystem price runs one
unrecorded warm-up per side, then :data:`PRICE_PAIRS` off/armed pairs in
alternating order, and records every sample, the best and the spread
per side (:func:`price_pairs`), with a deterministic check on every
pair:

* ``--sharded SCALE:W1[,W2...]`` — the sharded fig07 grid through the
  scenario Runner at SCALE, recording wall and cells/sec per worker
  count (the CI perf-smoke job gates on cells/sec with the same >2x rule
  as events/sec), plus ``chaos_overhead``: the same grid on the
  distributed executor with the chaos injector off and armed-but-quiet
  (rows must be identical).
* ``--faults`` — price the dynamic failure subsystem: armed-but-empty
  vs uninstalled walls (the deterministic observables must be identical
  or the bench aborts) plus an active 25% link draw, differentially
  checked py-vs-c when the compiled kernel is present.
* ``--telemetry`` — price the metrics subsystem (``REPRO_TELEMETRY``):
  armed vs off walls on the opera fig07 cell. The armed run's FctResult
  must equal the off run's exactly (telemetry is observation after
  simulation) and, with the compiled kernel present, the c-kernel's
  drained metric snapshot must equal the py kernel's — both checked
  with a bench abort.

Usage::

    PYTHONPATH=src python benchmarks/engine_microbench.py \
        --output BENCH_engine.json [--check BENCH_engine.json] [--repeat 3] \
        [--profile 25] [--sharded ci:2] [--telemetry] [--faults]

``--check`` compares the fresh run against a committed artifact and exits
non-zero on a >2x regression of ``reference_events_per_sec``, a >10%
regression of the deterministic ``events_per_hop`` event-count gate, a
>2x regression of the ``heap-c`` record, a compiled-kernel speedup below
1.8x or a >10% rise of any network's ``reentries`` count, or a >2x
regression of sharded cells/sec when both artifacts carry the sharded
phase.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.fctsim import build_network
from repro.net.kernel import compiled_available
from repro.obs.metrics import iter_ports as _all_ports
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.distributions import DATAMINING

MS = 1_000_000_000

#: The fixed microbenchmark workload (the fig07 reduced-scale point).
WORKLOAD = {
    "networks": ["opera", "expander", "clos", "rotornet-hybrid", "rotornet"],
    "k": 8,
    "n_racks": 8,
    "load": 0.10,
    "duration_ms": 4.0,
    "drain_ms": 10.0,
    "size_cap": 3_000_000,
    "seed": 0,
}

#: Pre-PR (single-heap, one-event-per-packet) engine measured on this exact
#: workload — committed alongside the fast-path engine so every future run
#: reports its speedup against the same anchor. Event counts are exact
#: (deterministic); the wall clock is the machine that produced this PR.
PRE_PR_REFERENCE = {
    "events": 970_020,
    "wall_s": 3.182,
    "events_per_sec": 304_845,
}

#: The engine records, named by kernel: ``heap`` keeps its historical
#: name so the artifact stays comparable across PRs.
ENGINES = {"heap": "py", "heap-c": "c"}


def count_reentries(sim, until_ps: int) -> int:
    """``sim.run(until_ps=...)``, counting the Python frames it enters.

    A profile hook counts ``call`` events of frames whose parent is this
    function's frame: under the compiled kernel those are exactly the
    Python callables ``c_sim_run`` calls itself (RotorLB, the stats
    callback, flow starts, and any router or resolver that is not a
    table), not what they call in turn. Under the py kernel the only
    such frame is ``Simulator.run``.
    """
    caller = sys._getframe()
    count = 0

    def hook(frame, event, _arg) -> None:
        nonlocal count
        if event == "call" and frame.f_back is caller:
            count += 1

    sys.setprofile(hook)
    try:
        sim.run(until_ps=until_ps)
    finally:
        sys.setprofile(None)
    return count


def run_network(kind: str, kernel: str = "py", reentries: bool = False) -> dict:
    """One network of the workload; returns events/entries/hops/wall.

    ``reentries`` runs the simulation under :func:`count_reentries` and
    adds its count; the wall clock then includes the hook's cost.
    """
    prev_kernel = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        t0 = time.perf_counter()
        net = build_network(
            kind, k=WORKLOAD["k"], n_racks=WORKLOAD["n_racks"], seed=WORKLOAD["seed"]
        )
        arrivals = PoissonArrivals(
            DATAMINING.truncated(WORKLOAD["size_cap"]),
            load=WORKLOAD["load"],
            n_hosts=len(net.hosts),
            hosts_per_rack=sum(1 for h in net.hosts if h.rack == 0),
            seed=WORKLOAD["seed"],
        )
        threshold = getattr(
            getattr(net, "network", None), "bulk_threshold_bytes", 1 << 62
        )
        for flow in arrivals.flows(duration_ps=int(WORKLOAD["duration_ms"] * MS)):
            if flow.size_bytes >= threshold:
                net.start_bulk_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
            else:
                net.start_low_latency_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
        until_ps = int((WORKLOAD["duration_ms"] + WORKLOAD["drain_ms"]) * MS)
        if reentries:
            counted = count_reentries(net.sim, until_ps)
        else:
            net.run(until_ps=until_ps)
        wall = time.perf_counter() - t0
    finally:
        if prev_kernel is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prev_kernel
    hops = sum(port.stats.sent_packets for port in _all_ports(net))
    row = {
        "network": kind,
        "events": net.sim.events_processed,
        "sched_entries": net.sim.sched_pushes,
        "packet_hops": hops,
        "wall_s": wall,
        "flows": len(net.stats.flows),
        "completed": len(net.stats.completed_flows()),
    }
    if reentries:
        row["reentries"] = counted
    return row


#: Deterministic observables a counting pass must share with the timed one.
DETERMINISTIC = ("events", "sched_entries", "packet_hops")


def add_reentries(record: dict) -> None:
    """Count the ``heap-c`` record's re-entries in one untimed pass.

    Each network runs once more under :func:`count_reentries`; its
    deterministic observables must equal the timed row's (the hook must
    not perturb the run) or the bench aborts. Adds ``reentries`` and
    ``reentries_per_hop`` per network and in total.
    """
    total = 0
    for row in record["per_network"]:
        counted = run_network(row["network"], "c", reentries=True)
        for field in DETERMINISTIC:
            if counted[field] != row[field]:
                raise SystemExit(
                    f"re-entry pass differential FAILED on {row['network']}: "
                    f"{field}={counted[field]} != timed {row[field]}"
                )
        row["reentries"] = counted["reentries"]
        row["reentries_per_hop"] = round(counted["reentries"] / row["packet_hops"], 4)
        total += counted["reentries"]
    record["reentries"] = total
    record["reentries_per_hop"] = round(total / record["packet_hops"], 4)


def _assemble_engine(kernel: str, best: list[dict]) -> dict:
    events = sum(r["events"] for r in best)
    entries = sum(r["sched_entries"] for r in best)
    hops = sum(r["packet_hops"] for r in best)
    wall = sum(r["wall_s"] for r in best)
    return {
        "kernel": kernel,
        "events": events,
        "sched_entries": entries,
        "packet_hops": hops,
        "events_per_hop": round(entries / hops, 4),
        "wall_s": round(wall, 4),
        "events_per_sec": int(events / wall),
        "hops_per_sec": int(hops / wall),
        "reference_events_per_sec": int(PRE_PR_REFERENCE["events"] / wall),
        "per_network": best,
    }


def run_microbench(repeat: int = 1, kernels: tuple[str, ...] = ("py", "c")) -> dict:
    # Engine configurations are measured round-robin (one full pass per
    # configuration per round, best-of-`repeat` rounds) so slow drift of
    # the host — tens of percent over minutes on shared 1-core boxes —
    # biases no configuration: back-to-back passes see the same machine.
    #
    # REPRO_KERNEL=c is never benchmarked when the compiled module is
    # absent — the auto fallback would silently produce py numbers under
    # a c label.
    if "c" in kernels and not compiled_available():
        print(
            "note: compiled kernel (_ckernel) not built; skipping the "
            "c-kernel records (build with `python setup.py build_ext "
            "--inplace`)"
        )
        kernels = tuple(k for k in kernels if k != "c")
    configs = [(name, kernel) for name, kernel in ENGINES.items() if kernel in kernels]
    best: dict[str, list[dict]] = {}
    for _ in range(repeat):
        for name, kernel in configs:
            rows = [run_network(kind, kernel) for kind in WORKLOAD["networks"]]
            if name not in best or sum(r["wall_s"] for r in rows) < sum(
                r["wall_s"] for r in best[name]
            ):
                best[name] = rows
    engines = {name: _assemble_engine(kernel, best[name]) for name, kernel in configs}
    # The c kernel is a differential fast path: its deterministic
    # observables must equal the py oracle's exactly — a bench run that
    # ever saw them diverge must not produce an artifact.
    if "heap" in engines and "heap-c" in engines:
        oracle, compiled = engines["heap"], engines["heap-c"]
        for field in DETERMINISTIC:
            if compiled[field] != oracle[field]:
                raise SystemExit(
                    f"kernel differential FAILED: heap-c.{field}="
                    f"{compiled[field]} != heap.{field}={oracle[field]}"
                )
    if "heap-c" in engines:
        add_reentries(engines["heap-c"])
    heap = engines.get("heap") or next(iter(engines.values()))
    doc = {
        "benchmark": "fig07-engine-microbench",
        "workload": WORKLOAD,
        "pre_pr_reference": PRE_PR_REFERENCE,
        "engines": engines,
        "speedup_wall_vs_pre_pr": round(
            PRE_PR_REFERENCE["wall_s"] / heap["wall_s"], 2
        ),
        "speedup_reference_eps_vs_pre_pr": round(
            heap["reference_events_per_sec"] / PRE_PR_REFERENCE["events_per_sec"], 2
        ),
    }
    if "heap-c" in engines and "heap" in engines:
        # The compiled-kernel acceptance number: simulated work per wall
        # second, c kernel over the py oracle, same machine, same round-
        # robin run.
        doc["kernel_speedup_hops_per_sec"] = round(
            engines["heap-c"]["hops_per_sec"] / engines["heap"]["hops_per_sec"],
            2,
        )
    return doc


def run_profile(top_n: int) -> None:
    """The fig07 workload under cProfile; prints the top-N cumulative rows.

    Makes per-event interpreter-cost claims attributable: the ranking
    shows where a hop's wall time actually goes (dispatch loop, port
    enqueue, endpoint callbacks, scheduler C calls, ...).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for kind in WORKLOAD["networks"]:
        run_network(kind)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print(f"--- cProfile, fig07 workload, top {top_n} by cumulative time ---")
    stats.print_stats(top_n)


# ------------------------------------------------------------ subsystem prices

#: Off/armed pairs behind every subsystem price.
PRICE_PAIRS = 3


def price_pairs(run_off, run_armed, what: str, pairs: int = PRICE_PAIRS) -> dict:
    """Price an armed-but-quiet subsystem from interleaved off/armed runs.

    ``run_off`` and ``run_armed`` each perform one run and return
    ``(wall_s, observable)``. Each side first runs once unrecorded, so
    neither side's samples carry first-run warm-up. Then come ``pairs``
    pairs whose order alternates (off first, then armed first, ...), so
    run order and host drift cannot pass for a price. Every pair's
    observables must be equal — the subsystem must not perturb what it
    observes — or the bench aborts naming ``what``. Returns every sample,
    the best and the spread per side, and ``ratio`` as armed best over
    off best.
    """
    runs = {"off": run_off, "armed": run_armed}
    for run in runs.values():
        run()  # warm-up, unrecorded
    samples: dict[str, list[float]] = {"off": [], "armed": []}
    for pair in range(pairs):
        seen = {}
        for side in ("off", "armed") if pair % 2 == 0 else ("armed", "off"):
            wall, seen[side] = runs[side]()
            samples[side].append(wall)
        if seen["armed"] != seen["off"]:
            raise SystemExit(
                f"{what} differential FAILED: armed {seen['armed']!r} != "
                f"off {seen['off']!r}"
            )
    record: dict = {}
    for side, walls in samples.items():
        record[side] = {
            "samples_s": [round(w, 4) for w in walls],
            "best_s": round(min(walls), 4),
            "spread_s": round(max(walls) - min(walls), 4),
        }
    record["ratio"] = round(min(samples["armed"]) / min(samples["off"]), 4)
    return record


def _price_row(label: str, record: dict, note: str) -> str:
    off, armed = record["off"], record["armed"]
    return (
        f"{label}: best {armed['best_s']:.3f} s (spread "
        f"{armed['spread_s']:.3f}) vs {off['best_s']:.3f} s off (spread "
        f"{off['spread_s']:.3f}) = {record['ratio']:.3f}x ({note})"
    )


# --------------------------------------------------------- faults overhead


def _run_opera_faulted(schedule, kernel: str = "py") -> dict:
    """The opera leg of the workload with the failure subsystem armed.

    ``schedule=None`` runs uninstalled; an empty schedule arms the
    machinery with nothing ever failing. Returns the deterministic
    observables plus wall time, so callers can both price the seam and
    differential-check it.
    """
    prev_kernel = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        t0 = time.perf_counter()
        net = build_network(
            "opera",
            k=WORKLOAD["k"],
            n_racks=WORKLOAD["n_racks"],
            seed=WORKLOAD["seed"],
        )
        if schedule is not None:
            net.install_failures(schedule)
        arrivals = PoissonArrivals(
            DATAMINING.truncated(WORKLOAD["size_cap"]),
            load=WORKLOAD["load"],
            n_hosts=len(net.hosts),
            hosts_per_rack=net.network.hosts_per_rack,
            seed=WORKLOAD["seed"],
        )
        threshold = net.network.bulk_threshold_bytes
        for flow in arrivals.flows(duration_ps=int(WORKLOAD["duration_ms"] * MS)):
            if flow.size_bytes >= threshold:
                net.start_bulk_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
            else:
                net.start_low_latency_flow(
                    flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
                )
        net.run(
            until_ps=int((WORKLOAD["duration_ms"] + WORKLOAD["drain_ms"]) * MS)
        )
        wall = time.perf_counter() - t0
    finally:
        if prev_kernel is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = prev_kernel
    stats = net.stats
    return {
        "events": net.sim.events_processed,
        "sched_entries": net.sim.sched_pushes,
        "packet_hops": sum(p.stats.sent_packets for p in _all_ports(net)),
        "blackholed_packets": stats.total_blackholed_packets(),
        "completed": len(stats.completed_flows()),
        "unrecoverable": len(stats.unrecoverable_flows),
        "wall_s": wall,
    }


def run_faults_overhead() -> dict:
    """Price the dynamic failure subsystem on the opera workload.

    :func:`price_pairs` of uninstalled vs armed-but-empty runs (every
    pair must be event-for-event identical — the seam's cost is one box
    read per routed packet), plus a mid-run 25% link draw (the recovery
    machinery actually working). When the compiled kernel is present the
    active draw is repeated under ``REPRO_KERNEL=c`` and every
    deterministic observable must match the py record — a bench run that
    saw the kernels diverge under failures must not produce an artifact.
    """
    import random as _random

    from repro.core.faults import FailureSchedule

    def run(schedule):
        rec = _run_opera_faulted(schedule)
        return rec["wall_s"], {
            field: rec[field] for field in ("events", "sched_entries", "packet_hops")
        }

    record = price_pairs(
        lambda: run(None),
        lambda: run(FailureSchedule.empty()),
        "faults armed-but-empty vs uninstalled",
    )

    def draw():
        return FailureSchedule.random(
            WORKLOAD["n_racks"],
            WORKLOAD["k"] // 2,
            "link",
            0.25,
            int(2.0 * MS),
            _random.Random(7),
        )

    active = _run_opera_faulted(draw())
    record["active"] = {
        "fraction": 0.25,
        "component": "link",
        "wall_s": round(active["wall_s"], 4),
        "events": active["events"],
        "blackholed_packets": active["blackholed_packets"],
        "completed": active["completed"],
        "unrecoverable": active["unrecoverable"],
    }
    if compiled_available():
        active_c = _run_opera_faulted(draw(), kernel="c")
        for field in (
            "events",
            "sched_entries",
            "packet_hops",
            "blackholed_packets",
            "completed",
            "unrecoverable",
        ):
            if active_c[field] != active[field]:
                raise SystemExit(
                    f"faults kernel differential FAILED: heap-c {field}="
                    f"{active_c[field]} != heap {field}={active[field]}"
                )
        record["active"]["kernel_identical"] = True
    return record


# ------------------------------------------------------- telemetry overhead


def _run_opera_telemetry(armed: bool, kernel: str = "py"):
    """One opera fig07 cell with telemetry off or armed.

    Returns ``(result, snapshot, wall_s)`` — the :class:`FctResult` (the
    deterministic observable an armed run must not perturb), the drained
    metric snapshot (``None`` when off) and the wall clock. The global
    registry is reset before and after so passes never see each other.
    """
    from repro.experiments.fctsim import run_fct_cell
    from repro.obs.metrics import REGISTRY

    prev = {key: os.environ.get(key) for key in ("REPRO_KERNEL", "REPRO_TELEMETRY")}
    os.environ["REPRO_KERNEL"] = kernel
    os.environ["REPRO_TELEMETRY"] = "1" if armed else "0"
    REGISTRY.reset()
    try:
        t0 = time.perf_counter()
        result = run_fct_cell(
            "opera",
            WORKLOAD["load"],
            "datamining",
            WORKLOAD["duration_ms"],
            WORKLOAD["seed"],
            "ci",
        )
        wall = time.perf_counter() - t0
    finally:
        for key, value in prev.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    snapshot = REGISTRY.snapshot() if armed else None
    REGISTRY.reset()
    return result, snapshot, wall


def run_telemetry_overhead() -> dict:
    """Price the metrics subsystem on the opera fig07 cell.

    :func:`price_pairs` of off vs armed runs: every armed run's
    :class:`FctResult` must equal its off partner's exactly — telemetry
    is pure observation after the simulation, and a bench run that ever
    saw it perturb a simulated observable must not produce an artifact.
    When the compiled kernel is present the armed cell is repeated under
    ``REPRO_KERNEL=c`` and both the result *and* the drained metric
    snapshot must match the py record: the counters live in shared
    ``__slots__`` both kernels write, so snapshot equality is the seam's
    whole contract.
    """
    armed_seen: dict = {}

    def run(armed: bool):
        result, snapshot, wall = _run_opera_telemetry(armed)
        if armed:
            armed_seen.update(result=result, snapshot=snapshot)
        return wall, result

    record = price_pairs(
        lambda: run(False), lambda: run(True), "telemetry armed vs off FctResult"
    )
    armed_result, snapshot = armed_seen["result"], armed_seen["snapshot"]
    # Counters + gauges + histograms actually drained, not sections.
    record["metrics"] = sum(len(section) for section in snapshot.values())
    if compiled_available():
        result_c, snap_c, _ = _run_opera_telemetry(True, kernel="c")
        if result_c != armed_result:
            raise SystemExit(
                "telemetry kernel differential FAILED: c-kernel FctResult "
                "!= py FctResult"
            )
        if snap_c != snapshot:
            diff = {
                k
                for k in set(snap_c) | set(snapshot)
                if snap_c.get(k) != snapshot.get(k)
            }
            raise SystemExit(
                "telemetry kernel differential FAILED: c-kernel metric "
                f"snapshot != py snapshot (differing keys: {sorted(diff)})"
            )
        record["kernel_identical"] = True
    return record


# ----------------------------------------------------------- sharded fig07


def _sweep_fig07(scale: str, workers: int, executor: str | None):
    """One cold-cache fig07 sweep: ``(result, wall seconds)``."""
    from repro.scenarios import ResultCache, Runner

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        result = Runner(
            workers=workers, cache=ResultCache(tmp), executor=executor
        ).run(names=["fig07"], overrides={"scale": scale})[0]
        return result, time.perf_counter() - start


def run_chaos_overhead(scale: str, workers: int, pairs: int = PRICE_PAIRS) -> dict:
    """Price the chaos harness at rest, where its seams live.

    The frame seam (``protocol.send_msg``), the worker's lease decisions
    and the auth seam run only on the distributed and service paths; the
    pool executor reads an armed injector once, for ``crash_coordinator``.
    So the pair always runs the distributed executor. Armed means
    ``REPRO_CHAOS`` with only a seed: every fault probability is zero,
    leaving one env lookup plus one rng draw per frame/lease decision,
    and the rows must equal the off sweep's.
    """

    def sweep(armed: bool):
        if armed:
            os.environ["REPRO_CHAOS"] = "seed=1"
        try:
            result, wall = _sweep_fig07(scale, workers, "distributed")
        finally:
            os.environ.pop("REPRO_CHAOS", None)
        return wall, result.rows

    saved = os.environ.pop("REPRO_CHAOS", None)
    try:
        record = price_pairs(
            lambda: sweep(False), lambda: sweep(True), "chaos armed-but-quiet rows",
            pairs,
        )
    finally:
        if saved is not None:
            os.environ["REPRO_CHAOS"] = saved
    return {"executor": "distributed", "workers": workers, **record}


def run_sharded_bench(
    scale: str, workers_list: tuple[int, ...], executor: str | None = None
) -> dict:
    """The full fig07 grid through the sharded Runner, per worker count.

    Every run starts from a cold cell cache (fresh temp dir), so the wall
    clock measures execution + merge, not cache reads; cells/sec is the
    scheduling-level throughput number the CI gate tracks. ``executor``
    selects the Runner backend (``--sharded-executor distributed``
    measures the TCP coordinator/worker path, auto-spawned local workers,
    including their process-startup cost). ``chaos_overhead`` runs on the
    distributed executor whatever ``executor`` says
    (:func:`run_chaos_overhead`).
    """
    from repro.scenarios import get

    plan = get("fig07").shard_plan(**get("fig07").bind({"scale": scale}))
    runs = {}
    base_wall = None
    for workers in workers_list:
        result, wall = _sweep_fig07(scale, workers, executor)
        assert result.cells is not None and result.cells[0] == len(plan)
        if base_wall is None:
            base_wall = wall
        runs[f"workers_{workers}"] = {
            "workers": workers,
            "wall_s": round(wall, 4),
            "cells": len(plan),
            "cells_per_sec": round(len(plan) / wall, 4),
            "speedup_vs_first": round(base_wall / wall, 2),
        }
    record = {
        "scale": scale,
        "cells": len(plan),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    if workers_list:
        record["chaos_overhead"] = run_chaos_overhead(scale, workers_list[0])
    if executor is not None:
        record["executor"] = executor
    return record


def format_rows(doc: dict) -> list[str]:
    rows = []
    for name, eng in doc["engines"].items():
        rows.append(
            f"{name:>11s}: {eng['events']:8d} events "
            f"({eng.get('sched_entries', eng['events']):8d} entries, "
            f"{eng.get('events_per_hop', 0):.4f}/hop) in {eng['wall_s']:6.3f} s "
            f"= {eng['events_per_sec']:>9,d} ev/s  "
            f"({eng['hops_per_sec']:>9,d} hops/s, "
            f"{eng['reference_events_per_sec']:>9,d} ref-ev/s)"
        )
        if "reentries" in eng:
            per_network = ", ".join(
                f"{r['network']} {r['reentries']}" for r in eng["per_network"]
            )
            rows.append(
                f"{name:>11s}: {eng['reentries']:8d} Python re-entries "
                f"({eng['reentries_per_hop']:.4f}/hop; {per_network})"
            )
    ref = doc["pre_pr_reference"]
    rows.append(
        f"pre-PR: {ref['events']:8d} events in {ref['wall_s']:6.3f} s "
        f"= {ref['events_per_sec']:>9,d} ev/s"
    )
    rows.append(
        f"speedup vs pre-PR: {doc['speedup_wall_vs_pre_pr']}x wall, "
        f"{doc['speedup_reference_eps_vs_pre_pr']}x reference events/sec"
    )
    if "kernel_speedup_hops_per_sec" in doc:
        rows.append(
            f"compiled kernel: {doc['kernel_speedup_hops_per_sec']}x "
            f"hops/sec (heap-c vs heap, deterministic observables equal)"
        )
    faults = doc.get("faults_overhead")
    if faults:
        rows.append(_price_row("faults armed-but-empty", faults, "events identical"))
        active = faults["active"]
        rows.append(
            f"faults active ({active['component']} {active['fraction']:.0%}): "
            f"{active['wall_s']:.3f} s, {active['blackholed_packets']} "
            f"blackholed, {active['completed']} completed"
            + (
                ", py==c"
                if active.get("kernel_identical")
                else ""
            )
        )
    telemetry = doc.get("telemetry_overhead")
    if telemetry:
        rows.append(
            _price_row(
                "telemetry armed",
                telemetry,
                f"{telemetry['metrics']} metrics, results identical"
                + (", py==c snapshots" if telemetry.get("kernel_identical") else ""),
            )
        )
    for scale, record in doc.get("sharded", {}).items():
        for run in record["runs"].values():
            rows.append(
                f"sharded fig07 ({scale}, {run['workers']} worker(s)): "
                f"{run['cells']} cells in {run['wall_s']:.2f} s = "
                f"{run['cells_per_sec']:.2f} cells/s "
                f"({run['speedup_vs_first']}x vs first)"
            )
        chaos = record.get("chaos_overhead")
        if chaos:
            rows.append(
                _price_row(
                    f"sharded fig07 ({scale}) chaos armed-but-quiet on "
                    f"{chaos['executor']}",
                    chaos,
                    "rows identical",
                )
            )
    return rows


def _best_cells_per_sec(doc: dict, scale: str) -> float | None:
    record = doc.get("sharded", {}).get(scale)
    if not record:
        return None
    return max(run["cells_per_sec"] for run in record["runs"].values())


#: ``--check`` floor on ``kernel_speedup_hops_per_sec`` (heap-c over heap).
KERNEL_SPEEDUP_FLOOR = 1.8


def check_reentries(fresh_c: dict, committed_c: dict) -> bool:
    """The re-entry gate: True when a network re-enters Python >10% more.

    Per network, against the committed ``heap-c`` record, with the same
    >10% rule as ``events_per_hop``, on the integer ``reentries`` count:
    it is deterministic on this workload, while the rounded per-hop ratio
    can cross a rounding boundary on one frame once counts are in the
    tens. Skipped with a note when the committed record carries no count.
    """
    committed = {
        r["network"]: r["reentries"]
        for r in committed_c["per_network"]
        if "reentries" in r
    }
    if not committed:
        print(
            "perf-smoke [heap-c]: note — committed artifact has no "
            "re-entry count; skipping the re-entry gate"
        )
        return False
    failed = False
    for row in fresh_c["per_network"]:
        before = committed.get(row["network"])
        if before is None or "reentries" not in row:
            continue
        ceiling = before * 1.10
        print(
            f"perf-smoke [heap-c]: {row['network']} {row['reentries']} "
            f"re-entries vs committed {before} (ceiling {ceiling:.1f}, "
            f"deterministic)"
        )
        if row["reentries"] > ceiling:
            print(
                f"perf-smoke: FAIL — >10% re-entry regression on "
                f"{row['network']} (re-entry gate)",
                file=sys.stderr,
            )
            failed = True
    return failed


def check_regression(doc: dict, committed_path: Path) -> int:
    """Exit status: non-zero on a regression.

    Gates ``reference_events_per_sec`` (>2x rule: the margin absorbs
    hosted-runner hardware variance), the deterministic event-count gate
    ``events_per_hop`` (>10% rule — no wall clock involved, so
    entry-count bloat fails crisply even on a noisy 1-core runner), the
    compiled-kernel gates (the re-entry gate among them:
    :func:`check_reentries`), and sharded cells/sec under the >2x rule
    whenever both the fresh run and the committed artifact carry the
    sharded phase. Each gate runs on the records both docs carry, so a
    ``--kernels c`` run (no ``heap`` record) skips the py gate with a
    note and takes the event-count gate on ``heap-c``.
    """
    committed = json.loads(committed_path.read_text())
    status = 0
    # The py-record gate runs when both docs carry it: a ``--kernels c``
    # run has no ``heap`` record, and skips it with a note.
    committed_py = committed["engines"].get("heap")
    fresh_py = doc["engines"].get("heap")
    if committed_py is None or fresh_py is None:
        print(
            "perf-smoke: note — this run or the committed artifact has no "
            "py (heap) record; skipping its events/sec gate"
        )
    else:
        baseline = committed_py["reference_events_per_sec"]
        fresh = fresh_py["reference_events_per_sec"]
        floor = baseline / 2
        print(
            f"perf-smoke: fresh {fresh:,d} ref-ev/s vs committed "
            f"{baseline:,d} (floor {floor:,.0f})"
        )
        if fresh < floor:
            print("perf-smoke: FAIL — >2x events/sec regression", file=sys.stderr)
            status = 1
    # The event-count gate is deterministic and the kernels agree on it
    # (the heap-c differential), so it runs on whichever record both
    # docs carry, the py one first.
    both = [name for name in ENGINES if name in committed["engines"]]
    shared = next((name for name in both if name in doc["engines"]), None)
    committed_eph = fresh_eph = None
    if shared is not None:
        committed_eph = committed["engines"][shared].get("events_per_hop")
        fresh_eph = doc["engines"][shared].get("events_per_hop")
    if committed_eph is not None and fresh_eph is not None:
        ceiling = committed_eph * 1.10
        print(
            f"perf-smoke [{shared}]: fresh {fresh_eph:.4f} entries/hop vs "
            f"committed {committed_eph:.4f} (ceiling {ceiling:.4f}, "
            f"deterministic)"
        )
        if fresh_eph > ceiling:
            print(
                "perf-smoke: FAIL — >10% events-per-hop regression "
                "(event-count gate)",
                file=sys.stderr,
            )
            status = 1
    # Compiled-kernel gates, active only when both the fresh run and the
    # committed artifact carry the heap-c record (a checkout without the
    # extension built skips them with a note instead of failing: the
    # kernel is an accelerator, its absence is a degraded mode, and the
    # dedicated CI kernel job is the place that *requires* the build).
    committed_c = committed["engines"].get("heap-c")
    fresh_c = doc["engines"].get("heap-c")
    if committed_c is not None and fresh_c is None:
        print(
            "perf-smoke: note — committed artifact has a heap-c record but "
            "this run has no compiled kernel; skipping the kernel gates"
        )
    elif committed_c is not None and fresh_c is not None:
        c_floor = committed_c["reference_events_per_sec"] / 2
        print(
            f"perf-smoke [heap-c]: fresh "
            f"{fresh_c['reference_events_per_sec']:,d} ref-ev/s vs committed "
            f"{committed_c['reference_events_per_sec']:,d} "
            f"(floor {c_floor:,.0f})"
        )
        if fresh_c["reference_events_per_sec"] < c_floor:
            print(
                "perf-smoke: FAIL — >2x events/sec regression on the "
                "compiled kernel",
                file=sys.stderr,
            )
            status = 1
        # The kernel must stay a *speedup*: 2.75x when the native event
        # heap landed (5.29x in the current artifact), gated low enough
        # that hosted-runner noise cannot flake the job while a real
        # fast-path regression (compiled methods silently delegating to
        # Python) still fails crisply. The list-of-tuples heap it replaced
        # measured 1.98x, above this floor: going back to it would show
        # only in the heap-c walls, whose gate is the loose 2x rule above.
        speedup = doc.get("kernel_speedup_hops_per_sec")
        if speedup is not None:
            print(
                f"perf-smoke [heap-c]: {speedup}x hops/sec vs py kernel "
                f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
            )
            if speedup < KERNEL_SPEEDUP_FLOOR:
                print(
                    "perf-smoke: FAIL — compiled kernel speedup below "
                    f"{KERNEL_SPEEDUP_FLOOR}x (fast path not engaging?)",
                    file=sys.stderr,
                )
                status = 1
        if check_reentries(fresh_c, committed_c):
            status = 1
    shared_scales = set(doc.get("sharded", {})) & set(committed.get("sharded", {}))
    for scale in sorted(shared_scales):
        fresh_cells = _best_cells_per_sec(doc, scale)
        committed_cells = _best_cells_per_sec(committed, scale)
        assert fresh_cells is not None and committed_cells is not None
        print(
            f"perf-smoke [{scale}]: fresh {fresh_cells:.2f} cells/s vs "
            f"committed {committed_cells:.2f} (floor {committed_cells / 2:.2f})"
        )
        if fresh_cells < committed_cells / 2:
            print(
                f"perf-smoke: FAIL — >2x cells/sec regression at {scale} scale",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("perf-smoke: ok")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--check", type=Path, default=None,
                        help="committed BENCH_engine.json to gate against")
    parser.add_argument("--repeat", type=int, default=1,
                        help="take the best of N runs per engine")
    parser.add_argument("--kernels", default="py,c",
                        help="comma-separated kernel list (py, c); c is "
                        "skipped with a note when the compiled module is "
                        "not built")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="run the fig07 workload under cProfile and "
                        "print the top-N cumulative functions")
    parser.add_argument("--faults", action="store_true",
                        help="price the dynamic failure subsystem "
                        "(armed-but-empty vs off, plus an active draw)")
    parser.add_argument("--telemetry", action="store_true",
                        help="price the metrics subsystem (armed vs off, "
                        "deterministic-equality checked)")
    parser.add_argument("--sharded", action="append", default=[],
                        metavar="SCALE:W1,W2",
                        help="run the sharded fig07 grid at SCALE for each "
                        "worker count (repeatable), e.g. ci:1,2")
    parser.add_argument("--sharded-executor", default=None,
                        choices=("local", "pool", "distributed"),
                        help="Runner backend for --sharded runs (default: "
                        "pool when workers > 1)")
    args = parser.parse_args(argv)
    # Validate every --sharded spec up front: a typo must not cost the
    # minutes the main microbench takes before erroring.
    sharded_specs: list[tuple[str, tuple[int, ...]]] = []
    for spec in args.sharded:
        scale, _, workers_text = spec.partition(":")
        try:
            workers_list = tuple(int(w) for w in workers_text.split(",") if w)
        except ValueError:
            workers_list = ()
        if not scale or not workers_list:
            parser.error(f"--sharded expects SCALE:W1[,W2...], got {spec!r}")
        sharded_specs.append((scale, workers_list))
    if args.profile:
        run_profile(args.profile)
        if args.output is None and args.check is None and not sharded_specs:
            # Profiling only: skip the timed phases, nothing else asked.
            return 0
    kernels = tuple(k for k in args.kernels.split(",") if k)
    doc = run_microbench(repeat=args.repeat, kernels=kernels)
    if args.faults:
        doc["faults_overhead"] = run_faults_overhead()
    if args.telemetry:
        doc["telemetry_overhead"] = run_telemetry_overhead()
    for scale, workers_list in sharded_specs:
        doc.setdefault("sharded", {})[scale] = run_sharded_bench(
            scale, workers_list, executor=args.sharded_executor
        )
    for row in format_rows(doc):
        print(row)
    if args.output is not None:
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check is not None and args.check.exists():
        return check_regression(doc, args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
