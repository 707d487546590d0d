#!/usr/bin/env python3
"""Sweep benchmark: time-to-rows for fig07 sweeps and a per-layer budget.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig07-default --seed 0 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Each timed sweep runs ``Runner.sweep`` in a fresh interpreter
(``sweep.py``) on an empty private cache root, with every ``REPRO_*``
variable scrubbed. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``README.md``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is built from the checkout's sources into ``.bench_build``
(a copy of ``src/`` with the compiled engine kernel built in place) the
first time a run sees those sources; later runs reuse it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

import derive  # noqa: E402  (script directory is on sys.path)


class Workload(NamedTuple):
    scenario: str
    scale: str
    executor: str
    #: Sweep points (scenario seeds) per workload seed.
    points: int
    #: Report ``sweep_s``/``cpu_s`` at the stated input size (see
    #: ``input_size``). A one-seed default-scale grid simulates up to
    #: 2.6x more hops on one seed than on another, and its wall is
    #: mostly its one Clos 25%-load cell, so raw times spread ~50% over
    #: seeds. The 8-seed ci grid already averages its input, and its
    #: time is mostly per-unit harness work that hops do not predict,
    #: so scaling by hops would add spread instead of removing it.
    normalize: bool


WORKLOADS: dict[str, Workload] = {
    "fig07-default": Workload("fig07", "default", "pool", 1, True),
    "fig07-ci-distributed": Workload("fig07", "ci", "distributed", 8, False),
}

#: Networks whose engine time is split out as ``net.run_s.<network>``.
NETWORKS = ("opera", "expander", "clos", "rotornet", "rotornet-hybrid")

WORKERS = min(2, os.cpu_count() or 1)

#: Engine kernel every sweep runs. ``REPRO_KERNEL=auto`` would fall back
#: to the pure-Python engine when the extension is missing, and such a
#: result must never be compared with compiled-kernel numbers, so a run
#: without the compiled kernel refuses instead.
KERNEL = "c"

#: Wall-clock ceiling for one child sweep.
CHILD_TIMEOUT_S = 150.0

#: Timed sweeps stop early rather than push a run past this many seconds.
RUN_LIMIT_S = 140.0

#: Engine microseconds per simulated packet hop of a default-scale cell,
#: per network, on a 2-vCPU Xeon VM: a least-squares fit over the cells
#: of 20 seeds. Frozen, so the input size a seed is scaled by depends on
#: its inputs alone and never on the program being measured.
HOP_COST_US = {
    "opera": 2.9,
    "expander": 1.9,
    "clos": 2.0,
    "rotornet": 2.6,
    "rotornet-hybrid": 4.1,
}

PER_LAYER_UNITS = {
    "net.run_s": "s",
    **{f"net.run_s.{net}": "s" for net in NETWORKS},
    "net.events": "count",
    "net.sched_entries": "count",
    "net.trains": "count",
    "net.packet_hops": "count",
    "net.events_per_hop": "ratio",
    "net.hops_per_run_s": "1/s",
    "net.rotorlb.direct_bytes": "bytes",
    "net.rotorlb.vlb_bytes": "bytes",
    "net.rotorlb.bytes_share": "ratio",
    "net.port.trimmed": "count",
    "net.drops.queue_overflow": "count",
    "net.flows": "count",
    "net.flows_completed": "count",
    "net.build_s": "s",
    "workloads.arrivals_s": "s",
    "net.flow_start_s": "s",
    "net.stats_s": "s",
    "scenarios.encode_s": "s",
    "scenarios.encode_bytes": "bytes",
    "scenarios.cache_write_s": "s",
    "scenarios.merge_s": "s",
    "scenarios.unit_busy_s": "s",
    "scenarios.worker_idle_frac": "ratio",
    "scenarios.peak_rss_mb": "MB",
    "distrib.spawn_s": "s",
    "distrib.lease_overhead_s.p50": "s",
    "distrib.lease_overhead_s.p90": "s",
    "distrib.releases": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

END_TO_END_UNITS = {
    "sweep_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
}

#: Figures printed beside the end-to-end metrics, not bounded.
RAW_UNITS = {
    "sweep_s_raw": "s",
    "cpu_s_raw": "s",
    "hops": "count",
    "hops_per_s": "1/s",
    "sweeps": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no build, no kernel)."""


# ------------------------------------------------------------------ build


def source_digest(root: Path) -> str:
    """sha256 over ``setup.py`` and every source file under ``src/``."""
    h = hashlib.sha256()
    files = [root / "setup.py"]
    for dirpath, dirnames, filenames in os.walk(root / "src"):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith((".pyc", ".so")):
                files.append(Path(dirpath) / name)
    for path in files:
        h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_build(root: Path, env: dict[str, str]) -> tuple[Path, str]:
    """Copy ``src/`` into ``.bench_build/src`` and build the C kernel there.

    Rebuilt only when the source digest changed since the last build.
    Returns ``(build src dir, source digest)``.
    """
    if not (root / "src" / "repro").is_dir() or not (root / "setup.py").is_file():
        raise BenchError(f"no program sources under {root} (src/repro, setup.py)")
    digest = source_digest(root)
    out = BUILD / "src"
    stamp = BUILD / "build.stamp"
    if out.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return out, digest
    staging = BUILD / "staging"
    shutil.rmtree(staging, ignore_errors=True)
    shutil.copytree(
        root / "src",
        staging / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.so"),
    )
    shutil.copy2(root / "setup.py", staging / "setup.py")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=staging,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=600,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode("utf-8", "replace")[-4000:])
        raise BenchError("building the program failed")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(staging / "src", out)
    shutil.rmtree(staging, ignore_errors=True)
    stamp.write_text(digest)
    return out, digest


# ------------------------------------------------------------ environment


def scrubbed_env() -> tuple[dict[str, str], dict[str, str]]:
    """The environment minus every ``REPRO_*`` variable, and what was removed."""
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    return env, removed


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ----------------------------------------------------------- child sweeps


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            found.append(int(entry))
    return found


def _reap_group(pgid: int) -> int:
    """Kill whatever a finished child left in its process group.

    Returns how many processes were left behind (0 for a clean sweep).
    """
    left = _group_members(pgid)
    if not left:
        return 0
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError:
        pass
    deadline = time.monotonic() + 10
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(left)


class Sweeper:
    """Launches one fresh-interpreter sweep at a time for one workload."""

    def __init__(self, workload: str, seed: int, env: dict[str, str],
                 workdir: Path) -> None:
        wl = WORKLOADS[workload]
        self.name = workload
        self.normalize = wl.normalize
        self.scenario = wl.scenario
        self.grid = {"seed": [seed * wl.points + i for i in range(wl.points)]}
        self.overrides = {"scale": wl.scale}
        self.executor = wl.executor
        self.env = env
        self.workdir = workdir
        self.count = 0

    def run(self, telemetry: bool = False) -> dict[str, Any]:
        self.count += 1
        tag = f"sweep{self.count}"
        cache_root = self.workdir / f"{tag}-cache"
        out_path = self.workdir / f"{tag}.json"
        spec = {
            "scenario": self.scenario,
            "grid": self.grid,
            "overrides": self.overrides,
            "executor": self.executor,
            "workers": WORKERS,
            "cache_root": str(cache_root),
            "out": str(out_path),
        }
        env = dict(self.env, REPRO_CACHE_DIR=str(cache_root))
        if telemetry:
            env["REPRO_TELEMETRY"] = "1"
        log_path = self.workdir / f"{tag}.log"
        timed_out = False
        with open(log_path, "wb") as log:
            launch = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "sweep.py"), json.dumps(spec)],
                cwd=self.workdir,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                _reap_group(proc.pid)
                raise
        stray = _reap_group(proc.pid)
        doc: dict[str, Any] = {"ok": False, "error": None}
        if out_path.is_file():
            doc = json.loads(out_path.read_text())
        if timed_out:
            doc["ok"], doc["error"] = False, f"timed out after {CHILD_TIMEOUT_S}s"
        elif proc.returncode != 0 and doc.get("error") is None:
            doc["ok"], doc["error"] = False, f"exit code {proc.returncode}"
        if not doc["ok"]:
            tail = log_path.read_text("utf-8", "replace")[-3000:]
            sys.stderr.write(
                f"[perfbench] {tag} failed: {doc.get('error')}\n{tail}\n"
            )
        doc["stray"] = stray
        doc["setup_s"] = None
        records = [(arrival, dur) for arrival, dur, _f in doc.get("progress", [])]
        if records:
            doc["setup_s"] = derive.setup_from_progress(launch, records)
        shutil.rmtree(cache_root, ignore_errors=True)
        return doc


# ------------------------------------------------------------ correctness


def cell_values(jobs: list[dict[str, Any]]) -> dict[str, str]:
    """``seed=<s>:<cell key>`` -> the cell's canonical portable value."""
    out = {}
    for job in jobs:
        seed = json.loads(job["params"])["seed"]
        for key, canon in job["cells"].items():
            out[f"seed={seed}:{key}"] = canon
    return out


def cell_digests(jobs: list[dict[str, Any]]) -> dict[str, str]:
    """sha256 of every cell value, plus ``seed=<s>:rows`` for merged rows."""
    out = {label: derive.sha256_text(v) for label, v in cell_values(jobs).items()}
    for job in jobs:
        if "rows" in job:
            seed = json.loads(job["params"])["seed"]
            out[f"seed={seed}:rows"] = derive.sha256_text("\n".join(job["rows"]))
    return out


class Ledger:
    """Units attempted and failed, and why, over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, text: str, units: int = 0) -> None:
        self.failed += units
        self.problems.append(text)

    def sweep(self, doc: dict[str, Any], expected_units: int) -> bool:
        """Account one child sweep; False when it is invalid."""
        self.attempted += expected_units
        progress = doc.get("progress", [])
        failed = sum(1 for *_r, f in progress if f)
        missing = max(0, expected_units - len(progress))
        if failed or missing:
            self.problem(
                f"{failed} unit(s) failed, {missing} never completed",
                failed + missing,
            )
        ok = doc["ok"] and not failed and not missing
        if doc.get("restored"):
            self.problem(f"{doc['restored']} cache hit(s) in a cold-cache run")
            ok = False
        if doc.get("stray"):
            self.problem(f"{doc['stray']} process(es) left behind")
            ok = False
        if doc.get("kernel") not in (None, KERNEL):
            self.problem(f"sweep ran the {doc['kernel']} kernel, not {KERNEL}")
            ok = False
        return ok

    def compare(self, what: str, observed: dict[str, str],
                expected: dict[str, str]) -> None:
        bad = derive.digest_mismatches(observed, expected)
        if bad:
            self.problem(f"{what}: {len(bad)} mismatch(es), e.g. {bad[:3]}",
                         len(bad))


def load_reference() -> dict[str, Any]:
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def plan_cells(sweeper: Sweeper) -> list[Any]:
    """Every ``(sweep point seed, Cell)`` of the workload, in plan order."""
    from repro.scenarios import registry

    sc = registry.get(sweeper.scenario)
    cells = []
    for seed in sweeper.grid["seed"]:
        params = sc.bind(dict(sweeper.overrides, seed=seed))
        cells.extend((seed, cell) for cell in sc.shard_plan(**params))
    return cells


def spot_check(sweeper: Sweeper, swept: dict[str, str], ledger: Ledger) -> None:
    """Recompute each network's cheapest cell in-process; require the
    pooled or distributed sweep's value bit for bit."""
    from repro.scenarios import registry
    from repro.scenarios.encode import canonical_json, to_portable

    sc = registry.get(sweeper.scenario)
    cheapest: dict[str, tuple[int, Any]] = {}
    for seed, cell in plan_cells(sweeper):
        net = cell.params["network"]
        if net not in cheapest or cell.cost < cheapest[net][1].cost:
            cheapest[net] = (seed, cell)
    observed = {}
    for seed, cell in cheapest.values():
        label = f"seed={seed}:{cell.key}"
        ledger.attempted += 1
        value = sc.run_cell(**cell.params)
        observed[label] = canonical_json(to_portable(value))
    ledger.compare(
        "in-process cells vs sweep",
        observed,
        {label: swept.get(label, "") for label in observed},
    )


# --------------------------------------------------------------- metrics


def merged_counters(events: list[dict[str, Any]]) -> dict[str, int]:
    from repro.obs.metrics import merge_snapshots, validate_snapshot

    snaps = [
        validate_snapshot(ev["telemetry"])
        for ev in events
        if ev.get("ev") == "completed" and ev.get("telemetry")
    ]
    return merge_snapshots(snaps)["counters"]


def cell_hops(events: list[dict[str, Any]]) -> dict[str, int]:
    """Unit label -> packet hops it simulated, from an armed one-seed
    sweep's spans (labels repeat across the seeds of a larger grid)."""
    return {
        ev["label"]: ev["telemetry"]["counters"].get("port.sent_packets", 0)
        for ev in events
        if ev.get("ev") == "completed" and ev.get("telemetry")
    }


def input_size(hops: dict[str, int]) -> tuple[float, float]:
    """``(makespan, total)`` seconds of a one-seed grid's modelled work.

    Each cell's work is its hops times its network's ``HOP_COST_US``; the
    makespan hands cells out longest first over ``WORKERS`` workers, as
    the pool does, so a seed whose Clos cell alone outlasts the rest of
    the grid is sized by that cell.
    """
    work = [
        HOP_COST_US[label.partition(":")[2].partition("@")[0]] * n * 1e-6
        for label, n in hops.items()
    ]
    return derive.lpt_makespan(work, WORKERS), sum(work)


def timed_run(sweeper: Sweeper, seconds: float, seed: int, ledger: Ledger) -> tuple[dict[str, float], dict[str, float]]:
    """Timed sweeps for ``seconds``, then one armed sweep for hop counts.

    Returns the end-to-end metrics and the raw figures behind them.
    """
    n_units = len(plan_cells(sweeper))
    docs = []
    t0 = time.monotonic()
    while True:
        doc = sweeper.run()
        valid = ledger.sweep(doc, n_units)
        docs.append(doc)
        if not valid:
            break
        elapsed = time.monotonic() - t0
        typical = derive.median([d["sweep_s"] for d in docs])
        if len(docs) >= 2 and elapsed + typical > seconds:
            break
        # The next timed sweep and the armed one must still fit in the
        # time a run may take.
        if elapsed + 2 * typical > RUN_LIMIT_S:
            break
    armed = sweeper.run(telemetry=True)
    ledger.sweep(armed, n_units)

    first = cell_digests(docs[0].get("jobs", []))
    for doc in docs[1:] + [armed]:
        ledger.compare("repeat sweep vs first", cell_digests(doc.get("jobs", [])),
                       first)
    reference = load_reference().get(sweeper.name)
    if reference is not None and reference["seed"] == seed:
        ledger.compare("sweep vs reference digests", first, reference["digests"])
    spot_check(sweeper, cell_values(docs[0].get("jobs", [])), ledger)

    # A failed sweep still timed something; its units are in ``failed``.
    good = [d for d in docs if d["ok"]] or [d for d in docs if "sweep_s" in d]
    if not good:
        raise BenchError("no timed sweep ran")
    events = armed.get("trace_events", [])
    hops = merged_counters(events).get("port.sent_packets", 0)
    if not hops:
        raise BenchError("the armed sweep recorded no packet hops")
    # Time-to-rows at the stated input size: the seed-0 grid's.
    wall_scale = cpu_scale = 1.0
    if sweeper.normalize:
        makespan0, total0 = input_size(load_reference()[sweeper.name]["cell_hops"])
        makespan, total = input_size(cell_hops(events))
        wall_scale, cpu_scale = makespan0 / makespan, total0 / total
    sweep_s = derive.median([d["sweep_s"] for d in good])
    cpu_s = derive.median([d["cpu_s"] for d in good])
    setups = [d["setup_s"] for d in good + [armed] if d.get("setup_s") is not None]
    raw = {
        "sweep_s_raw": sweep_s,
        "cpu_s_raw": cpu_s,
        "hops": hops,
        "hops_per_s": hops / sweep_s,
        "sweeps": len(good),
    }
    return {
        "sweep_s": sweep_s * wall_scale,
        "cpu_s": cpu_s * cpu_scale,
        "setup_s": derive.median(setups),
    }, raw


def traced_run(sweeper: Sweeper, seed: int, ledger: Ledger) -> tuple[
        dict[str, float], list[dict[str, Any]]]:
    """Per-layer budget: untraced sweep, armed sweep, in-process pass."""
    import layers

    n_units = len(plan_cells(sweeper))
    plain = sweeper.run()
    ledger.sweep(plain, n_units)
    armed = sweeper.run(telemetry=True)
    ledger.sweep(armed, n_units)
    if not (plain["ok"] and armed["ok"]):
        raise BenchError("traced run: a sweep failed")
    ledger.compare("armed sweep vs plain", cell_digests(armed["jobs"]),
                   cell_digests(plain["jobs"]))
    reference = load_reference().get(sweeper.name)
    if reference is not None and reference["seed"] == seed:
        ledger.compare("sweep vs reference digests", cell_digests(plain["jobs"]),
                       reference["digests"])

    cache_root = sweeper.workdir / "inprocess-cache"
    budget = layers.traced_pass(
        sweeper.scenario, sweeper.grid, sweeper.overrides, str(cache_root)
    )
    shutil.rmtree(cache_root, ignore_errors=True)
    ledger.attempted += n_units
    ledger.compare("in-process pass vs sweep", cell_values(budget["jobs"]),
                   cell_values(armed["jobs"]))

    events = armed["trace_events"]
    counters = merged_counters(events)
    for name, value in budget["engine"].items():
        if counters.get(f"engine.{name}") != value:
            ledger.problem(f"engine.{name}: in-process {value} != "
                           f"sweep {counters.get(f'engine.{name}')}")
    totals = budget["totals"]
    hops = counters.get("port.sent_packets", 0)
    events_n = counters.get("engine.events", 0)
    direct = budget["rotorlb"]["direct_bytes"]
    vlb = budget["rotorlb"]["vlb_bytes"]
    busy = sum(float(ev.get("duration_s") or 0.0) for ev in events
               if ev.get("ev") == "completed")
    overheads = derive.lease_overheads(events)
    m: dict[str, float] = {"net.run_s": totals["net.run_s"]}
    for net in NETWORKS:
        m[f"net.run_s.{net}"] = budget["run_by_network"].get(net, 0.0)
    m.update({
        "net.events": events_n,
        "net.sched_entries": counters.get("engine.sched_entries", 0),
        "net.trains": counters.get("engine.trains", 0),
        "net.packet_hops": hops,
        "net.events_per_hop": events_n / hops if hops else 0.0,
        "net.hops_per_run_s": hops / totals["net.run_s"],
        "net.rotorlb.direct_bytes": direct,
        "net.rotorlb.vlb_bytes": vlb,
        "net.rotorlb.bytes_share": (direct + vlb) / max(
            1, counters.get("port.sent_bytes", 0)),
        "net.port.trimmed": counters.get("port.trimmed", 0),
        "net.drops.queue_overflow": counters.get("drops.queue_overflow", 0),
        "net.flows": counters.get("flows.total", 0),
        "net.flows_completed": counters.get("flows.completed", 0),
    })
    for layer in ("net.build_s", "workloads.arrivals_s", "net.flow_start_s",
                  "net.stats_s", "scenarios.encode_s", "scenarios.cache_write_s",
                  "scenarios.merge_s"):
        m[layer] = totals[layer]
    m.update({
        "scenarios.encode_bytes": budget["encode_bytes"],
        "scenarios.unit_busy_s": busy,
        "scenarios.worker_idle_frac": derive.worker_idle_frac(
            busy, WORKERS, armed["sweep_s"]),
        "scenarios.peak_rss_mb": plain["rss_kb"] / 1024.0,
        "distrib.spawn_s": derive.spawn_s(events),
        "distrib.lease_overhead_s.p50": derive.nearest_rank(overheads, 50),
        "distrib.lease_overhead_s.p90": derive.nearest_rank(overheads, 90),
        "distrib.releases": derive.releases(events),
        "trace.coverage": budget["coverage"],
        "trace.overhead": armed["sweep_s"] / plain["sweep_s"],
    })
    return m, budget["spans"]


# ------------------------------------------------------------------ main


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict[str, str]) -> dict[str, Any]:
    workdir = BUILD / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sweeper = Sweeper(workload, seed, env, workdir)
    ledger = Ledger()
    raw: dict[str, float] = {}
    try:
        if trace:
            values, spans = traced_run(sweeper, seed, ledger)
            spans_path = BUILD / "traces" / f"{workload}-seed{seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                       for k, v in values.items()}
        else:
            values, raw = timed_run(sweeper, seconds, seed, ledger)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "problems": ledger.problems,
        "raw": raw,
    }


def write_reference(env: dict[str, str]) -> None:
    """Record seed-0 digests of every workload's merged result."""
    ref = {}
    for workload in WORKLOADS:
        workdir = BUILD / "runs" / f"reference-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        doc = Sweeper(workload, 0, env, workdir).run(telemetry=True)
        shutil.rmtree(workdir, ignore_errors=True)
        if not doc["ok"]:
            raise BenchError(f"reference sweep for {workload} failed")
        ref[workload] = {"seed": 0, "digests": cell_digests(doc["jobs"])}
        if WORKLOADS[workload].normalize:
            ref[workload]["cell_hops"] = cell_hops(doc["trace_events"])
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True)
                                         + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record seed-0 result digests in reference.json")
    args = ap.parse_args(argv)

    env, removed = scrubbed_env()
    try:
        build_src, digest = ensure_build(ROOT, env)
        env["PYTHONPATH"] = str(build_src)
        env["REPRO_KERNEL"] = KERNEL
        env["TMPDIR"] = str(BUILD / "tmp")
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        for name in removed:
            del os.environ[name]
        os.environ["REPRO_KERNEL"] = KERNEL
        sys.path.insert(0, str(build_src))
        from repro.experiments.fctsim import scheduler_for_scale
        from repro.net.kernel import compiled_available

        if not compiled_available():
            raise BenchError(
                "the compiled engine kernel did not build; a py-kernel "
                "result must not be compared with c-kernel numbers"
            )
        if args.write_reference:
            write_reference(env)
            return 0
        record = {
            "nproc": os.cpu_count(),
            "workers": WORKERS,
            "python": platform.python_version(),
            "git_commit": git_commit(ROOT),
            "source_sha256": digest,
            "seed": args.seed,
            "kernel": KERNEL,
            "scrubbed": {k: "<redacted>" if k == "REPRO_SECRET" else v
                         for k, v in removed.items()},
            "effective": {
                "REPRO_KERNEL": KERNEL,
                "REPRO_SCHEDULER": {scale: scheduler_for_scale(scale)
                                    for _s, scale, *_r in WORKLOADS.values()},
                "REPRO_COALESCE": "unset (engine default)",
                "REPRO_SCALE": "unset (workload scale)",
                "REPRO_CHAOS": "unset",
                "REPRO_TELEMETRY": "armed only in traced sweeps",
                "REPRO_CACHE_DIR": "empty private root per sweep",
            },
        }
        print("env " + json.dumps(record, sort_keys=True))
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), env)
            results[workload] = res
            for problem in res["problems"]:
                print(f"{workload}  PROBLEM  {problem}")
            for name, metric in res["metrics"].items():
                print(f"{workload}  {name}  {metric['value']:.6g} {metric['unit']}")
            for name, value in res["raw"].items():
                print(f"{workload}  {name}  {value:.6g} {RAW_UNITS[name]}")
            print(f"{workload}  units_attempted  {res['attempted']}")
            print(f"{workload}  units_failed  {res['failed']}")
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    if len(results) == 1:
        (res,) = results.values()
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    with open(BUILD / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": record, "result": final}) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
