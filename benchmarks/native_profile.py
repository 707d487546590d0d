"""Native sampling profile of fig07 cells, split by phase.

cProfile cannot see inside the compiled kernel (``_ckernel.c``) or the
interpreter. This script builds a small SIGPROF sampler
(``benchmarks/native_sampler.c``) into ``build/native_profile/``, loads it
with ctypes and runs the chosen fig07 cells in this process. It arms
``ITIMER_PROF`` for a sample every 500 us of CPU time, but the kernel
delivers the signal at its own tick, so the real interval is usually
coarser (about 3.6 ms per sample on a 2-vCPU Linux container). The
report records the process CPU seconds over the sampled region and
prints both the nominal and the effective interval (``cpu_s`` and
``effective_interval_us`` in the JSON). At each sample the sampler takes
a ``backtrace()`` and the current phase tag: ``build`` around
``fctsim.build_network``, ``run`` around ``SimNetwork.run`` and ``other``
for the rest (arrivals, flow setup, statistics). Frames are symbolized
from ``/proc/self/maps`` and ``nm``.

It prints the leaf symbols that took the most samples in each phase. For
the run phase it also splits the samples inside the compiled ``c_sim_run``
three ways:

* kernel self: the leaf is in ``_ckernel``;
* C-API: the leaf is elsewhere (libpython, libc) with no Python frame
  between it and ``c_sim_run``, i.e. calls the kernel makes;
* Python re-entry: a Python frame runs under ``c_sim_run`` (route
  closures, resolvers, RotorLB steps).

It then charges every C-API sample to its nearest ``_ckernel`` frame and
prints the most frequent ``(leaf, kernel frame)`` pairs: which call of
which kernel function the C-API time goes to (``c_api_by_caller`` in the
JSON, most frequent first).

Usage (Linux; needs ``cc`` and ``nm``, and says so when either is missing)::

    PYTHONPATH=src python benchmarks/native_profile.py \\
        --scale default --seed 0 --cells opera@0.25 [--json out.json]

Cells are fig07 grid keys (``network@load``) at the given scenario seed, so
each one builds the same topology and arrivals as in ``repro run fig07``.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLER_SOURCE = ROOT / "benchmarks" / "native_sampler.c"
BUILD_DIR = ROOT / "build" / "native_profile"
PHASES = ("other", "build", "run")
SPLIT = ("kernel_self", "c_api", "python")
INTERVAL_US = 500
#: 50,000 samples is 25 s of CPU time; later samples are counted as dropped.
MAX_SAMPLES = 50_000
DEPTH = 64  # frames kept per sample
TOP = 12  # rows printed per table: leaves per phase, C-API pairs


def build_sampler(cc: str) -> Path:
    """Compile the sampler unless an up-to-date build exists."""
    lib = BUILD_DIR / "native_sampler.so"
    if lib.exists() and lib.stat().st_mtime >= SAMPLER_SOURCE.stat().st_mtime:
        return lib
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = lib.with_suffix(f".{os.getpid()}.tmp")
    subprocess.run(
        [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(SAMPLER_SOURCE)],
        check=True,
    )
    os.replace(tmp, lib)
    return lib


class Sampler:
    """ctypes view of the sampler's globals."""

    def __init__(self, lib_path: Path) -> None:
        self.lib = ctypes.CDLL(str(lib_path))
        self.lib.sampler_start.argtypes = [ctypes.c_int] * 3
        self.lib.sampler_start.restype = ctypes.c_int
        self.lib.sampler_stop.argtypes = []
        self.lib.sampler_stop.restype = None
        self.phase = ctypes.c_int.in_dll(self.lib, "sampler_phase")

    def start(self) -> None:
        if self.lib.sampler_start(INTERVAL_US, MAX_SAMPLES, DEPTH) != 0:
            raise OSError(ctypes.get_errno(), "could not arm the SIGPROF sampler")

    def stop(self) -> None:
        self.lib.sampler_stop()

    def _int(self, name: str) -> int:
        return ctypes.c_int.in_dll(self.lib, name).value

    def _array(self, name: str, ctype, length: int):
        address = ctypes.c_void_p.in_dll(self.lib, name).value
        return (ctype * length).from_address(address)

    def samples(self) -> tuple[list[tuple[int, list[int]]], int]:
        """``([(phase, frames leaf first), ...], dropped)``."""
        count, depth = self._int("sampler_count"), self._int("sampler_depth_max")
        frames = self._array("sampler_frames", ctypes.c_void_p, count * depth)
        depths = self._array("sampler_depths", ctypes.c_int, count)
        phases = self._array("sampler_phases", ctypes.c_int, count)
        out = [
            (phases[i], [frames[i * depth + j] or 0 for j in range(depths[i])])
            for i in range(count)
        ]
        return out, self._int("sampler_dropped")


class Symbolizer:
    """Address -> ``(library, symbol)`` from /proc/self/maps and nm."""

    def __init__(self, nm: str) -> None:
        self.nm = nm
        self.maps = []
        with open("/proc/self/maps") as fh:
            for line in fh:
                parts = line.split(maxsplit=5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    self.maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]
        self.tables: dict[str, tuple[list[int], list[tuple[int, str]], bool]] = {}
        self.cache: dict[int, tuple[str, str]] = {}

    def _table(self, path: str) -> tuple[list[int], list[tuple[int, str]], bool]:
        """Sorted function symbols of one file: ``(addresses, (size, name))``."""
        if path not in self.tables:
            with open(path, "rb") as fh:
                absolute = fh.read(18)[16:18] == b"\x02\x00"  # ET_EXEC
            syms: list[tuple[int, int, str]] = []
            for flags in ([], ["-D"]):  # full symtab, else dynamic symbols
                out = subprocess.run(
                    [self.nm, *flags, "-S", "--defined-only", path],
                    capture_output=True, text=True,
                ).stdout
                for line in out.splitlines():
                    parts = line.split()
                    if len(parts) == 3:  # no size
                        parts.insert(1, "0")
                    if len(parts) == 4 and parts[2] in "TtWwi":
                        # c_sim_run.cold is c_sim_run; memcpy@GLIBC_2.14 is memcpy
                        name = parts[3].split("@")[0].partition(".")[0] or parts[3]
                        syms.append((int(parts[0], 16), int(parts[1], 16), name))
                if syms:
                    break
            syms.sort()
            self.tables[path] = (
                [a for a, _, _ in syms], [(size, n) for _, size, n in syms], absolute
            )
        return self.tables[path]

    def __call__(self, pc: int) -> tuple[str, str]:
        if pc not in self.cache:
            self.cache[pc] = self._lookup(pc)
        return self.cache[pc]

    def _lookup(self, pc: int) -> tuple[str, str]:
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return "?", "[unmapped]"
        lo, _hi, offset, path = self.maps[i]
        lib = os.path.basename(path)
        addrs, syms, absolute = self._table(path)
        rel = pc if absolute else pc - lo + offset
        j = bisect.bisect_right(addrs, rel) - 1
        if j >= 0:
            size, name = syms[j]
            if rel < addrs[j] + size or (not size and name != "_init"):
                return lib, name
        return lib, "[no symbol: plt or stripped]"


def symbolized(raw: list[int], symbolize: Symbolizer) -> list[tuple[str, str]]:
    """Frames of one sample, leaf first, without the sampler's own frames.

    ``backtrace()`` in the handler starts inside the sampler, then the
    kernel's signal trampoline, then the interrupted code. Return
    addresses (every frame but the leaf) are looked up one byte back so
    a call that ends its function is charged to the caller.
    """
    i = 0
    while i < len(raw) and symbolize(raw[i])[0] == "native_sampler.so":
        i += 1
    leaf = i + 1  # past the signal trampoline
    if leaf >= len(raw):
        return []
    return [symbolize(raw[leaf])] + [symbolize(pc - 1) for pc in raw[leaf + 1:]]


def kernel_run_share(stack: list[tuple[str, str]]) -> tuple[str, str] | None:
    """Where one sample inside ``c_sim_run`` goes: ``(share, kernel frame)``.

    ``share`` is one of ``SPLIT``. The kernel frame is the ``_ckernel``
    frame nearest the leaf, the function whose call the sample is in.
    ``None`` for a sample outside ``c_sim_run``.
    """
    names = [name for _lib, name in stack]
    if "c_sim_run" not in names:
        return None
    inner = stack[: names.index("c_sim_run") + 1]
    if any(name.startswith("_PyEval_EvalFrame") for _lib, name in inner):
        return "python", ""
    frame = next(name for lib, name in inner if lib.startswith("_ckernel"))
    return ("kernel_self" if inner[0][0].startswith("_ckernel") else "c_api"), frame


def split_kernel_run(stacks: list[list[tuple[str, str]]]) -> Counter:
    """Three-way split of the samples inside ``c_sim_run``."""
    return Counter(
        where[0] for where in map(kernel_run_share, stacks) if where is not None
    )


def c_api_by_caller(stacks: list[list[tuple[str, str]]]) -> Counter:
    """Each C-API sample inside ``c_sim_run`` as a ``(leaf, kernel frame)`` pair.

    Kernel-self and Python re-entry samples are not charged, so the
    counts sum to the C-API share's samples.
    """
    pairs: Counter = Counter()
    for stack in stacks:
        where = kernel_run_share(stack)
        if where is not None and where[0] == "c_api":
            pairs[stack[0][1], where[1]] += 1
    return pairs


def profile(scale: str, seed: int, cells: list[str], cc: str, nm: str) -> dict:
    from repro.experiments import fctsim
    from repro.experiments.fig07_datamining import shards
    from repro.net import SimNetwork
    from repro.net.kernel import engine_classes

    plan = {cell.key: cell for cell in shards(seed=seed, scale=scale)}
    unknown = [key for key in cells if key not in plan]
    if unknown:
        raise SystemExit(f"unknown fig07 cells {unknown}; known: {sorted(plan)}")
    sampler = Sampler(build_sampler(cc))

    def tagged(fn, phase):
        def wrapper(*args, **kwargs):
            outer = sampler.phase.value
            sampler.phase.value = phase
            try:
                return fn(*args, **kwargs)
            finally:
                sampler.phase.value = outer
        return wrapper

    saved = fctsim.build_network, SimNetwork.run
    fctsim.build_network = tagged(saved[0], PHASES.index("build"))
    SimNetwork.run = tagged(saved[1], PHASES.index("run"))
    cpu_start = time.process_time()
    sampler.start()
    try:
        for key in cells:
            fctsim.run_fct_cell(**plan[key].params)
    finally:
        sampler.stop()
        cpu_s = time.process_time() - cpu_start
        fctsim.build_network, SimNetwork.run = saved

    raw, dropped = sampler.samples()
    symbolize = Symbolizer(nm)
    per_phase: dict[str, list[list[tuple[str, str]]]] = {p: [] for p in PHASES}
    for phase, frames in raw:
        stack = symbolized(frames, symbolize)
        if stack:
            per_phase[PHASES[phase]].append(stack)
    split = split_kernel_run(per_phase["run"])
    inside = sum(split.values())
    # Every delivered tick is a sample, kept or dropped.
    ticks = len(raw) + dropped
    return {
        "scale": scale,
        "seed": seed,
        "cells": cells,
        "kernel": engine_classes().name,
        "interval_us": INTERVAL_US,
        "cpu_s": round(cpu_s, 3),
        "effective_interval_us": round(1e6 * cpu_s / ticks) if ticks else None,
        "samples": sum(len(s) for s in per_phase.values()),
        "dropped": dropped,
        "phases": {
            phase: {
                "samples": len(stacks),
                "leaves": Counter(stack[0] for stack in stacks).most_common(),
            }
            for phase, stacks in per_phase.items()
        },
        "c_sim_run": {
            "samples": inside,
            **{k: 100.0 * split[k] / inside if inside else 0.0 for k in SPLIT},
        },
        "c_api_by_caller": c_api_by_caller(per_phase["run"]).most_common(),
    }


def interval_line(result: dict) -> str:
    """How often the sampler really fired, against what it asked for."""
    effective = result["effective_interval_us"]
    return (
        f"{result['samples']} samples over {result['cpu_s']:.2f} s of CPU: "
        + (f"one per {effective} us" if effective is not None else "no samples")
        + f" (nominal {result['interval_us']} us)"
        + (f", {result['dropped']} dropped" if result["dropped"] else "")
    )


def report(result: dict) -> None:
    total = result["samples"] or 1
    print(
        f"native profile: fig07 {','.join(result['cells'])} scale={result['scale']} "
        f"seed={result['seed']} kernel={result['kernel']}: {interval_line(result)}"
    )
    for phase in PHASES:
        data = result["phases"][phase]
        if not data["samples"]:
            continue
        print(f"\n{phase}: {data['samples']} samples ({100.0 * data['samples'] / total:.1f}%)")
        for (lib, name), count in data["leaves"][:TOP]:
            print(f"  {100.0 * count / data['samples']:5.1f}%  {count:6d}  {lib:<28s} {name}")
    split = result["c_sim_run"]
    if split["samples"]:
        print(
            f"\nc_sim_run ({split['samples']} samples): kernel self "
            f"{split['kernel_self']:.1f}%, C-API {split['c_api']:.1f}%, "
            f"Python re-entry {split['python']:.1f}%"
        )
        print("\nC-API samples by nearest kernel frame (% of c_sim_run):")
        for (leaf, frame), count in result["c_api_by_caller"][:TOP]:
            print(
                f"  {100.0 * count / split['samples']:5.1f}%  {count:6d}  "
                f"{leaf} <- {frame}"
            )
    elif result["phases"]["run"]["samples"]:
        print("\nc_sim_run: no samples (the run did not use the compiled kernel)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="default", help="ci | default | paper")
    parser.add_argument("--seed", type=int, default=0, help="fig07 scenario seed")
    parser.add_argument("--cells", default="opera@0.25",
                        help="comma-separated fig07 cell keys, network@load")
    parser.add_argument("--json", metavar="PATH", help="also write the result as JSON")
    args = parser.parse_args(argv)

    tools = {name: shutil.which(name) for name in ("cc", "nm")}
    missing = [name for name, path in tools.items() if path is None]
    if missing or not os.path.exists("/proc/self/maps"):
        print(
            "native_profile: needs Linux with cc and nm on PATH"
            + (f" (missing: {', '.join(missing)})" if missing else ""),
            file=sys.stderr,
        )
        return 2
    result = profile(
        args.scale, args.seed, [c for c in args.cells.split(",") if c],
        tools["cc"], tools["nm"],
    )
    report(result)
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
