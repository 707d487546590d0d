"""Pure derivations the sweep benchmark makes from what a run recorded.

Nothing here imports the program or touches a clock: every function
takes plain records (progress tuples, span-stream events, digests) and
returns numbers, so ``test_derive.py`` pins each one on hand-written
inputs.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "setup_from_progress",
    "worker_idle_frac",
    "lease_overheads",
    "nearest_rank",
    "spawn_s",
    "releases",
    "lpt_makespan",
    "sha256_text",
    "digest_mismatches",
    "median",
]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def setup_from_progress(
    launch_t: float, records: Iterable[tuple[float, float]]
) -> float:
    """Seconds from interpreter launch to the first unit starting.

    ``records`` are ``(arrival_t, duration_s)`` pairs, one per ``Progress``
    record, on the same monotonic clock as ``launch_t``. The first unit's
    start is the first record to *arrive*, minus the time it ran.
    """
    first = min(records, key=lambda rec: rec[0], default=None)
    if first is None:
        raise ValueError("no progress records: no unit ever completed")
    arrival, duration = first
    return arrival - duration - launch_t


def worker_idle_frac(busy_s: float, workers: int, sweep_s: float) -> float:
    """``1 - busy / (workers x sweep)``: the share of worker time unused."""
    if workers < 1 or sweep_s <= 0:
        raise ValueError("worker_idle_frac needs workers >= 1 and sweep_s > 0")
    return 1.0 - busy_s / (workers * sweep_s)


def lease_overheads(events: Iterable[Mapping[str, Any]]) -> list[float]:
    """Per completed unit: ``(completed - leased) - duration_s``.

    The lease is the unit's *last* ``leased`` event before completion, so
    a re-leased unit is charged only for the attempt that produced its
    result. Units that never saw a ``leased`` event (local and pool
    execution) contribute nothing.
    """
    leased: dict[int, float] = {}
    out: list[float] = []
    for ev in events:
        kind = ev.get("ev")
        if kind == "leased":
            leased[ev["uid"]] = ev["t"]
        elif kind == "completed" and ev.get("uid") in leased:
            t_lease = leased.pop(ev["uid"])
            out.append(ev["t"] - t_lease - float(ev.get("duration_s") or 0.0))
    return out


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def spawn_s(events: Iterable[Mapping[str, Any]]) -> float:
    """Run start to the first ``leased`` event (0 when nothing was leased)."""
    start = None
    first_lease = None
    for ev in events:
        if ev.get("ev") == "run-start" and start is None:
            start = ev["t"]
        elif ev.get("ev") == "leased" and first_lease is None:
            first_lease = ev["t"]
    if start is None or first_lease is None:
        return 0.0
    return first_lease - start


def releases(events: Iterable[Mapping[str, Any]]) -> int:
    """Leases that died and were re-queued."""
    return sum(1 for ev in events if ev.get("ev") == "released")


def lpt_makespan(work: Sequence[float], workers: int) -> float:
    """Finish time of ``work`` on ``workers`` identical workers.

    Items are handed out longest first, each to the worker that frees up
    first, the way the pool hands out cost-ordered units.
    """
    if workers < 1:
        raise ValueError("lpt_makespan needs workers >= 1")
    loads = [0.0] * workers
    for item in sorted(work, reverse=True):
        loads[loads.index(min(loads))] += item
    return max(loads)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_mismatches(
    observed: Mapping[str, str], reference: Mapping[str, str]
) -> list[str]:
    """Labels whose digest differs, or that only one side has."""
    labels = set(observed) | set(reference)
    return sorted(
        label for label in labels if observed.get(label) != reference.get(label)
    )
