"""Shared packet-level FCT harness for the Figure 7/9 experiments.

Runs a Poisson flow workload over any of the four simulated networks and
reports flow-completion-time percentiles per flow-size bucket — the y-axis
of Figures 7 and 9. Pure-Python packet simulation cannot reach the paper's
648 hosts x seconds horizons at interactive speed, so the experiments run
at a ``REPRO_SCALE`` profile (:data:`SCALE_PROFILES`): ``default`` is a
cost-comparable 16-rack (64-host) instance of each network with capped
flow sizes — raised from 8 racks when the fast-path engine landed — and
``paper`` is the full 648-host k=12 deployment for when wall-clock time is
available. The *relative* FCT behaviour (who saturates first, where bulk
vs low-latency splits) is what carries over across profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..core.topology import OperaNetwork
from ..obs.metrics import armed as telemetry_armed
from ..net import (
    ClosSimNetwork,
    ExpanderSimNetwork,
    OperaSimNetwork,
    RotorNetSimNetwork,
    SimNetwork,
)
from ..scenarios.sharding import Cell, calibrate_costs, derive_cell_seed
from ..topologies.expander import ExpanderTopology
from ..topologies.folded_clos import FoldedClos
from ..topologies.rotornet import RotorNetTopology
from ..workloads.arrivals import PoissonArrivals
from ..workloads.distributions import DATAMINING, WEBSEARCH, FlowSizeDistribution

__all__ = [
    "FctResult",
    "build_network",
    "run_fct_experiment",
    "resolve_scale",
    "scheduler_for_scale",
    "fct_shard_cells",
    "fct_cell_cost",
    "adaptive_cell_cost",
    "run_fct_cell",
    "merge_fct_cells",
    "SCALE_PROFILES",
    "SIZE_BUCKETS",
]

MS = 1_000_000_000

#: Flow-size buckets reported (Figure 7/9's x-axis, coarsened).
SIZE_BUCKETS: list[tuple[int, int]] = [
    (0, 10_000),
    (10_000, 100_000),
    (100_000, 1_000_000),
    (1_000_000, 1 << 62),
]

#: ``REPRO_SCALE`` profiles for the packet-level figures: ``(k, n_racks,
#: duration_factor)``. ``ci`` is a fast smoke configuration, ``default``
#: the regular reduced-scale reproduction (raised from 8 to 16 racks when
#: the fast-path engine landed), ``paper`` the full 648-host, k=12
#: deployment of the paper's evaluation. Select per run with
#: ``--set scale=paper`` or process-wide with ``REPRO_SCALE=paper``.
SCALE_PROFILES: dict[str, tuple[int, int, float]] = {
    "ci": (8, 8, 0.25),
    "default": (8, 16, 1.0),
    "paper": (12, 108, 1.0),
}


def resolve_scale(scale: str) -> tuple[int, int, float]:
    """``scale`` profile name -> ``(k, n_racks, duration_factor)``."""
    try:
        return SCALE_PROFILES[scale]
    except KeyError:
        known = ", ".join(sorted(SCALE_PROFILES))
        raise ValueError(f"unknown scale profile {scale!r}; known: {known}") from None


def scheduler_for_scale(scale: str) -> str:
    """The event scheduler at ``scale``: always the one binary heap.

    Kept only because the sweep benchmark (``perfbench/run.py``) imports
    it to record the effective scheduler in its environment record.
    """
    return "heap"


@dataclass
class FctResult:
    network: str
    load: float
    n_flows: int
    completed: int
    #: bucket -> (mean_us, p99_us) over completed flows.
    buckets: dict[tuple[int, int], tuple[float | None, float | None]]

    @cached_property
    def _p99_by_lo(self) -> dict[int, float | None]:
        # Derived lookup, not a dataclass field: stays out of the cache /
        # golden payload encoding (which walks dataclasses.fields only).
        return {a: p99 for (a, _b), (_mean, p99) in self.buckets.items()}

    def bucket_p99(self, lo: int) -> float | None:
        return self._p99_by_lo.get(lo)


def build_network(kind: str, k: int = 8, n_racks: int = 8, seed: int = 0) -> SimNetwork:
    """Instantiate one of the four evaluation networks at small scale.

    ``kind``: ``opera`` | ``expander`` | ``clos`` | ``rotornet`` |
    ``rotornet-hybrid``. The expander gets one extra uplink and the Clos
    3:1 oversubscription, mirroring the paper's cost equivalence.
    """
    if kind == "opera":
        return OperaSimNetwork(OperaNetwork(k=k, n_racks=n_racks, seed=seed))
    if kind == "expander":
        u = k // 2 + 1
        return ExpanderSimNetwork(
            ExpanderTopology(n_racks, u, k - u, seed=seed)
        )
    if kind == "clos":
        oversub = 3 if k % 4 == 0 else 1
        clos = FoldedClos(k, oversub, n_pods=None)
        pods = max(1, min(clos.k, round(n_racks / clos.tors_per_pod)))
        return ClosSimNetwork(FoldedClos(k, oversub, n_pods=pods))
    if kind in ("rotornet", "rotornet-hybrid"):
        return RotorNetSimNetwork(
            RotorNetTopology(
                n_racks,
                k // 2,
                k // 2,
                hybrid=(kind == "rotornet-hybrid"),
                seed=seed,
            )
        )
    raise ValueError(f"unknown network kind {kind!r}")


def run_fct_experiment(
    kind: str,
    distribution: FlowSizeDistribution,
    load: float,
    duration_ms: float = 5.0,
    drain_ms: float = 10.0,
    size_cap: int = 3_000_000,
    k: int = 8,
    n_racks: int = 8,
    seed: int = 0,
) -> FctResult:
    """Poisson flows at ``load`` over network ``kind``; FCTs per bucket."""
    net = build_network(kind, k=k, n_racks=n_racks, seed=seed)
    hosts_per_rack = sum(1 for h in net.hosts if h.rack == 0)
    arrivals = PoissonArrivals(
        distribution.truncated(size_cap),
        load=load,
        n_hosts=len(net.hosts),
        hosts_per_rack=hosts_per_rack,
        seed=seed,
    )
    # Opera classifies by the deployment's own threshold; other fabrics
    # carry everything over their single service (plus the hybrid split).
    if kind == "opera":
        threshold = net.network.bulk_threshold_bytes  # type: ignore[attr-defined]
    elif kind == "rotornet-hybrid":
        threshold = 1_000_000
    else:
        threshold = 1 << 62
    for flow in arrivals.flows(duration_ps=int(duration_ms * MS)):
        size = flow.size_bytes
        if size >= threshold:
            net.start_bulk_flow(flow.src_host, flow.dst_host, size, flow.time_ps)
        else:
            net.start_low_latency_flow(
                flow.src_host, flow.dst_host, size, flow.time_ps
            )
    net.run(until_ps=int((duration_ms + drain_ms) * MS))
    buckets: dict[tuple[int, int], tuple[float | None, float | None]] = {}
    for lo, hi in SIZE_BUCKETS:
        buckets[(lo, hi)] = (
            net.stats.mean_fct_us((lo, hi)),
            net.stats.fct_percentile_us(99, (lo, hi)),
        )
    # Telemetry drain: a pure post-run read of counters both kernels
    # maintained during the simulation, after every observable above has
    # been computed — armed runs stay bit-identical to off runs.
    if telemetry_armed():
        from ..obs.metrics import drain_network

        drain_network(net)
    return FctResult(
        network=kind,
        load=load,
        n_flows=len(net.stats.flows),
        completed=len(net.stats.completed_flows()),
        buckets=buckets,
    )


# ------------------------------------------------------------------ sharding

#: Named workloads a cell can reference (cell params must be JSON-able, so
#: distributions travel by name, never as objects).
DISTRIBUTIONS: dict[str, FlowSizeDistribution] = {
    "datamining": DATAMINING,
    "websearch": WEBSEARCH,
}

#: Relative per-network wall-clock weight, measured from the engine
#: microbenchmark's per-network walls at 10% load (``BENCH_engine.json``):
#: the Clos burns ~2.4x opera's time per simulated millisecond, RotorNet
#: without a packet fabric ~0.4x.
NETWORK_COST_WEIGHT: dict[str, float] = {
    "opera": 1.0,
    "expander": 1.2,
    "clos": 2.4,
    "rotornet-hybrid": 1.1,
    "rotornet": 0.4,
}


def fct_cell_cost(scale: str, network: str, load: float, duration_ms: float) -> float:
    """Estimated relative wall-clock of one ``(network, load)`` FCT cell.

    Simulated work grows with the deployment size (hosts), the arrival
    horizon, the offered load, and the per-network weight — so a
    paper-scale 25%-load Clos cell schedules long before a default-scale
    1%-load RotorNet one. Heuristic, not a promise; only the ordering
    matters.
    """
    k, n_racks, duration_factor = resolve_scale(scale)
    hosts = n_racks * (k // 2)
    return (
        NETWORK_COST_WEIGHT.get(network, 1.0)
        * hosts
        * max(load, 0.01)
        * (duration_ms * duration_factor / 4.0)
    )


def adaptive_cell_cost(
    scale: str,
    network: str,
    load: float,
    duration_ms: float,
    history: "dict[str, float] | None" = None,
) -> float:
    """Cost of one FCT cell, adapted from recorded durations when present.

    ``history`` maps cell keys (``f"{network}@{load:g}"``, the keys
    :func:`fct_shard_cells` mints and every cell-cache document records)
    to mean measured wall seconds — typically
    ``ResultCache.cell_durations("fig07")``. When this cell has history,
    its recorded duration is calibrated into static-estimate units via
    :func:`~repro.scenarios.sharding.calibrate_costs` (fitting the
    seconds-per-unit ratio over every history key, so adapted and
    static-only cells stay comparable); with no usable history the static
    scale x network x load estimate is returned unchanged.

    This is the per-cell convenience for library users of the FCT
    harness; at run time the Runner applies the identical
    ``calibrate_costs`` blend to *whole unit batches* itself
    (``Runner._adapt_costs``), scenario-agnostically, without going
    through this function.
    """
    key = f"{network}@{load:g}"
    static = {key: fct_cell_cost(scale, network, load, duration_ms)}
    if not history:
        return static[key]
    for other_key, seconds in history.items():
        if other_key == key or not isinstance(seconds, (int, float)):
            continue
        net, sep, load_text = other_key.partition("@")
        if not sep:
            continue
        try:
            other_load = float(load_text)
        except ValueError:
            continue
        static[other_key] = fct_cell_cost(scale, net, other_load, duration_ms)
    return calibrate_costs(static, dict(history))[key]


def fct_shard_cells(
    scenario_name: str,
    distribution: str,
    networks: tuple[str, ...],
    loads: tuple[float, ...],
    duration_ms: float,
    seed: int,
    scale: str,
) -> list[Cell]:
    """Shard an FCT grid scenario over its ``(network, load)`` axes.

    Every cell gets a hash-derived seed from ``(seed, scenario, cell key)``
    — identical whether the cell later runs sharded, pooled, or inside the
    scenario's own unsharded ``run()`` loop — and a cost estimate so the
    pool schedules long cells first.
    """
    cells = []
    for kind in networks:
        for load in loads:
            key = f"{kind}@{load:g}"
            cells.append(
                Cell(
                    key=key,
                    params={
                        "network": kind,
                        "load": load,
                        "distribution": distribution,
                        "duration_ms": duration_ms,
                        "seed": derive_cell_seed(seed, scenario_name, key),
                        "scale": scale,
                    },
                    cost=fct_cell_cost(scale, kind, load, duration_ms),
                )
            )
    return cells


def run_fct_cell(
    network: str,
    load: float,
    distribution: str,
    duration_ms: float,
    seed: int,
    scale: str,
) -> FctResult:
    """One independent ``(network, load)`` point of an FCT grid."""
    k, n_racks, duration_factor = resolve_scale(scale)
    return run_fct_experiment(
        network,
        DISTRIBUTIONS[distribution],
        load,
        duration_ms=duration_ms * duration_factor,
        k=k,
        n_racks=n_racks,
        seed=seed,
    )


def merge_fct_cells(values: list[FctResult], **_params: object) -> list[FctResult]:
    """Cell values in plan order are exactly the grid's result list."""
    return list(values)


def format_rows(results: list[FctResult]) -> list[str]:
    rows = [
        "network            load  flows done | p99 FCT (us) per size bucket"
    ]
    for r in results:
        cells = []
        for (lo, _hi), (_mean, p99) in r.buckets.items():
            label = f"{lo // 1000}KB+" if lo else "<10KB"
            cells.append(f"{label}:{p99:.0f}" if p99 is not None else f"{label}:-")
        rows.append(
            f"{r.network:>17s} {r.load:5.0%} {r.n_flows:6d} {r.completed:5d} | "
            + "  ".join(cells)
        )
    return rows
