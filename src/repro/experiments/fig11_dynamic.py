"""Dynamic failure injection: fail, detect, reroute, recover (Figure 11's
failure model run live inside the packet engine).

Where ``fig11`` measures *static* connectivity of the failed topology,
this scenario injects the same seeded failure draws into a *running*
Opera network mid-workload (:meth:`OperaSimNetwork.install_failures`) and
measures what the paper's recovery story actually costs end to end: the
goodput dip while stale routes blackhole traffic during the hello
propagation window, the FCT degradation of the surviving flows, and the
time until every affected (recoverable) flow has completed.

Shards over the ``(component, fraction, injection time)`` grid, with a
``none`` baseline cell (armed-but-empty failure machinery — bitwise
identical to an unarmed run) for the degradation deltas. Every cell draws
its failure set from a hash-derived per-cell seed, mirroring ``fig11``'s
independence structure, and runs at the ``REPRO_SCALE`` profile of the
other packet-level figures.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from ..core.faults import FailureSchedule
from ..core.topology import OperaNetwork
from ..net import OperaSimNetwork
from ..scenarios import Cell, derive_cell_seed, scenario
from ..workloads.arrivals import PoissonArrivals
from .fctsim import DISTRIBUTIONS, MS, resolve_scale

__all__ = [
    "DynamicFaultResult",
    "run",
    "shards",
    "run_cell",
    "merge",
    "format_rows",
]

#: Grid components; ``none`` is the armed-but-empty baseline.
_COMPONENTS = ("none", "links", "racks", "switches")

#: Plural grid name -> FailureSchedule.random component kind.
_KIND = {"links": "link", "racks": "rack", "switches": "switch"}


@dataclass
class DynamicFaultResult:
    """One cell: a seeded failure draw injected into a live workload."""

    component: str
    fraction: float
    inject_ms: float
    n_flows: int
    completed: int
    #: Flows that lost >= 1 packet to a blackhole / written off.
    affected: int
    unrecoverable: int
    #: Affected, recoverable flows still incomplete at the horizon
    #: (should be 0: the recovery layer must not wedge).
    wedged: int
    blackholed_packets: int
    blackholed_bytes: int
    #: NDP timeout retransmissions + replayed pulls (0 for ``none``).
    timeout_retransmits: int
    #: Hello-propagation detection lag of the first event, ms.
    detection_ms: float | None
    #: Failure -> last affected recoverable flow completed, ms.
    recovery_ms: float | None
    #: Delivered payload bytes in the window before / after injection
    #: (equal-width windows; the dip is the failure's goodput cost).
    goodput_pre_bytes: int
    goodput_post_bytes: int
    p99_fct_us: float | None


def _cell_cost(scale: str, load: float, duration_ms: float) -> float:
    k, n_racks, duration_factor = resolve_scale(scale)
    hosts = n_racks * (k // 2)
    return hosts * max(load, 0.01) * (duration_ms * duration_factor / 4.0)


def shards(
    fractions: tuple[float, ...] = (0.1, 0.25),
    inject_ms: tuple[float, ...] = (2.0,),
    load: float = 0.1,
    duration_ms: float = 4.0,
    drain_ms: float = 24.0,
    distribution: str = "datamining",
    seed: int = 0,
    scale: str | None = None,
) -> list[Cell]:
    """Cell plan: baseline plus one cell per (component, fraction, time)."""
    scale = scale or os.environ.get("REPRO_SCALE", "default")
    cells = []
    # One workload for the whole grid (same arrivals in every cell), so a
    # failure cell's degradation reads directly against the ``none``
    # baseline; only the *failure draw* varies per cell.
    workload_seed = derive_cell_seed(seed, "fig11_dynamic", "workload")

    def add(component: str, fraction: float, at_ms: float) -> None:
        key = f"{component}@{fraction:g}@{at_ms:g}ms"
        cells.append(
            Cell(
                key=key,
                params={
                    "component": component,
                    "fraction": fraction,
                    "inject_ms": at_ms,
                    "load": load,
                    "duration_ms": duration_ms,
                    "drain_ms": drain_ms,
                    "distribution": distribution,
                    "scale": scale,
                    "workload_seed": workload_seed,
                    "seed": derive_cell_seed(seed, "fig11_dynamic", key),
                },
                cost=_cell_cost(scale, load, duration_ms + drain_ms),
            )
        )

    add("none", 0.0, inject_ms[0])
    for component in _COMPONENTS[1:]:
        for fraction in fractions:
            for at_ms in inject_ms:
                add(component, fraction, at_ms)
    return cells


def run_cell(
    component: str,
    fraction: float,
    inject_ms: float,
    load: float,
    duration_ms: float,
    drain_ms: float,
    distribution: str,
    scale: str,
    workload_seed: int,
    seed: int,
) -> DynamicFaultResult:
    """One live-injection run: build, arm, load, fail, recover, measure."""
    k, n_racks, duration_factor = resolve_scale(scale)
    duration_ms *= duration_factor
    inject_ms = min(inject_ms, duration_ms / 2)
    inject_ps = int(inject_ms * MS)

    net = OperaSimNetwork(OperaNetwork(k=k, n_racks=n_racks, seed=0))

    if component == "none":
        schedule = FailureSchedule.empty()
    else:
        schedule = FailureSchedule.random(
            n_racks,
            net.network.n_switches,
            _KIND[component],
            fraction,
            inject_ps,
            random.Random(seed ^ 0x5DEECE66D),
        )
    injector = net.install_failures(schedule)

    arrivals = PoissonArrivals(
        DISTRIBUTIONS[distribution].truncated(3_000_000),
        load=load,
        n_hosts=len(net.hosts),
        hosts_per_rack=net.network.hosts_per_rack,
        seed=workload_seed,
    )
    threshold = net.network.bulk_threshold_bytes
    for flow in arrivals.flows(duration_ps=int(duration_ms * MS)):
        if flow.size_bytes >= threshold:
            net.start_bulk_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
        else:
            net.start_low_latency_flow(
                flow.src_host, flow.dst_host, flow.size_bytes, flow.time_ps
            )
    net.run(until_ps=int((duration_ms + drain_ms) * MS))

    stats = net.stats
    window_ps = 2 * stats.throughput_bin_ps
    recovery_ps = stats.recovery_time_ps(inject_ps)
    wedged = sum(
        1
        for flow_id in stats.affected_flows - stats.unrecoverable_flows
        if not stats.flows[flow_id].complete
    )
    detection_ms = None
    if injector.log:
        applied, detected, _event = injector.log[0]
        detection_ms = (detected - applied) / MS
    return DynamicFaultResult(
        component=component,
        fraction=fraction,
        inject_ms=inject_ms,
        n_flows=len(stats.flows),
        completed=len(stats.completed_flows()),
        affected=len(stats.affected_flows),
        unrecoverable=len(stats.unrecoverable_flows),
        wedged=wedged,
        blackholed_packets=stats.total_blackholed_packets(),
        blackholed_bytes=stats.blackholed_bytes,
        timeout_retransmits=(
            injector.ndp.timeout_retransmits + injector.ndp.replayed_pulls
        ),
        detection_ms=detection_ms,
        recovery_ms=None if recovery_ps is None else recovery_ps / MS,
        goodput_pre_bytes=stats.delivered_bytes_between(
            max(0, inject_ps - window_ps), inject_ps
        ),
        goodput_post_bytes=stats.delivered_bytes_between(
            inject_ps, inject_ps + window_ps
        ),
        p99_fct_us=stats.fct_percentile_us(99),
    )


def merge(
    values: list[DynamicFaultResult], **_params: object
) -> list[DynamicFaultResult]:
    """Cell values in plan order are exactly the grid's result list."""
    return list(values)


@scenario(
    "fig11_dynamic",
    tags=("packet", "faults"),
    cost="medium",
    title="live failure injection (dynamic Figure 11)",
    shards="shards",
    cell="run_cell",
    merge="merge",
)
def run(
    fractions: tuple[float, ...] = (0.1, 0.25),
    inject_ms: tuple[float, ...] = (2.0,),
    load: float = 0.1,
    duration_ms: float = 4.0,
    drain_ms: float = 24.0,
    distribution: str = "datamining",
    seed: int = 0,
    scale: str | None = None,
) -> list[DynamicFaultResult]:
    """Mid-run failure sweep: goodput dip, FCT hit, recovery time."""
    plan = shards(
        fractions=fractions,
        inject_ms=inject_ms,
        load=load,
        duration_ms=duration_ms,
        drain_ms=drain_ms,
        distribution=distribution,
        seed=seed,
        scale=scale,
    )
    return merge([run_cell(**cell.params) for cell in plan])


def format_rows(results: list[DynamicFaultResult]) -> list[str]:
    rows = [
        "component  frac  t(ms)  flows done  aff unrec wdg | "
        "bh-pkts  detect(ms) recover(ms)  goodput pre->post  p99(us)"
    ]
    for r in results:
        detect = f"{r.detection_ms:.2f}" if r.detection_ms is not None else "-"
        recover = f"{r.recovery_ms:.2f}" if r.recovery_ms is not None else "-"
        p99 = f"{r.p99_fct_us:.0f}" if r.p99_fct_us is not None else "-"
        rows.append(
            f"{r.component:>9s} {r.fraction:5.0%} {r.inject_ms:6.1f} "
            f"{r.n_flows:5d} {r.completed:4d}  {r.affected:3d} "
            f"{r.unrecoverable:5d} {r.wedged:3d} | {r.blackholed_packets:7d} "
            f"{detect:>10s} {recover:>11s}  "
            f"{r.goodput_pre_bytes:8d}->{r.goodput_post_bytes:<8d} {p99:>7s}"
        )
    return rows
