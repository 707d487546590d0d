"""In-process traced pass: split each cell's wall clock across layers.

The pass runs the workload's sweep once more through the public
``Runner`` with the in-process ``local`` executor, while timing wrappers
sit around the public functions each layer exposes:

- ``net.build_s``: ``repro.experiments.fctsim.build_network``
- ``workloads.arrivals_s``: ``PoissonArrivals.flows`` (drained eagerly)
- ``net.flow_start_s``: ``start_bulk_flow`` / ``start_low_latency_flow``
- ``net.run_s``: ``SimNetwork.run``
- ``net.stats_s``: the ``StatsCollector`` FCT queries
- ``scenarios.encode_s``: ``to_portable`` as the Runner calls it
- ``scenarios.cache_write_s``: ``ResultCache.put_cell`` / ``put``
- ``scenarios.merge_s``: ``Scenario.merge``

No file of the program changes: the wrappers are installed on the
imported modules for the duration of :func:`traced_pass` and removed
after it. A wrapper only times the outermost call, so a layer that calls
another wrapped function (a stats query calling ``completed_flows``)
is counted once. Spans are kept in memory and handed back for the caller
to write when the run ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["LAYERS", "CELL_LAYERS", "traced_pass"]

#: Every timed layer, in the order a cell passes through them.
LAYERS = (
    "net.build_s",
    "workloads.arrivals_s",
    "net.flow_start_s",
    "net.run_s",
    "net.stats_s",
    "scenarios.encode_s",
    "scenarios.cache_write_s",
    "scenarios.merge_s",
)

#: Layers that run inside the Runner's per-cell executor call; their sum
#: over that call's wall is ``trace.coverage``.
CELL_LAYERS = LAYERS[:6]


class _Clock:
    """Layer totals, per-cell context and the patches that feed them."""

    def __init__(self) -> None:
        self.totals = {name: 0.0 for name in LAYERS}
        self.run_by_network: dict[str, float] = {}
        self.cell_wall = 0.0
        self.rotorlb_direct = 0
        self.rotorlb_vlb = 0
        self.engine = {"events": 0, "sched_entries": 0, "trains": 0}
        self.portables: list[Any] = []
        self.spans: list[dict[str, Any]] = []
        self._depth = 0
        self.cell: dict[str, Any] | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def span(self, name: str, t0: float, t1: float) -> None:
        parent = self.cell["id"] if self.cell else None
        self.spans.append(
            {"id": len(self.spans), "parent": parent, "name": name,
             "start": t0, "end": t1}
        )

    def timed(
        self,
        owner: Any,
        attr: str,
        layer: str,
        after: Callable[..., Any] | None = None,
        record_span: bool = True,
    ) -> None:
        orig = owner.__dict__[attr]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._depth:
                return orig(*args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
                if after is not None:
                    out = after(args, out)
            finally:
                t1 = time.perf_counter()
                self._depth -= 1
            self.totals[layer] += t1 - t0
            if record_span:
                self.span(layer, t0, t1)
            return out

        self.patch(owner, attr, wrapper)


def traced_pass(
    scenario: str,
    grid: dict[str, list[Any]],
    overrides: dict[str, Any],
    cache_root: str,
) -> dict[str, Any]:
    """Run the sweep in-process with layer timers; return the budget.

    Returns ``{"totals": {layer: s}, "run_by_network": {...},
    "coverage": ..., "encode_bytes": ..., "rotorlb": {...},
    "engine": {...}, "jobs": [...], "spans": [...]}`` where ``jobs``
    carries each sweep point's cell values in the same canonical form
    ``sweep.py`` reports, for the bitwise comparison.
    """
    from repro.experiments import fctsim
    from repro.net import builders
    from repro.net.stats import StatsCollector
    from repro.scenarios import Runner, registry, runner as runner_mod
    from repro.scenarios.cache import ResultCache
    from repro.scenarios.encode import canonical_json, to_portable
    from repro.workloads.arrivals import PoissonArrivals

    clock = _Clock()

    def drain(_args: Any, gen: Any) -> Any:
        return iter(list(gen))

    def after_run(args: Any, out: Any) -> Any:
        net = args[0]
        for agent in getattr(net, "agents", ()):
            clock.rotorlb_direct += agent.direct_bytes_sent
            clock.rotorlb_vlb += agent.vlb_bytes_sent
        counters = net.sim.counters()
        for name in clock.engine:
            clock.engine[name] += counters[name]
        return out

    def keep_portable(_args: Any, out: Any) -> Any:
        clock.portables.append(out)
        return out

    orig_cell = runner_mod.__dict__["_execute_cell"]

    def execute_cell(name: str, cell_key: str, params: dict[str, Any]) -> Any:
        clock.cell = {"id": len(clock.spans), "network": params.get("network")}
        clock.spans.append(
            {"id": clock.cell["id"], "parent": None,
             "name": f"cell {name}:{cell_key} seed={params.get('seed')}",
             "start": None, "end": None}
        )
        run_before = clock.totals["net.run_s"]
        t0 = time.perf_counter()
        try:
            return orig_cell(name, cell_key, params)
        finally:
            t1 = time.perf_counter()
            clock.spans[clock.cell["id"]].update(start=t0, end=t1)
            clock.cell_wall += t1 - t0
            network = str(params.get("network"))
            clock.run_by_network[network] = clock.run_by_network.get(
                network, 0.0
            ) + (clock.totals["net.run_s"] - run_before)
            clock.cell = None

    try:
        clock.patch(runner_mod, "_execute_cell", execute_cell)
        clock.timed(fctsim, "build_network", "net.build_s")
        clock.timed(PoissonArrivals, "flows", "workloads.arrivals_s", drain)
        for cls in (
            builders.SimNetwork,
            builders.OperaSimNetwork,
            builders.ExpanderSimNetwork,
            builders.ClosSimNetwork,
            builders.RotorNetSimNetwork,
        ):
            for attr in ("start_bulk_flow", "start_low_latency_flow"):
                if attr in cls.__dict__:
                    clock.timed(
                        cls, attr, "net.flow_start_s", record_span=False
                    )
        clock.timed(builders.SimNetwork, "run", "net.run_s", after_run)
        for attr in ("completed_flows", "mean_fct_us", "fct_percentile_us"):
            clock.timed(StatsCollector, attr, "net.stats_s", record_span=False)
        clock.timed(runner_mod, "to_portable", "scenarios.encode_s", keep_portable)
        clock.timed(ResultCache, "put_cell", "scenarios.cache_write_s")
        clock.timed(ResultCache, "put", "scenarios.cache_write_s")
        clock.timed(registry.Scenario, "merge", "scenarios.merge_s")

        results = Runner(
            executor="local", cache=ResultCache(cache_root)
        ).sweep(scenario, grid, overrides)
    finally:
        clock.restore()

    in_cells = sum(clock.totals[name] for name in CELL_LAYERS)
    coverage = in_cells / clock.cell_wall if clock.cell_wall > 0 else 0.0
    # canonical_json is the encoding's byte form; time it here, outside
    # the cell walls, so it adds to encode_s without skewing coverage.
    encode_bytes = 0
    t0 = time.perf_counter()
    for portable in clock.portables:
        encode_bytes += len(canonical_json(portable).encode("utf-8"))
    clock.totals["scenarios.encode_s"] += time.perf_counter() - t0

    sc = registry.get(scenario)
    jobs = []
    for res in results:
        plan = sc.shard_plan(**res.params)
        jobs.append(
            {
                "params": canonical_json(res.params),
                "cells": {
                    cell.key: canonical_json(to_portable(value))
                    for cell, value in zip(plan, res.value)
                },
            }
        )
    return {
        "totals": clock.totals,
        "run_by_network": clock.run_by_network,
        "coverage": coverage,
        "encode_bytes": encode_bytes,
        "rotorlb": {"direct_bytes": clock.rotorlb_direct,
                    "vlb_bytes": clock.rotorlb_vlb},
        "engine": clock.engine,
        "jobs": jobs,
        "spans": clock.spans,
    }
