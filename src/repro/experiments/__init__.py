"""One module per paper table/figure: the reproduction harness.

Each ``figXX_*`` module exposes a ``run(...)`` function returning plain
data (rows/series) plus a ``format_rows`` helper; the ``benchmarks/``
directory wraps them in pytest-benchmark targets that print the same
rows/series the paper reports, and ``EXPERIMENTS.md`` records
paper-vs-measured values.

Scale knobs: packet-level experiments default to reduced scale (Python is
~10^3x slower than htsim); set ``REPRO_SCALE=paper`` in the environment to
run closer to paper scale where feasible.

Importing this package imports no experiment module. A module registers
its scenarios when it is imported, and :data:`SCENARIO_MODULES` says which
module registers which name, so the registry imports only the module a
process runs (see :func:`repro.scenarios.registry.get`): a fig07 sweep, in
the parent, in every pool child and in every distributed worker, loads
``fig07_datamining`` and its ``fctsim`` harness, not the other
seventeen modules or numpy. ``from repro.experiments import fig08_shuffle`` works
as for any package.
"""

#: Every bundled scenario name and alias -> the submodule whose import
#: registers it. ``tests/test_cold_start.py`` pins it against the
#: registrations; a new experiment module adds its names here.
SCENARIO_MODULES: dict[str, str] = {
    "ablation_grouping": "ablations",
    "ablation_guard_bands": "ablations",
    "ablation_vlb": "ablations",
    "fig01": "fig01_distributions",
    "fig04": "fig04_path_lengths",
    "fig06": "fig06_timing",
    "fig07": "fig07_datamining",
    "fig07_datamining": "fig07_datamining",
    "fig08": "fig08_shuffle",
    "fig09": "fig09_websearch",
    "fig09_websearch": "fig09_websearch",
    "fig10": "fig10_mixed",
    "fig11": "fig11_faults",
    "fig11_dynamic": "fig11_dynamic",
    "fig12": "fig12_cost_sensitivity",
    "fig13": "fig13_prototype",
    "fig14": "fig14_cycle_scaling",
    "fig16": "fig16_path_scaling",
    "fig17": "fig17_spectral",
    "fig18": "fig18_failure_paths",
    "table1": "table1_state",
    "table2": "table2_costs",
}

__all__ = ["SCENARIO_MODULES"]
