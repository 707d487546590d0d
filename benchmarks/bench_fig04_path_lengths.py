"""Figure 4: path-length CDFs of the cost-equivalent 648-host trio."""

from conftest import emit, run_scenario

from repro.experiments import fig04_path_lengths as exp


def test_fig04_path_lengths(benchmark):
    data = run_scenario(benchmark, "fig04", k=12, n_racks=108, seed=0, n_slices=27)
    emit("Figure 4: path length CDFs (648-host trio)", exp.format_rows(data))
    # The figure's shape is asserted in tests/test_paper_claims.py.
