"""Figure 16 / Appendix C: average path length vs network scale."""

from conftest import emit, run_scenario

from repro.experiments import fig16_path_scaling as exp


def test_fig16_path_scaling(benchmark):
    rows = run_scenario(benchmark, "fig16", radices=(12, 16, 24))
    emit("Figure 16: average path length vs scale", exp.format_rows(rows))
    # The figure's shape is asserted in tests/test_paper_claims.py.
