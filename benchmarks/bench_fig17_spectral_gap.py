"""Figure 17 / Appendix D: spectral gap vs path length."""

from conftest import emit, run_scenario

from repro.experiments import fig17_spectral as exp


def test_fig17_spectral_gap(benchmark):
    data = run_scenario(benchmark, "fig17")
    emit("Figure 17: spectral gaps", exp.format_rows(data))
    # The figure's shape is asserted in tests/test_paper_claims.py.
