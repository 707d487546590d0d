"""The paper's topology claims, asserted on every tier-1 run.

Opera factors the complete rack graph into random matchings (section 3.3)
so that every topology slice is an expander with short paths. These tests
pin that property: each runs a registered scenario in-process through the
same Runner path as ``repro run`` and asserts the figure's shape. They
moved here from ``benchmarks/bench_fig04_path_lengths.py``,
``bench_fig16_path_scaling.py`` and ``bench_fig17_spectral_gap.py``, which
now only print their rows.
"""

from repro.scenarios import Runner

RUNNER = Runner()


def test_fig04_opera_paths_near_expander_and_within_5_hops():
    """Figure 4: path-length CDFs of the cost-equivalent 648-host trio."""
    data = RUNNER.execute("fig04", k=12, n_racks=108, seed=0, n_slices=27)
    opera, expander, clos = data["opera"], data["expander"], data["clos"]
    # Paper: Opera's paths are almost always substantially shorter than the
    # folded Clos's and only marginally longer than the u=7 expander's.
    assert opera.average() < clos.average()
    assert expander.average() <= opera.average() + 1.0
    # Nearly all Opera paths fit in 5 hops (the epsilon budget).
    assert opera.fraction_at_most(5) > 0.99
    # Clos paths are 2 (intra-pod) or 4 (cross-pod) switch hops.
    assert set(clos.counts) == {2, 4}


def test_fig16_opera_path_length_tracks_expanders_across_scale():
    """Figure 16 / Appendix C: average path length vs network scale."""
    rows = RUNNER.execute("fig16", radices=(12, 16, 24))
    # Paper: Opera's average path length stays within ~1 hop of the
    # cost-comparable expanders and converges at larger scale.
    for row in rows:
        statics = [v for key, v in row.items() if key.startswith("expander")]
        assert min(statics) - 0.5 < row["opera"] < max(statics) + 1.2
    # Path lengths grow modestly (log-like), not linearly, with scale.
    operas = [r["opera"] for r in rows]
    assert operas[-1] < operas[0] + 1.5


def test_fig17_every_slice_has_a_spectral_gap():
    """Figure 17 / Appendix D: spectral gap vs path length."""
    data = RUNNER.execute("fig17")
    opera = data["opera"]
    statics = {r.label: r for r in data["static"]}
    # Every slice is a genuine expander (positive spectral gap).
    assert all(r.spectral_gap > 0 for r in opera)
    # Paper: Opera's average path length comes very close to the best
    # achievable by a static expander at equal cost (u=6 has the same
    # per-slice degree budget as Opera's 5 active uplinks + identity).
    opera_avg = sum(r.average_path_length for r in opera) / len(opera)
    best_static = min(r.average_path_length for r in statics.values())
    assert opera_avg < best_static + 1.0
    # More uplinks -> shorter static paths (u=8 beats u=5).
    assert (
        statics["expander-u8"].average_path_length
        < statics["expander-u5"].average_path_length
    )
