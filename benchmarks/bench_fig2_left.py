"""Figure 2 (Left): ICT vs incast degree, all three schemes.

Paper anchors: both proxies cut ICT across all degrees — Naive by 75.67%
and Streamlined by 70.60% on average — with the benefit growing at larger
degrees and the two proxies converging there.
"""

from repro.experiments.sweeps import degree_sweep_spec

from benchmarks.conftest import run_sweep

DEGREES = (2, 4, 6)


def test_fig2_left_shape(benchmark, engine, reduced_scenario):
    """The figure's shape: proxies beat baseline at every loss-inducing degree."""
    spec = degree_sweep_spec(reduced_scenario, DEGREES, reps=1)
    points = run_sweep(benchmark, engine, spec)
    for point in points:
        assert point.reduction("naive") > 0, point.label
        assert point.reduction("streamlined") > 0, point.label
    # averages in the paper's reported ballpark (reduced scale runs hotter)
    mean_reduction = sum(p.reduction("streamlined") for p in points) / len(points)
    assert mean_reduction > 0.5
