"""Figure 3: ICT vs long-haul link latency (log-log in the paper).

Paper anchors: proxies win for link latency >= 100 us (about -12% there),
-75% at 1 ms, and the saving keeps growing with latency — region level to
WAN level.
"""

from repro.experiments.sweeps import latency_sweep_spec
from repro.units import microseconds, milliseconds

from benchmarks.conftest import run_sweep

DELAYS = (microseconds(10), microseconds(100), milliseconds(1), milliseconds(10))


def test_fig3_saving_grows_with_latency(benchmark, engine, reduced_scenario):
    """The figure's shape: reductions increase monotonically with latency."""
    spec = latency_sweep_spec(reduced_scenario, DELAYS, reps=1)
    points = run_sweep(benchmark, engine, spec)
    # from 100 us up: the region-to-WAN range the paper's anchors cover
    reductions = [point.reduction("naive") for point in points[1:]]
    assert reductions == sorted(reductions)  # monotone growth
    assert reductions[-1] > 0.75  # WAN-ish latency: paper reports ~75%+
