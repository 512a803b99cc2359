"""Figure 2 (Right): ICT vs incast size at fixed degree 4.

Paper anchors: proxies cut ICT by 57.08% (Naive) / 53.60% (Streamlined)
on average for incasts larger than 20 MB; at the no-loss size every scheme
is on par and the proxy buys nothing.
"""

from repro.experiments.sweeps import size_sweep_spec
from repro.units import megabytes

from benchmarks.conftest import run_sweep

#: On the reduced fabric the no-first-RTT-loss crossover sits around the
#: 4 MB leaf buffers; 2 MB plays the role of the paper's 20 MB point.
SIZES_MB = (2, 8, 24)


def test_fig2_right_crossover(benchmark, engine, reduced_scenario):
    """The crossover: parity below the loss threshold, big wins above."""
    spec = size_sweep_spec(
        reduced_scenario, [megabytes(mb) for mb in SIZES_MB], reps=1
    )
    points = run_sweep(benchmark, engine, spec)
    small, large = points[0], points[-1]
    for scheme in ("naive", "streamlined"):
        # parity at the no-loss size (within 15%)
        assert abs(small.reduction(scheme)) < 0.15
        # large incasts: both proxies win big
        assert large.reduction(scheme) > 0.5
