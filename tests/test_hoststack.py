"""Host-stack latency models: calibration against the paper's §5 anchors."""

import random

import pytest

from repro.errors import ConfigError
from repro.hoststack import (
    Constant,
    LatencyPipeline,
    Lognormal,
    Mixture,
    ebpf_forward_path_pipeline,
    ebpf_reverse_path_pipeline,
    PIPELINES,
    measure_pipeline,
    userspace_proxy_pipeline,
    wire_to_wire_pipeline,
)
from repro.hoststack.components import fixed
from repro.units import microseconds


class TestDistributions:
    def test_constant(self):
        dist = Constant(1234)
        assert dist.sample(random.Random(0)) == 1234
        assert dist.percentile(99) == 1234

    def test_lognormal_median_calibration(self):
        dist = Lognormal(microseconds(10), microseconds(50))
        assert dist.percentile(50) == pytest.approx(microseconds(10), rel=1e-6)
        assert dist.percentile(99) == pytest.approx(microseconds(50), rel=1e-3)

    def test_lognormal_empirical_matches_analytic(self):
        dist = Lognormal(microseconds(5), microseconds(20))
        rng = random.Random(1)
        samples = sorted(dist.sample(rng) for _ in range(200_000))
        median = samples[len(samples) // 2]
        assert median == pytest.approx(microseconds(5), rel=0.02)

    def test_lognormal_shift(self):
        dist = Lognormal(microseconds(10), microseconds(20), shift_ps=microseconds(5))
        rng = random.Random(2)
        assert all(dist.sample(rng) >= microseconds(5) for _ in range(1000))
        assert dist.percentile(50) == pytest.approx(microseconds(10), rel=1e-6)

    def test_lognormal_validation(self):
        with pytest.raises(ConfigError):
            Lognormal(0, 10)
        with pytest.raises(ConfigError):
            Lognormal(10, 5)
        with pytest.raises(ConfigError):
            Lognormal(10, 20, shift_ps=15)

    def test_degenerate_lognormal_is_constant(self):
        dist = Lognormal(100, 100)
        assert dist.sample(random.Random(0)) == 100

    def test_mixture_weights(self):
        dist = Mixture([(0.5, Constant(1)), (0.5, Constant(1000))])
        rng = random.Random(3)
        draws = [dist.sample(rng) for _ in range(2000)]
        low = sum(1 for d in draws if d == 1)
        assert 800 < low < 1200

    def test_mixture_validation(self):
        with pytest.raises(ConfigError):
            Mixture([])
        with pytest.raises(ConfigError):
            Mixture([(-1, Constant(1)), (0.5, Constant(2))])


class TestPipelines:
    def test_pipeline_sums_stages(self):
        pipeline = LatencyPipeline("p", [fixed("a", 100), fixed("b", 200)])
        assert pipeline.sample(random.Random(0)) == 300
        assert pipeline.stage_names() == ["a", "b"]
        assert pipeline.sample_breakdown(random.Random(0)) == {"a": 100, "b": 200}

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            LatencyPipeline("p", [])

    def test_measurement_percentiles_monotone(self):
        m = measure_pipeline(userspace_proxy_pipeline(), packets=20_000, seed=1)
        table = m.table()
        values = list(table.values())
        assert values == sorted(values)

    def test_measurement_is_deterministic(self):
        a = measure_pipeline(ebpf_forward_path_pipeline(), packets=1000, seed=9)
        b = measure_pipeline(ebpf_forward_path_pipeline(), packets=1000, seed=9)
        assert a.samples_ps == b.samples_ps

    def test_pipelines_by_name(self):
        assert list(PIPELINES) == ["ebpf", "userspace", "tc", "xdp", "offload"]
        rng = random.Random(0)
        for name, factory in PIPELINES.items():
            pipeline = factory()
            assert isinstance(pipeline, LatencyPipeline), name
            draws = [pipeline.sample(rng) for _ in range(100)]
            assert all(isinstance(d, int) and d > 0 for d in draws), name
            assert len(set(draws)) > 1, name


class TestPaperAnchors:
    """The calibration targets from paper §5 (Figures 4 and 5)."""

    def test_fig4_userspace_p99(self):
        m = measure_pipeline(userspace_proxy_pipeline(), packets=150_000, seed=0)
        assert m.percentile_us(99) == pytest.approx(359.17, rel=0.10)
        # long-tailed: the p99 is several times the median
        assert m.percentile_us(99) > 3 * m.percentile_us(50)

    def test_fig5a_ebpf_forward_median(self):
        m = measure_pipeline(ebpf_forward_path_pipeline(), packets=150_000, seed=0)
        assert m.percentile_us(50) == pytest.approx(0.42, rel=0.05)

    def test_fig5a_reverse_path_is_cheaper(self):
        fwd = measure_pipeline(ebpf_forward_path_pipeline(), packets=50_000, seed=0)
        rev = measure_pipeline(ebpf_reverse_path_pipeline(), packets=50_000, seed=0)
        assert rev.percentile_us(50) < fwd.percentile_us(50)

    def test_fig5b_wire_to_wire_median(self):
        m = measure_pipeline(wire_to_wire_pipeline(), packets=150_000, seed=0)
        assert m.percentile_us(50) == pytest.approx(325.92, rel=0.05)

    def test_ebpf_is_orders_of_magnitude_below_userspace(self):
        ebpf = measure_pipeline(ebpf_forward_path_pipeline(), packets=20_000, seed=0)
        user = measure_pipeline(userspace_proxy_pipeline(), packets=20_000, seed=0)
        assert user.percentile_us(50) / ebpf.percentile_us(50) > 50

    def test_upper_bound_dwarfs_proxy_logic(self):
        # The paper's point: the wire-to-wire cost is dominated by the stack,
        # not the proxy program itself.
        ebpf = measure_pipeline(ebpf_forward_path_pipeline(), packets=20_000, seed=0)
        upper = measure_pipeline(wire_to_wire_pipeline(), packets=20_000, seed=0)
        assert ebpf.percentile_us(50) / upper.percentile_us(50) < 0.01
