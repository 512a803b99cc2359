"""Time-series sampling and convergence analysis."""

import pytest

from dataclasses import replace

from repro.competitors import COMPETITOR_SCHEMES, install, uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError, ExperimentError
from repro.experiments.convergence import compare_convergence, measure_convergence
from repro.experiments.runner import SCHEMES, IncastScenario, run_incast
from repro.metrics.timeseries import Sampler, TimeSeries
from repro.sim.simulator import Simulator
from repro.units import megabytes, microseconds, milliseconds


class TestTimeSeries:
    def test_observe_and_len(self):
        series = TimeSeries("x", 100)
        series.observe(0, 1.0)
        series.observe(100, 2.0)
        assert len(series) == 2
        assert series.peak() == 2.0

    def test_rate_per_second(self):
        series = TimeSeries("bytes", microseconds(1))
        # 1000 bytes per microsecond = 1e9 bytes/s
        for i in range(4):
            series.observe(i * microseconds(1), i * 1000.0)
        rates = series.rate_per_second()
        assert len(rates) == 3
        assert all(r == pytest.approx(1e9) for r in rates.values)

    def test_rate_of_empty_series(self):
        assert len(TimeSeries("x", 1).rate_per_second()) == 0


class TestSampler:
    def test_samples_on_cadence(self):
        sim = Simulator()
        sampler = Sampler(sim, interval_ps=100)
        counter = [0]
        sink = sampler.probe("count", lambda: counter[0])
        sim.schedule(250, lambda: counter.__setitem__(0, 7))
        sampler.start()
        sim.schedule(1000, sampler.stop)
        sim.run(until=2000)
        series = sink.to_timeseries()
        assert series.times[:4] == [0, 100, 200, 300]
        assert series.values[3] == 7.0

    def test_stop_ends_sampling(self):
        sim = Simulator()
        sampler = Sampler(sim, interval_ps=10)
        sampler.probe("x", lambda: 1.0)
        sampler.start()
        sim.run(max_events=5)
        sampler.stop()
        n = len(sampler.snapshot()["x"])
        sim.run(until=10_000)
        assert len(sampler.snapshot()["x"]) <= n + 1

    def test_max_samples_bounds_runaway(self):
        sim = Simulator()
        sampler = Sampler(sim, interval_ps=1, max_samples=50)
        sampler.probe("x", lambda: 0.0)
        sampler.start()
        sim.run(until=10_000)
        assert len(sampler.snapshot()["x"]) == 50

    def test_duplicate_probe_rejected(self):
        sampler = Sampler(Simulator(), interval_ps=1)
        sampler.probe("x", lambda: 0.0)
        with pytest.raises(ConfigError):
            sampler.probe("x", lambda: 0.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigError):
            Sampler(Simulator(), interval_ps=0)


class TestConvergence:
    @pytest.fixture(scope="class")
    def results(self):
        base = IncastScenario(
            degree=4,
            total_bytes=megabytes(24),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        return compare_convergence(base)

    def test_all_schemes_complete(self, results):
        assert all(r.completed for r in results.values())

    def test_proxies_converge_baseline_does_not(self, results):
        """The paper's Insight #2, measured: with the proxy, goodput reaches
        and holds 80% of the bottleneck almost immediately; direct senders
        never sustain it."""
        assert results["naive"].convergence_time_ps is not None
        assert results["streamlined"].convergence_time_ps is not None
        assert results["baseline"].convergence_time_ps is None

    def test_proxy_utilization_near_full(self, results):
        assert results["naive"].mean_utilization > 0.85
        assert results["streamlined"].mean_utilization > 0.85
        assert results["baseline"].mean_utilization < 0.3

    def test_baseline_wastes_most_of_its_lifetime(self, results):
        baseline = results["baseline"]
        assert baseline.underutilized_ps > 0.8 * baseline.ict_ps

    def test_utilization_series_fractions(self, results):
        for result in results.values():
            for _, fraction in result.utilization_series():
                assert fraction >= 0
                # transient bursts may exceed 1 briefly (queue drain), but
                # never the 8:1 leaf fan-in
                assert fraction < 8

    def test_target_fraction_validation(self):
        scenario = IncastScenario(interdc=small_interdc_config())
        with pytest.raises(ExperimentError):
            measure_convergence(scenario, target_fraction=0)

    def test_unknown_scheme_rejected(self):
        scenario = IncastScenario(interdc=small_interdc_config())
        with pytest.raises(ExperimentError):
            compare_convergence(scenario, schemes=("baseline", "warp"))


class TestSameRunAsRunIncast:
    """The probe rides run_incast's own run, so it sees the same ICT under
    every scheme and routing mode — a harness that wired flows itself ran
    Pulser and RepFlow as plain connections and ignored ``routing``."""

    SCENARIO = IncastScenario(
        degree=4,
        total_bytes=megabytes(8),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )

    @pytest.fixture
    def competitors(self):
        install()
        try:
            yield
        finally:
            uninstall()

    @pytest.mark.parametrize("scheme,routing", [
        *((scheme, "spray") for scheme in SCHEMES + COMPETITOR_SCHEMES),
        ("baseline", "ecmp"),
        ("streamlined", "ecmp"),
    ])
    def test_ict_matches_run_incast(self, competitors, scheme, routing):
        scenario = replace(self.SCENARIO, scheme=scheme, routing=routing)
        assert measure_convergence(scenario).ict_ps == run_incast(scenario).ict_ps

    def test_background_flows_rejected(self):
        scenario = replace(self.SCENARIO, background_flows=2)
        with pytest.raises(ExperimentError, match="background"):
            measure_convergence(scenario)
