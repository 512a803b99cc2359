"""The workload registry and the open-loop production-traffic engine."""

import math

import pytest

import repro
from repro.config import small_interdc_config
from repro.errors import ConfigError, WorkloadError
from repro.metrics.config import MODE_SKETCH, MetricsConfig
from repro.sim.rng import derive_stream
from repro.orchestration import run_concurrent_incasts
from repro.units import milliseconds, seconds
from repro.workloads.engine import (
    DiurnalCurve,
    OpenLoopEngine,
    WorkloadEngineConfig,
    rss_plateau_ok,
)
from repro.workloads.incast import IncastJob, uniform_incast
from repro.workloads.registry import (
    WORKLOAD_REGISTRY,
    TenantRequest,
    WorkloadRegistry,
    WorkloadSpec,
    register_workload,
    tenant_jobs,
)
from repro.workloads.sizes import HeavyTailConfig


def _one_job(**params):
    return [
        IncastJob(
            name="probe",
            sender_indices=(0, 1),
            receiver_index=0,
            flow_bytes=(10, 10),
        )
    ]


#: Small parameters for each built-in workload's offline builder.
_SMALL_BUILD_PARAMS = {
    "uniform": dict(name="u", degree=2, total_bytes=2_000),
    "periodic": dict(bursts=2, period_ps=milliseconds(1)),
    "moe-dispatch": dict(senders=2, experts=2, tokens_per_sender=4),
    "moe-combine": dict(senders=2, experts=2, tokens_per_sender=4),
    "ec-reconstruct": dict(data_fragments=2, fragment_bytes=1_000, servers=4),
    "quorum": dict(shards=2, batch_bytes_mean=1_000),
}


class TestWorkloadRegistry:
    @pytest.mark.parametrize("name", WORKLOAD_REGISTRY.names())
    def test_every_registered_builder_builds_jobs(self, name):
        jobs = repro.build_workload(name, **_SMALL_BUILD_PARAMS[name])
        assert jobs
        assert all(isinstance(job, IncastJob) for job in jobs)

    def test_names_iteration_and_len_follow_registration_order(self):
        registry = WorkloadRegistry()
        for name in ("b", "a"):
            registry.register(
                WorkloadSpec(name=name, display_name=name, build=_one_job)
            )
        assert registry.names() == ("b", "a")
        assert [spec.name for spec in registry] == ["b", "a"]
        assert len(registry) == 2

    def test_builtins_are_registered(self):
        for name in ("uniform", "periodic", "moe-dispatch",
                     "moe-combine", "ec-reconstruct", "quorum"):
            assert name in WORKLOAD_REGISTRY

    def test_tenant_names_are_the_engine_capable_subset(self):
        names = WORKLOAD_REGISTRY.tenant_names()
        assert "uniform" in names
        assert "quorum" in names
        assert "periodic" not in names  # no tenant builder

    def test_register_refuses_silent_redefinition(self):
        registry = WorkloadRegistry()
        spec = WorkloadSpec(name="w", display_name="W", build=_one_job)
        registry.register(spec)
        with pytest.raises(WorkloadError, match="already registered"):
            registry.register(spec)
        registry.register(spec, replace=True)  # explicit override is fine

    def test_unregister_then_get_reports_whats_left(self):
        registry = WorkloadRegistry()
        registry.register(WorkloadSpec(name="w", display_name="W", build=_one_job))
        registry.unregister("w")
        registry.unregister("w")  # idempotent
        with pytest.raises(WorkloadError, match="unknown workload"):
            registry.get("w")

    def test_decorator_registers_and_returns_the_builder(self):
        registry = WorkloadRegistry()

        @register_workload("probe", registry=registry, description="d")
        def build_probe(**params):
            return _one_job()

        assert registry.get("probe").build is build_probe
        assert registry.get("probe").tenant is None

    def test_build_workload_top_level_export(self):
        jobs = repro.build_workload("uniform", name="x", degree=4,
                                    total_bytes=4_000)
        assert len(jobs) == 1
        assert jobs[0].degree == 4
        assert repro.WORKLOAD_REGISTRY is WORKLOAD_REGISTRY


class TestTenantJobs:
    def _request(self, index=7):
        return TenantRequest(index=index, seed=1, total_bytes=100_000,
                             sender_pool=6, receiver_pool=4)

    def test_remaps_indices_onto_the_pools(self):
        spec = WORKLOAD_REGISTRY.get("uniform")
        jobs = tenant_jobs(spec, self._request(), start_ps=seconds(1),
                           sender_offset=4, receiver_offset=3)
        job = jobs[0]
        assert all(0 <= i < 6 for i in job.sender_indices)
        assert 0 <= job.receiver_index < 4
        assert job.start_ps >= seconds(1)
        assert job.total_bytes == 100_000

    def test_names_are_tenant_unique(self):
        spec = WORKLOAD_REGISTRY.get("uniform")
        a = tenant_jobs(spec, self._request(index=1), start_ps=0,
                        sender_offset=0, receiver_offset=0)
        b = tenant_jobs(spec, self._request(index=2), start_ps=0,
                        sender_offset=0, receiver_offset=0)
        assert a[0].name != b[0].name
        assert a[0].name.startswith("t1:")

    def test_rejects_specs_without_a_tenant_builder(self):
        spec = WORKLOAD_REGISTRY.get("periodic")
        with pytest.raises(WorkloadError, match="no open-loop tenant builder"):
            tenant_jobs(spec, self._request(), start_ps=0,
                        sender_offset=0, receiver_offset=0)

    def test_every_tenant_builder_respects_the_pools(self):
        for name in WORKLOAD_REGISTRY.tenant_names():
            spec = WORKLOAD_REGISTRY.get(name)
            jobs = tenant_jobs(spec, self._request(), start_ps=0,
                               sender_offset=5, receiver_offset=2)
            assert jobs, name
            for job in jobs:
                assert all(0 <= i < 6 for i in job.sender_indices), name
                assert 0 <= job.receiver_index < 4, name


class TestHeavyTail:
    def test_samples_stay_in_bounds(self):
        config = HeavyTailConfig(minimum_bytes=1_000, maximum_bytes=50_000,
                                 alpha=1.2)
        rng = derive_stream(0, "tail")
        for _ in range(5_000):
            assert 1_000 <= config.sample(rng) <= 50_000

    def test_empirical_mean_matches_analytic(self):
        config = HeavyTailConfig(minimum_bytes=10_000, maximum_bytes=1_000_000,
                                 alpha=1.5)
        rng = derive_stream(1, "tail-mean")
        draws = [config.sample(rng) for _ in range(40_000)]
        empirical = sum(draws) / len(draws)
        assert math.isclose(empirical, config.mean_bytes(), rel_tol=0.05)

    def test_alpha_one_mean_is_the_log_limit(self):
        config = HeavyTailConfig(minimum_bytes=1_000, maximum_bytes=100_000,
                                 alpha=1.0)
        near = HeavyTailConfig(minimum_bytes=1_000, maximum_bytes=100_000,
                               alpha=1.000001)
        assert math.isclose(config.mean_bytes(), near.mean_bytes(), rel_tol=1e-3)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            HeavyTailConfig(minimum_bytes=0)
        with pytest.raises(WorkloadError):
            HeavyTailConfig(minimum_bytes=100, maximum_bytes=100)
        with pytest.raises(WorkloadError):
            HeavyTailConfig(alpha=0.0)


class TestDiurnalCurve:
    def test_multiplier_spans_trough_to_peak(self):
        curve = DiurnalCurve(period_ps=seconds(10), trough=0.2)
        assert math.isclose(curve.multiplier(0), 0.2)
        assert math.isclose(curve.multiplier(seconds(5)), 1.0)  # mid-period peak
        for t in range(0, 10):
            m = curve.multiplier(seconds(t))
            assert 0.2 <= m <= 1.0

    def test_curve_is_periodic(self):
        curve = DiurnalCurve(period_ps=seconds(3), trough=0.5)
        assert math.isclose(curve.multiplier(seconds(1)),
                            curve.multiplier(seconds(4)))

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiurnalCurve(period_ps=0)
        with pytest.raises(ConfigError):
            DiurnalCurve(trough=0.0)
        with pytest.raises(ConfigError):
            DiurnalCurve(trough=1.5)


class TestEngineConfig:
    def test_defaults_validate(self):
        config = WorkloadEngineConfig()
        assert config.scheme == "streamlined"
        assert config.metrics.mode == MODE_SKETCH

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(horizon_ps=0)
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(segment_ps=seconds(999))  # > horizon
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(peak_arrivals_per_s=0.0)
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(load_factor=-1.0)
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(strategy="psychic")
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(mix=())
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(mix=(("uniform", -1.0),))
        with pytest.raises(ConfigError):
            WorkloadEngineConfig(slo_ps=0)

    @pytest.mark.parametrize("strategy", ["central", "shared"])
    def test_rejects_duplicate_job_names(self, strategy):
        # Per-job state is keyed by name: a repeat collides on a proxy
        # assignment ("shared") or merges two incasts' ICTs ("central").
        jobs = [uniform_incast("same", degree=2, total_bytes=1_000),
                uniform_incast("same", degree=2, total_bytes=1_000,
                               sender_offset=2)]
        with pytest.raises(ConfigError, match=r"repeated: \['same'\]"):
            run_concurrent_incasts(jobs, strategy=strategy,
                                   interdc=small_interdc_config())

    def test_engine_rejects_non_tenant_mixes(self):
        with pytest.raises(WorkloadError, match="no tenant builder"):
            OpenLoopEngine(WorkloadEngineConfig(mix=(("periodic", 1.0),)))


def _short_config(**overrides):
    defaults = dict(
        scheme="streamlined",
        horizon_ps=seconds(2),
        segment_ps=milliseconds(500),
        peak_arrivals_per_s=40.0,
        sizes=HeavyTailConfig(minimum_bytes=64_000, maximum_bytes=2_000_000,
                              alpha=1.3),
        diurnal=DiurnalCurve(period_ps=seconds(2), trough=0.5),
        metrics=MetricsConfig(mode=MODE_SKETCH),
        seed=3,
    )
    defaults.update(overrides)
    return WorkloadEngineConfig(**defaults)


class TestOpenLoopEngine:
    def test_short_run_completes_its_jobs(self):
        result = OpenLoopEngine(_short_config()).run()
        assert result.tenants > 10
        assert result.jobs_launched > result.tenants / 2
        assert result.jobs_completed == result.jobs_launched
        assert result.completion == 1.0  # repro: allow[float-eq] - exact ratio of equal ints
        assert 0.0 <= result.attainment <= 1.0
        assert result.bytes_completed == result.bytes_offered
        assert result.ict.count == result.jobs_completed
        assert result.counters.tx_packets > 0

    def test_thinning_drops_some_arrivals(self):
        result = OpenLoopEngine(_short_config()).run()
        fold_total = result.tenants  # admitted
        engine = OpenLoopEngine(_short_config())
        engine.run()
        assert engine.fold.tenants_thinned > 0
        assert engine.fold.tenants_arrived == (
            engine.fold.tenants_admitted + engine.fold.tenants_thinned
        )
        assert fold_total == engine.fold.tenants_admitted

    def test_direct_scheme_never_uses_the_proxy_pool(self):
        result = OpenLoopEngine(_short_config(scheme="baseline")).run()
        assert result.strategy == "none"
        assert result.jobs_proxied == 0
        assert result.jobs_direct == result.jobs_launched

    def test_proxied_scheme_routes_through_the_pool(self):
        result = OpenLoopEngine(_short_config(scheme="streamlined")).run()
        assert result.strategy == "central"
        assert result.jobs_proxied == result.jobs_launched

    def test_same_seed_same_digest(self):
        a = OpenLoopEngine(_short_config()).run()
        b = OpenLoopEngine(_short_config()).run()
        assert a.digest == b.digest

    def test_different_seed_different_digest(self):
        a = OpenLoopEngine(_short_config(seed=3)).run()
        b = OpenLoopEngine(_short_config(seed=4)).run()
        assert a.digest != b.digest

    def test_load_factor_scales_arrivals(self):
        light = OpenLoopEngine(_short_config(load_factor=0.5)).run()
        heavy = OpenLoopEngine(_short_config(load_factor=2.0)).run()
        assert heavy.tenants > light.tenants

    def test_sketch_and_exact_modes_agree_on_counts(self):
        sketch = OpenLoopEngine(_short_config()).run()
        exact = OpenLoopEngine(
            _short_config(metrics=MetricsConfig())
        ).run()
        assert sketch.tenants == exact.tenants
        assert sketch.jobs_completed == exact.jobs_completed
        assert sketch.bytes_completed == exact.bytes_completed
        assert sketch.ict.count == exact.ict.count
        assert math.isclose(sketch.ict.mean, exact.ict.mean, rel_tol=1e-9)

    def test_predictor_gate_observes_after_deciding(self):
        # Poisson arrivals carry no rhythm, so the predictor should stage
        # (almost) nothing — every job runs direct, honestly.
        result = OpenLoopEngine(
            _short_config(pattern_predictor=True)
        ).run()
        assert result.jobs_direct > 0
        assert result.jobs_proxied < result.jobs_launched


class TestRssPlateau:
    def test_needs_enough_samples(self):
        with pytest.raises(ConfigError, match="8 RSS samples"):
            rss_plateau_ok([(0, 100)] * 7)

    def test_flat_track_passes(self):
        track = [(i, 50_000) for i in range(12)]
        assert rss_plateau_ok(track)

    def test_mild_growth_within_tolerance_passes(self):
        track = [(i, 50_000 + i * 100) for i in range(12)]
        assert rss_plateau_ok(track, tolerance=0.15)

    def test_unbounded_growth_fails(self):
        track = [(i, 50_000 + i * 20_000) for i in range(12)]
        assert not rss_plateau_ok(track, tolerance=0.15)

    def test_zero_samples_platform_is_a_pass(self):
        track = [(i, 0) for i in range(12)]
        assert rss_plateau_ok(track)


class TestSmokeCli:
    """``python -m repro workload --smoke``, which CI's preemption drill runs."""

    #: Streams seeded by t = 2 s of the smoke config: the 16 seeded at build
    #: (12 ``spray:``, 3 ``engine:``, ``orchestration:select``) and 10 queues
    #: that drew in their band.
    STREAMS_AT_2S = 26

    def test_smoke_run_prints_its_digest_and_leaves_a_restorable_checkpoint(
        self, capsys, tmp_path
    ):
        from repro.competitors import uninstall
        from repro.experiments.workload import main
        from repro.sim.checkpoint import load_checkpoint

        try:
            main(["--smoke", "--horizon", "2", "--segment", "1",
                  "--checkpoint-dir", str(tmp_path)])
        finally:
            uninstall()  # main() installs the competitors globally
        out = capsys.readouterr().out
        (digest,) = [line.split()[1] for line in out.splitlines()
                     if line.startswith("workload_digest: ")]
        assert len(digest) == 64
        assert "workload: ok (32 incasts, 2s simulated)" in out
        engine = load_checkpoint(tmp_path / "workload.ckpt")
        assert isinstance(engine, OpenLoopEngine)
        assert engine.sim.now == seconds(2)
        assert len(engine.sim.rng) == self.STREAMS_AT_2S
