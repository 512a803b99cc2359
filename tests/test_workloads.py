"""Workload generators: byte conservation, shapes, and validation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    MoEConfig,
    QuorumConfig,
    ReconstructionConfig,
    moe_dispatch_jobs,
    quorum_write_jobs,
    reconstruction_jobs,
    uniform_incast,
)
from repro.workloads.incast import IncastJob


class TestIncastJob:
    def test_uniform_split_conserves_bytes(self):
        job = uniform_incast("x", degree=3, total_bytes=100)
        assert job.total_bytes == 100
        assert job.degree == 3
        assert max(job.flow_bytes) - min(job.flow_bytes) <= 1

    def test_sender_offset(self):
        job = uniform_incast("x", degree=2, total_bytes=10, sender_offset=5)
        assert job.sender_indices == (5, 6)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(WorkloadError):
            IncastJob("x", (0, 1), 0, (100,))

    def test_zero_flow_rejected(self):
        with pytest.raises(WorkloadError):
            IncastJob("x", (0,), 0, (0,))

    def test_negative_start_rejected(self):
        with pytest.raises(WorkloadError):
            IncastJob("x", (0,), 0, (1,), start_ps=-1)

    def test_degree_validation(self):
        with pytest.raises(WorkloadError):
            uniform_incast("x", degree=0, total_bytes=10)
        with pytest.raises(WorkloadError):
            uniform_incast("x", degree=20, total_bytes=10)


class TestMoE:
    def test_token_conservation(self):
        cfg = MoEConfig(senders=4, experts=3, tokens_per_sender=100, token_bytes=10)
        jobs = moe_dispatch_jobs(cfg)
        total = sum(job.total_bytes for job in jobs)
        assert total == 4 * 100 * 10

    def test_one_job_per_expert_per_step(self):
        cfg = MoEConfig(senders=4, experts=3, steps=2, tokens_per_sender=500)
        jobs = moe_dispatch_jobs(cfg)
        assert len(jobs) == 6
        receivers = {job.receiver_index for job in jobs}
        assert receivers == {0, 1, 2}

    def test_zipf_skew_loads_first_expert_most(self):
        cfg = MoEConfig(senders=8, experts=4, tokens_per_sender=2000, zipf_skew=1.5)
        jobs = moe_dispatch_jobs(cfg)
        by_expert = {job.receiver_index: job.total_bytes for job in jobs}
        assert by_expert[0] > by_expert[3]

    def test_uniform_gating_balances(self):
        cfg = MoEConfig(senders=8, experts=4, tokens_per_sender=5000, zipf_skew=0.0)
        jobs = moe_dispatch_jobs(cfg)
        sizes = [job.total_bytes for job in jobs]
        assert max(sizes) < 1.2 * min(sizes)

    def test_steps_are_spaced(self):
        cfg = MoEConfig(steps=3, step_interval_ps=1000)
        jobs = moe_dispatch_jobs(cfg)
        starts = sorted({job.start_ps for job in jobs})
        assert starts == [0, 1000, 2000]

    def test_deterministic_by_seed(self):
        a = moe_dispatch_jobs(MoEConfig(seed=5))
        b = moe_dispatch_jobs(MoEConfig(seed=5))
        assert [j.flow_bytes for j in a] == [j.flow_bytes for j in b]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MoEConfig(senders=0)
        with pytest.raises(WorkloadError):
            MoEConfig(zipf_skew=-1)


class TestStorageReconstruction:
    def test_degree_is_k(self):
        jobs = reconstruction_jobs(ReconstructionConfig(data_fragments=6))
        assert jobs[0].degree == 6
        assert all(b == 16_000_000 for b in jobs[0].flow_bytes)

    def test_senders_are_distinct_stripe_servers(self):
        jobs = reconstruction_jobs(ReconstructionConfig(data_fragments=6, servers=10))
        assert len(set(jobs[0].sender_indices)) == 6
        assert max(jobs[0].sender_indices) < 10

    def test_multiple_reconstructions_spread(self):
        cfg = ReconstructionConfig(reconstructions=3, spread_ps=500)
        jobs = reconstruction_jobs(cfg)
        assert [j.start_ps for j in jobs] == [0, 500, 1000]
        assert len({j.receiver_index for j in jobs}) == 3

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ReconstructionConfig(data_fragments=10, servers=5)


class TestQuorumWrites:
    def test_degree_is_shard_count(self):
        jobs = quorum_write_jobs(QuorumConfig(shards=12))
        assert jobs[0].degree == 12

    def test_jitter_bounds(self):
        cfg = QuorumConfig(shards=50, batch_bytes_mean=1000, batch_bytes_jitter=0.5)
        job = quorum_write_jobs(cfg)[0]
        assert all(500 <= b <= 1500 for b in job.flow_bytes)

    def test_no_jitter_is_exact(self):
        cfg = QuorumConfig(shards=4, batch_bytes_mean=1000, batch_bytes_jitter=0.0)
        job = quorum_write_jobs(cfg)[0]
        assert all(b == 1000 for b in job.flow_bytes)

    def test_epochs(self):
        cfg = QuorumConfig(epochs=2, epoch_interval_ps=77)
        jobs = quorum_write_jobs(cfg)
        assert [j.start_ps for j in jobs] == [0, 77]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            QuorumConfig(batch_bytes_jitter=1.0)


class TestPoissonArrivals:
    """The open-loop engine's Poisson tenant arrivals, the repo's churn
    generator.  With the diurnal trough at 1 nothing is thinned, so the
    accepted stream is the raw process at the peak rate."""

    def _config(self, **kw):
        from repro.config import TransportConfig, small_interdc_config
        from repro.units import seconds
        from repro.workloads import DiurnalCurve, HeavyTailConfig, WorkloadEngineConfig
        defaults = dict(
            scheme="streamlined", horizon_ps=seconds(5), segment_ps=seconds(5),
            peak_arrivals_per_s=400.0, mix=(("uniform", 1.0),),
            sizes=HeavyTailConfig(minimum_bytes=64_000, maximum_bytes=1_000_000,
                                  alpha=1.3),
            diurnal=DiurnalCurve(trough=1.0), interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096), seed=1,
        )
        defaults.update(kw)
        return WorkloadEngineConfig(**defaults)

    def _arrivals(self, **kw):
        """The engine and every incast its arrivals launch, none wired."""
        from repro.workloads import OpenLoopEngine
        config = self._config(**kw)
        engine = OpenLoopEngine(config)
        launched = []
        engine._launch = launched.append
        engine.sim.run(until=config.horizon_ps)
        return engine, launched

    def test_jobs_ordered_by_start_time(self):
        engine, jobs = self._arrivals()
        starts = [j.start_ps for j in jobs]
        assert starts == sorted(starts)
        assert len(jobs) == engine.fold.tenants_arrived > 1000

    def test_interarrival_mean_roughly_respected(self):
        _, jobs = self._arrivals()
        gaps = [b.start_ps - a.start_ps for a, b in zip(jobs, jobs[1:])]
        mean = sum(gaps) / len(gaps)
        assert 0.85 * 2.5e9 < mean < 1.15 * 2.5e9  # 400 arrivals/s

    def test_senders_stay_within_pool(self):
        engine, jobs = self._arrivals()
        for job in jobs:
            assert max(job.sender_indices) < engine._tenant_senders
            assert len(set(job.sender_indices)) == job.degree
            senders = {engine._sender_hosts[i].id for i in job.sender_indices}
            assert not senders & set(engine._proxy_hosts_by_id)

    def test_receivers_rotate(self):
        engine, jobs = self._arrivals()
        assert {j.receiver_index for j in jobs} == set(range(len(engine._receiver_hosts)))

    def test_deterministic_by_seed(self):
        _, a = self._arrivals(seed=9)
        _, b = self._arrivals(seed=9)
        _, c = self._arrivals(seed=10)
        assert [(j.start_ps, j.flow_bytes) for j in a] == \
               [(j.start_ps, j.flow_bytes) for j in b]
        assert [j.start_ps for j in a] != [j.start_ps for j in c]

    def test_churn_run_end_to_end(self):
        from repro.units import milliseconds
        from repro.workloads import OpenLoopEngine
        engine = OpenLoopEngine(self._config(
            horizon_ps=milliseconds(200), segment_ps=milliseconds(200)
        ))
        result = engine.run()
        assert result.jobs_launched == result.jobs_proxied > 20
        assert result.jobs_completed >= result.jobs_launched - 2
        # Each completion released its proxy: only incasts still in flight
        # at the horizon hold one.
        registry = engine.selector.registry
        in_flight = result.jobs_launched - result.jobs_completed
        assert sum(registry.load(h) for h in registry.host_ids) == in_flight


class TestMoECombine:
    def test_one_job_per_worker(self):
        from repro.workloads import MoEConfig, moe_combine_jobs
        cfg = MoEConfig(senders=4, experts=3, tokens_per_sender=500)
        jobs = moe_combine_jobs(cfg)
        assert len(jobs) == 4
        assert {j.receiver_index for j in jobs} == {0, 1, 2, 3}

    def test_combine_conserves_dispatch_bytes(self):
        from repro.workloads import MoEConfig, moe_combine_jobs, moe_dispatch_jobs
        cfg = MoEConfig(senders=4, experts=3, tokens_per_sender=500, seed=3)
        dispatched = sum(j.total_bytes for j in moe_dispatch_jobs(cfg))
        combined = sum(j.total_bytes for j in moe_combine_jobs(cfg))
        assert dispatched == combined  # same gating assignment, same seed

    def test_combine_runs_reversed_end_to_end(self):
        # The combine phase is dispatch reversed: experts fan back into the
        # workers.  Both datacenters share one fabric config, so the experts'
        # datacenter simply plays the sending side.
        from repro.config import TransportConfig, small_interdc_config
        from repro.orchestration import run_concurrent_incasts
        from repro.workloads import MoEConfig, moe_combine_jobs
        cfg = MoEConfig(senders=3, experts=2, tokens_per_sender=800,
                        token_bytes=4096, seed=1)
        jobs = moe_combine_jobs(cfg)
        result = run_concurrent_incasts(
            jobs, scheme="streamlined", strategy="central",
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        assert result.completed
        assert len(result.ict_ps) == len(jobs)
