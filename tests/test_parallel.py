"""The parallel execution engine: hashing, cache, pool, deterministic merge."""

import pickle
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.races import result_digest
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.grid import run_grid
from repro.experiments.parallel import (
    ExperimentEngine,
    ResultCache,
    resolve_workers,
    scenario_key,
)
from repro.experiments.runner import IncastScenario, run_incast
from repro.experiments.sweeps import (
    degree_sweep_spec,
    run_scheme_summary,
    sweep_digest,
)
from repro.telemetry.options import RunOptions
from repro.units import megabytes, microseconds


@pytest.fixture()
def tiny_scenario() -> IncastScenario:
    """Small enough that a single run takes ~tens of milliseconds."""
    return IncastScenario(
        degree=2,
        total_bytes=megabytes(1),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


@pytest.fixture(scope="module")
def cached_entry(tmp_path_factory):
    """One real cache entry: its key, its result and its file's bytes."""
    result = run_incast(IncastScenario(
        degree=2, total_bytes=megabytes(1), interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    ))
    cache = ResultCache(tmp_path_factory.mktemp("entry"))
    key = scenario_key(result.scenario)
    cache.put(key, result)
    return key, result, cache.path_for(key).read_bytes()


def _square(x: int) -> int:  # top-level: picklable for the pool
    return x * x


class TestScenarioKey:
    def test_stable_across_calls(self, tiny_scenario):
        assert scenario_key(tiny_scenario) == scenario_key(tiny_scenario)

    def test_equal_scenarios_hash_identically(self, tiny_scenario):
        clone = replace(tiny_scenario)
        assert scenario_key(clone) == scenario_key(tiny_scenario)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 7},
            {"degree": 3},
            {"total_bytes": megabytes(2)},
            {"scheme": "streamlined"},
            {"routing": "ecmp"},
        ],
    )
    def test_any_field_change_changes_key(self, tiny_scenario, change):
        assert scenario_key(replace(tiny_scenario, **change)) != scenario_key(
            tiny_scenario
        )

    def test_nested_config_change_changes_key(self, tiny_scenario):
        varied = replace(
            tiny_scenario,
            interdc=tiny_scenario.interdc.with_backbone_delay(microseconds(5)),
        )
        assert scenario_key(varied) != scenario_key(tiny_scenario)

    def test_callable_fields_are_uncacheable(self):
        # A scenario is plain data; a callable in a config is a caller bug,
        # and hashing refuses it outright instead of running it uncached.
        @dataclass(frozen=True)
        class WithCallback:
            callback: object = None

        with pytest.raises(TypeError, match="function"):
            scenario_key(WithCallback(callback=lambda: 0))

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            scenario_key({"not": "a dataclass"})

    def test_proxy_overhead_keys(self, tiny_scenario):
        streamlined = replace(tiny_scenario, scheme="streamlined")
        keys = {
            overhead: scenario_key(replace(streamlined, proxy_overhead=overhead))
            for overhead in (None, "ebpf", "userspace", "tc", "xdp", "offload")
        }
        assert len(set(keys.values())) == len(keys)  # distinct across values
        for overhead, key in keys.items():  # equal for equal values
            assert scenario_key(replace(streamlined, proxy_overhead=overhead)) == key
        assert keys[None] == scenario_key(streamlined)

    def test_reregistered_scheme_changes_key(self, tiny_scenario):
        # Regression: keys used to hash the scheme *name* only, so a
        # third-party registration reusing a name silently reused the old
        # implementation's cached results.
        from repro.schemes import SCHEME_REGISTRY, SchemeWiring, register_scheme

        @register_scheme("keytest")
        def wire_one(ctx):
            return SchemeWiring()

        try:
            scenario = replace(tiny_scenario, scheme="keytest")
            first = scenario_key(scenario)
            assert first == scenario_key(scenario)  # stable while unchanged

            @register_scheme("keytest", replace=True)
            def wire_two(ctx):
                return SchemeWiring()  # different implementation, same name

            assert scenario_key(scenario) != first
        finally:
            SCHEME_REGISTRY.unregister("keytest")


def _raise_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("item two is cursed")
    return x


class TestRunParallel:
    """``ExperimentEngine.map``: the uncached fan-out over arbitrary work."""

    def test_serial_path(self):
        assert ExperimentEngine(workers=1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_pool_preserves_input_order(self):
        assert ExperimentEngine(workers=2).map(_square, list(range(8))) == [
            x * x for x in range(8)
        ]

    def test_unpicklable_work_falls_back_to_serial(self):
        fallbacks = []
        engine = ExperimentEngine(workers=2, on_fallback=fallbacks.append)
        assert engine.map(lambda x: x + 1, [1, 2]) == [2, 3]
        assert fallbacks  # the caller was told why

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_raises(self, workers):
        engine = ExperimentEngine(
            workers=workers, max_attempts=1, retry_backoff_s=0.0
        )
        with pytest.raises(ExperimentError, match="item two is cursed"):
            engine.map(_raise_on_two, [1, 2, 3])

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ExperimentError):
            resolve_workers(-1)


class TestDeterministicMerge:
    def test_workers_do_not_change_results(self, tiny_scenario):
        scenarios = [replace(tiny_scenario, seed=s) for s in range(3)]
        serial = ExperimentEngine(workers=1).run_incasts(scenarios)
        pooled = ExperimentEngine(workers=4).run_incasts(scenarios)
        assert [r.ict_ps for r in serial] == [r.ict_ps for r in pooled]
        assert [r.counters for r in serial] == [r.counters for r in pooled]
        assert [r.flow_completion_ps for r in serial] == [
            r.flow_completion_ps for r in pooled
        ]

    def test_sweep_summaries_identical_across_worker_counts(self, tiny_scenario):
        spec = degree_sweep_spec(
            tiny_scenario, degrees=(2, 3), schemes=("baseline", "streamlined"),
            reps=2,
        )
        serial = run_grid(spec, engine=ExperimentEngine(workers=1))
        pooled = run_grid(spec, engine=ExperimentEngine(workers=4))
        assert sweep_digest(serial) == sweep_digest(pooled)

    def test_scheme_summary_matches_direct_runs(self, tiny_scenario):
        summary, results = run_scheme_summary(tiny_scenario, reps=2)
        direct = [run_incast(replace(tiny_scenario, seed=s)) for s in range(2)]
        assert [r.ict_ps for r in results] == [r.ict_ps for r in direct]
        assert summary.ict.mean == sum(r.ict_ps for r in direct) / 2


class TestResultCache:
    def test_second_run_is_served_from_cache(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        scenarios = [replace(tiny_scenario, seed=s) for s in range(2)]

        first_engine = ExperimentEngine(workers=1, cache=cache)
        first = first_engine.run_incasts(scenarios)
        assert first_engine.stats.cache_misses == 2
        assert first_engine.stats.cache_hits == 0
        assert all(not r.from_cache for r in first)

        second_engine = ExperimentEngine(workers=1, cache=cache)
        second = second_engine.run_incasts(scenarios)
        assert second_engine.stats.cache_hits == 2
        assert second_engine.stats.cache_misses == 0
        assert all(r.from_cache for r in second)
        assert [r.ict_ps for r in first] == [r.ict_ps for r in second]
        assert [r.counters for r in first] == [r.counters for r in second]

    def test_cached_and_uncached_sweeps_summarize_identically(
        self, tiny_scenario, tmp_path
    ):
        spec = degree_sweep_spec(
            tiny_scenario, degrees=(2,), schemes=("baseline",), reps=2
        )
        cache = ResultCache(tmp_path)
        cold = run_grid(spec, engine=ExperimentEngine(cache=cache))
        warm_engine = ExperimentEngine(cache=cache)
        warm = run_grid(spec, engine=warm_engine)
        uncached = run_grid(spec)
        assert warm_engine.stats.cache_hits == len(spec)
        assert sweep_digest(cold) == sweep_digest(warm) == sweep_digest(uncached)

    def test_changed_scenario_invalidates(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentEngine(workers=1, cache=cache).run_incasts([tiny_scenario])

        engine = ExperimentEngine(workers=1, cache=cache)
        engine.run_incasts([replace(tiny_scenario, seed=99)])
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 1

    def test_corrupt_entry_is_a_miss(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        key = scenario_key(tiny_scenario)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")

        engine = ExperimentEngine(workers=1, cache=cache)
        results = engine.run_incasts([tiny_scenario])
        assert engine.stats.cache_misses == 1
        assert results[0].completed

    def test_corrupt_entry_is_deleted_on_load_failure(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        key = scenario_key(tiny_scenario)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")

        assert cache.get(key) is None
        # the poisoned file is gone, so the next store/get cycle is clean
        assert not path.exists()
        result = run_incast(tiny_scenario)
        cache.put(key, result)
        assert cache.get(key) is not None

    def test_intact_entry_round_trips(self, cached_entry, tmp_path):
        key, result, blob = cached_entry
        cache = ResultCache(tmp_path)
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_bytes(blob)
        assert result_digest(cache.get(key)) == result_digest(result)

    def test_unframed_entry_is_a_miss(self, cached_entry, tmp_path):
        # What the cache wrote before entries carried their payload's sha256.
        key, result, _blob = cached_entry
        cache = ResultCache(tmp_path)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        assert cache.get(key) is None
        assert not path.exists()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_entry_is_a_miss_never_a_wrong_result(
        self, cached_entry, tmp_path_factory, data
    ):
        key, _result, blob = cached_entry
        if data.draw(st.booleans(), label="truncate"):
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
        else:
            flipped = bytearray(blob)
            flipped[data.draw(st.integers(0, len(blob) - 1), label="byte")] ^= (
                1 << data.draw(st.integers(0, 7), label="bit")
            )
            damaged = bytes(flipped)
        cache = ResultCache(tmp_path_factory.mktemp("damaged"))
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(damaged)
        # Never raises, never loads: a damaged entry is a miss, and deleted.
        assert cache.get(key) is None
        assert not path.exists()

    def test_uncacheable_scenarios_just_run(self, tiny_scenario, tmp_path):
        # Cache-bypassing options are the one way a run goes uncached.
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(
            workers=1, cache=cache, options=RunOptions(sanitize=True)
        )
        results = engine.run_incasts([tiny_scenario])
        assert results[0].completed
        assert cache.clear() == 0  # nothing was stored

    def test_overhead_cells_cache_through_the_pool(self, tiny_scenario, tmp_path):
        # Named overheads are plain data: the pool takes them (no serial
        # fallback) and a second pass is served from the cache entirely.
        scenarios = [
            replace(tiny_scenario, scheme="streamlined", proxy_overhead=overhead,
                    seed=seed)
            for overhead in (None, "ebpf", "userspace") for seed in (0, 1)
        ]
        cache = ResultCache(tmp_path)
        fallbacks: list[str] = []
        cold = ExperimentEngine(workers=2, cache=cache, on_fallback=fallbacks.append)
        first = cold.run_incasts(scenarios)
        warm = ExperimentEngine(workers=2, cache=cache, on_fallback=fallbacks.append)
        second = warm.run_incasts(scenarios)
        assert fallbacks == []
        assert cold.stats.cache_misses == len(scenarios)
        assert warm.stats.cache_hits == len(scenarios)
        assert warm.stats.cache_misses == 0
        assert all(r.from_cache for r in second)
        assert [result_digest(r) for r in second] == [result_digest(r) for r in first]

    def test_clear_removes_entries(self, tiny_scenario, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentEngine(workers=1, cache=cache).run_incasts([tiny_scenario])
        assert cache.clear() == 1
        assert cache.get(scenario_key(tiny_scenario)) is None


class TestEngineStats:
    def test_timing_is_threaded_through(self, tiny_scenario):
        engine = ExperimentEngine(workers=1)
        results = engine.run_incasts([tiny_scenario])
        assert results[0].wall_seconds > 0
        assert engine.stats.sim_wall_seconds >= results[0].wall_seconds
        assert engine.stats.wall_seconds > 0
        assert engine.stats.tasks == 1
        assert engine.stats.speedup > 0
