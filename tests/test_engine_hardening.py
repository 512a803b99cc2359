"""Crash-proof experiment engine: deadlines, retries, quarantine."""

import os
import signal
import time
from dataclasses import replace

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.grid import run_grid
from repro.experiments.parallel import (
    ExperimentEngine,
    ResultCache,
    RunFailure,
    guarded_fanout,
)
from repro.experiments.runner import IncastResult, IncastScenario
from repro.experiments.service import QueueEngine
from repro.experiments.sweeps import sweep_digest
from repro.faults import CrashRun, FaultPlan, StallRun, proxy_crash_plan
from repro.units import kilobytes, microseconds, seconds

HAS_SIGALRM = hasattr(signal, "SIGALRM")


def _tiny(**overrides) -> IncastScenario:
    defaults = dict(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
        horizon_ps=seconds(2),
    )
    defaults.update(overrides)
    return IncastScenario(**defaults)


# Top-level (picklable) work functions for the pool tests.
def _square(x: int) -> int:
    return x * x


def _raise_always(x: int) -> int:
    raise ValueError(f"deliberate failure for item {x}")


def _stall(x: int) -> int:
    time.sleep(60.0)
    return x


def _raise_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("item two is cursed")
    return x * x


def _die_on_three(x: int) -> int:
    if x == 3:
        os._exit(13)  # hard crash: no exception, no cleanup
    return x * x


def _pool_usable() -> bool:
    """Probe: can this platform actually start a worker process?

    Called from inside tests, never at import time — forking while pytest
    is still collecting modules can deadlock the collector.
    """
    try:
        from repro.experiments.parallel import _pool

        with _pool(1) as pool:
            return pool.submit(_square, 2).result() == 4
    except Exception:  # noqa: BLE001 - any failure means "no pool here"
        return False


def _collect_fanout(fn, items, **kwargs):
    """Positional collect of :func:`guarded_fanout` (every index once)."""
    pairs = list(guarded_fanout(fn, items, **kwargs))
    assert sorted(index for index, _ in pairs) == list(range(len(items)))
    return [outcome for _, outcome in sorted(pairs, key=lambda pair: pair[0])]


class TestRunParallelGuarded:
    def test_all_ok_matches_plain_map(self):
        out = _collect_fanout(_square, [3, 1, 2], workers=1)
        assert [s for s, *_ in out] == ["ok"] * 3
        assert [payload for _, payload, *_ in out] == [9, 1, 4]

    def test_exception_is_retried_then_quarantined(self):
        out = _collect_fanout(
            _raise_always, [7], workers=1, max_attempts=3, backoff_s=0.001
        )
        status, message, attempts, elapsed = out[0]
        assert status == "exception"
        assert "deliberate failure for item 7" in message
        assert attempts == 3
        assert elapsed >= 0.0

    def test_one_bad_item_does_not_sink_the_batch(self):
        out = _collect_fanout(
            _raise_on_two, [1, 2, 3], workers=1, max_attempts=1
        )
        assert [s for s, *_ in out] == ["ok", "exception", "ok"]
        assert out[0][1] == 1 and out[2][1] == 9

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM deadlines")
    def test_timeout_quarantined_without_retry(self):
        out = _collect_fanout(
            _stall, [1], workers=1, timeout_s=0.2, max_attempts=3
        )
        status, message, attempts, _ = out[0]
        assert status == "timeout"
        assert "deadline" in message
        assert attempts == 1  # timeouts are never retried

    def test_worker_crash_spares_the_other_items(self):
        if not _pool_usable():
            pytest.skip("no process pool available")
        out = _collect_fanout(_die_on_three, [0, 1, 2, 3, 4, 5], workers=2)
        assert len(out) == 6
        statuses = [s for s, *_ in out]
        assert statuses.count("ok") >= 4  # everyone but the crasher (+ cohort)
        assert out[3][0] == "worker-crash"
        for i in (0, 1, 2, 4, 5):
            if out[i][0] == "ok":
                assert out[i][1] == i * i


class TestEngineValidation:
    def test_rejects_bad_guard_parameters(self):
        with pytest.raises(ExperimentError):
            ExperimentEngine(run_timeout_s=0)
        with pytest.raises(ExperimentError):
            ExperimentEngine(max_attempts=0)
        with pytest.raises(ExperimentError):
            ExperimentEngine(retry_backoff_s=-1.0)


class TestEngineQuarantine:
    def _crash_scenario(self, **overrides):
        plan = FaultPlan((CrashRun(at_ps=0, message="test: deliberate failure"),))
        return _tiny(faults=plan, **overrides)

    def test_raising_run_becomes_positional_failure(self):
        engine = ExperimentEngine(max_attempts=2, retry_backoff_s=0.001)
        batch = [_tiny(seed=1), self._crash_scenario(seed=2), _tiny(seed=3)]
        out = engine.run_incasts_detailed(batch)
        assert isinstance(out[0], IncastResult)
        assert isinstance(out[2], IncastResult)
        failure = out[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.attempts == 2
        assert "deliberate failure" in failure.message
        assert engine.stats.failures == 1
        assert engine.stats.retries == 1

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM deadlines")
    def test_stalling_run_hits_the_deadline(self):
        engine = ExperimentEngine(run_timeout_s=0.2, max_attempts=2)
        stall = _tiny(seed=4, faults=FaultPlan(
            (StallRun(at_ps=0, wall_seconds=60.0),)
        ))
        out = engine.run_incasts_detailed([_tiny(seed=5), stall])
        assert isinstance(out[0], IncastResult)
        assert isinstance(out[1], RunFailure)
        assert out[1].kind == "timeout"
        assert out[1].attempts == 1

    def test_run_incasts_raises_on_failure(self):
        engine = ExperimentEngine(max_attempts=1)
        with pytest.raises(ExperimentError, match="deliberate failure"):
            engine.run_incasts([self._crash_scenario(seed=6)])

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache, max_attempts=1)
        scenario = self._crash_scenario(seed=7)
        first = engine.run_incasts_detailed([scenario])
        assert isinstance(first[0], RunFailure)
        again = engine.run_incasts_detailed([scenario])
        assert isinstance(again[0], RunFailure)
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_misses == 2

    def test_successes_alongside_failures_are_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = ExperimentEngine(cache=cache, max_attempts=1)
        batch = [_tiny(seed=8), self._crash_scenario(seed=9)]
        engine.run_incasts_detailed(batch)
        rerun = engine.run_incasts_detailed(batch)
        assert isinstance(rerun[0], IncastResult)
        assert rerun[0].from_cache
        assert engine.stats.cache_hits == 1


class TestStream:
    """``engine.stream``: the one completion path, on both backends."""

    def _engine(self, backend, tmp_path):
        if backend == "queue":
            return QueueEngine(
                workers=2, cache=ResultCache(tmp_path / backend),
                max_attempts=1,
            )
        return ExperimentEngine(workers=2, max_attempts=1)

    @pytest.mark.parametrize("backend", ["pool", "queue"])
    def test_every_index_once_with_failures_in_their_slot(
        self, backend, tmp_path
    ):
        crash = FaultPlan((CrashRun(at_ps=0, message="test: deliberate failure"),))
        batch = [_tiny(seed=1), _tiny(seed=2, faults=crash), _tiny(seed=3),
                 _tiny(seed=4)]
        engine = self._engine(backend, tmp_path)
        pairs = list(engine.stream(batch))
        assert sorted(index for index, _ in pairs) == [0, 1, 2, 3]
        streamed = dict(pairs)
        failure = streamed[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.scenario == batch[1]
        assert "deliberate failure" in failure.message
        assert all(isinstance(streamed[i], IncastResult) for i in (0, 2, 3))
        assert engine.stats.tasks == 4
        assert engine.stats.failures == 1
        assert engine.stats.cache_misses == 4

        # run_incasts_detailed is nothing but the positional collect.
        detailed = self._engine(backend, tmp_path).run_incasts_detailed(batch)
        assert [type(entry) for entry in detailed] == [
            type(streamed[i]) for i in range(4)
        ]
        for i in (0, 2, 3):
            assert detailed[i].scenario == batch[i]
            assert detailed[i].ict_ps == streamed[i].ict_ps
            assert detailed[i].counters == streamed[i].counters

    def test_empty_batch_streams_nothing(self):
        engine = ExperimentEngine()
        assert list(engine.stream([])) == []
        assert engine.run_incasts_detailed([]) == []


class TestFaultSweepDigest:
    def test_digest_identical_across_worker_counts(self):
        from repro.experiments.faultsweep import proxy_crash_sweep_spec

        spec = proxy_crash_sweep_spec(
            crash_times_ps=(microseconds(10),),
            schemes=("baseline", "streamlined", "proxy-failover"),
            reps=1,
        )
        serial = run_grid(spec, engine=ExperimentEngine(workers=1))
        pooled = run_grid(spec, engine=ExperimentEngine(workers=2))
        assert sweep_digest(serial) == sweep_digest(pooled)

    def test_failures_change_the_digest(self):
        from repro.experiments.faultsweep import fault_plan_spec

        healthy = run_grid(
            fault_plan_spec(FaultPlan(), schemes=("baseline",), reps=1)
        )
        crashing = run_grid(
            fault_plan_spec(
                FaultPlan((CrashRun(at_ps=0, message="boom"),)),
                schemes=("baseline",), reps=1,
            ),
            engine=ExperimentEngine(workers=1, max_attempts=1),
        )
        assert crashing[0].schemes["baseline"].failures == 1
        assert sweep_digest(healthy) != sweep_digest(crashing)
