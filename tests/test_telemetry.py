"""Telemetry subsystem: recorder, snapshot, digest equality, sweep export."""

import json
from dataclasses import replace

import pytest

from repro.competitors import install, uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastScenario, run_incast
from repro.telemetry import (
    RunOptions,
    SweepTelemetry,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryRecorder,
    TelemetrySnapshot,
    validate_sweep_telemetry,
)
from repro.schemes import SCHEME_REGISTRY
from repro.units import kilobytes, megabytes, microseconds

#: Result fields that must be bit-identical with telemetry on vs off.
#: ``events_executed`` and ``wall_seconds`` legitimately differ (sampler
#: ticks are events; wall time is wall time) and are excluded from the
#: sweep digest for the same reason.
_DIGEST_FIELDS = (
    "ict_ps", "flow_completion_ps", "completed", "counters",
    "retransmissions", "timeouts", "nacks_received", "marked_acks",
    "proxy_nacks_sent", "failed_flows", "fault_events_applied",
    "fault_events_skipped", "failovers",
)


def _scenario(scheme="baseline", **overrides):
    base = IncastScenario(
        scheme=scheme,
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    return replace(base, **overrides) if overrides else base


class TestRecorderSnapshot:
    def test_plain_run_attaches_no_snapshot(self):
        result = run_incast(_scenario())
        assert result.telemetry is None

    def test_snapshot_series_and_profile(self):
        result = run_incast(_scenario("streamlined"),
                            options=RunOptions(telemetry=True))
        snap = result.telemetry
        assert isinstance(snap, TelemetrySnapshot)
        # Aggregate series are always present and actually sampled.
        for name in ("scheduler.pending", "net.queue_bytes", "net.ecn_marked",
                     "net.trims", "net.drops", "senders.nacks", "senders.retx"):
            series = snap.get(name)
            assert series is not None, name
            assert len(series) > 1
        # Per-entity probes: one cwnd/inflight pair per sender.
        cwnds = [n for n in snap.series if n.startswith("sender.") and n.endswith(".cwnd")]
        assert len(cwnds) == 2
        assert any(n.startswith("proxy.") for n in snap.series)
        assert any(n.startswith("port.") for n in snap.series)
        # The profiler saw the run.
        profile = snap.profile
        assert profile.events_executed > 0
        assert set(profile.phase_seconds) == {"build", "run", "collect"}
        assert profile.handler_seconds
        assert sum(profile.handler_events.values()) == profile.events_executed
        assert profile.hottest_handlers(2)
        # Counters describe registration coverage.
        assert snap.counters["senders_registered"] == 2
        assert snap.counters["series_recorded"] == len(snap.series)
        assert snap.counters["series_dropped"] == 0
        # The snapshot round-trips to JSON.
        encoded = json.dumps(snap.as_dict())
        assert "net.queue_bytes" in encoded

    def test_queue_series_sees_traffic(self):
        result = run_incast(_scenario("baseline"),
                            options=RunOptions(telemetry=True))
        queue = result.telemetry.get("net.queue_bytes")
        assert queue.peak() > 0

    def test_sample_interval_is_honored(self):
        opts = RunOptions(telemetry=True, sample_interval_ps=microseconds(100))
        result = run_incast(_scenario(), options=opts)
        snap = result.telemetry
        assert snap.sample_interval_ps == microseconds(100)
        times = snap.get("net.queue_bytes").times
        assert all(b - a == microseconds(100) for a, b in zip(times, times[1:]))


class TestBoundedMemory:
    def test_max_samples_caps_every_series(self):
        opts = RunOptions(telemetry=True, sample_interval_ps=microseconds(1),
                          max_samples=16)
        result = run_incast(_scenario(), options=opts)
        for series in result.telemetry.series.values():
            assert len(series) <= 16

    def test_max_series_drops_surplus_probes_counted(self):
        recorder = TelemetryRecorder(max_series=8)
        scenario = _scenario("streamlined")
        result = run_incast(scenario, options=RunOptions(probe=recorder))
        snap = result.telemetry
        assert len(snap.series) == 8
        assert snap.counters["series_dropped"] > 0
        assert recorder.series_dropped == snap.counters["series_dropped"]
        # Aggregates registered first survive the squeeze.
        assert snap.get("scheduler.pending") is not None
        assert snap.get("net.queue_bytes") is not None

    def test_recorder_validates_construction(self):
        with pytest.raises(ConfigError):
            TelemetryRecorder(sample_interval_ps=0)
        with pytest.raises(ConfigError):
            TelemetryRecorder(max_samples=0)
        with pytest.raises(ConfigError):
            TelemetryRecorder(max_series=0)


class TestDigestEquality:
    @pytest.mark.parametrize(
        "scheme", ["baseline", "naive", "streamlined", "trimless", "proxy-failover"]
    )
    def test_results_identical_with_telemetry_on_and_off(self, scheme):
        scenario = _scenario(scheme)
        off = run_incast(scenario)
        on = run_incast(scenario, options=RunOptions(telemetry=True))
        for name in _DIGEST_FIELDS:
            assert getattr(off, name) == getattr(on, name), name
        assert off.telemetry is None and on.telemetry is not None


class TestSamplingDoesNotPerturb:
    """A sampler reads every port's backlog between catch-ups: it must read
    the virtual backlog, not start queued packets itself (which would
    schedule their arrivals at a different FIFO position)."""

    def test_sampled_run_equals_the_unsampled_run_on_every_scheme(self):
        # 700 ns is just over one 4 KB serialization: samples land between
        # a queued packet's start tick and the catch-up that pops it.  The
        # golden-digest cell (degree 6, 8 MB) congests enough that a
        # sampler which popped would move flow completions.
        sampled = RunOptions(telemetry=True, sample_interval_ps=700_000)
        install()
        try:
            schemes = SCHEME_REGISTRY.names()
            for scheme in schemes:
                scenario = _scenario(scheme, degree=6, total_bytes=megabytes(8))
                off = run_incast(scenario)
                on = run_incast(scenario, options=sampled)
                assert on.telemetry is not None
                for result in (off, on):
                    assert result.completed, scheme
                # Field by field: result_digest also hashes events_executed,
                # which the sampler's own ticks move.
                for name in ("ict_ps", "flow_completion_ps", "retransmissions",
                             "timeouts"):
                    assert getattr(off, name) == getattr(on, name), (scheme, name)
                for name in ("packets_marked", "packets_trimmed",
                             "packets_dropped", "tx_packets", "tx_bytes"):
                    assert (getattr(off.counters, name)
                            == getattr(on.counters, name)), (scheme, name)
        finally:
            uninstall()
        assert len(schemes) == 8


class TestSweepTelemetry:
    def _stats(self):
        engine = ExperimentEngine(workers=1)
        return engine.stats

    def test_engine_records_and_document_validates(self, tmp_path):
        lines = []
        tel = SweepTelemetry(print_fn=lines.append)
        engine = ExperimentEngine(workers=1, telemetry=tel)
        scenarios = [_scenario("baseline"), _scenario("streamlined")]
        engine.run_incasts(scenarios)
        assert [r.status for r in tel.runs] == ["ok", "ok"]
        assert tel.runs[0].scheme == "baseline"
        assert any("runs complete" in line for line in lines)

        doc = tel.document(engine.stats)
        assert doc["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert validate_sweep_telemetry(doc) == []
        assert doc["engine"]["tasks"] == 2
        assert 0.0 <= doc["engine"]["worker_utilization"]

        json_path, csv_path = tel.write(tmp_path, engine.stats)
        reread = json.loads(json_path.read_text())
        assert validate_sweep_telemetry(reread) == []
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "index,scheme,seed,status,attempts,elapsed_seconds"
        assert len(rows) == 3

    def test_cache_hits_are_recorded_as_cached(self, tmp_path):
        from repro.experiments.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        scenario = _scenario()
        ExperimentEngine(workers=1, cache=cache).run_incasts([scenario])
        tel = SweepTelemetry(print_fn=lambda line: None)
        engine = ExperimentEngine(workers=1, cache=cache, telemetry=tel)
        engine.run_incasts([scenario])
        assert [r.status for r in tel.runs] == ["cached"]

    def test_validator_flags_tampering(self):
        tel = SweepTelemetry(print_fn=lambda line: None)
        doc = tel.document(self._stats())
        assert validate_sweep_telemetry(doc) == []

        assert validate_sweep_telemetry("nope")
        missing = dict(doc)
        del missing["engine"]
        assert any("engine" in p for p in validate_sweep_telemetry(missing))
        wrong_version = dict(doc, schema_version=99)
        assert any("schema_version" in p
                   for p in validate_sweep_telemetry(wrong_version))
        bad_engine = dict(doc, engine=dict(doc["engine"], workers="many"))
        assert any("workers" in p for p in validate_sweep_telemetry(bad_engine))
        bad_run = dict(doc, runs=[{"index": 0}])
        assert validate_sweep_telemetry(bad_run)
        bad_status = dict(doc, runs=[{
            "index": 0, "scheme": "baseline", "seed": 0, "status": "melted",
            "attempts": 1, "elapsed_seconds": 0.1,
        }])
        assert any("melted" in p for p in validate_sweep_telemetry(bad_status))

    def test_heartbeat_every_validation(self):
        with pytest.raises(ValueError):
            SweepTelemetry(heartbeat_every=0)
