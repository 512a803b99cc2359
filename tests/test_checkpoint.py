"""Checkpoint/restore: file format, by-reference functions, kill/resume digests."""

import os
import struct
from functools import partial
from pathlib import Path

import pytest

from repro.competitors import install, uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.metrics.config import MODE_SKETCH, MetricsConfig
from repro.schemes import SCHEME_REGISTRY
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    _MAGIC,
    dumps,
    load_checkpoint,
    loads,
    save_checkpoint,
)
from repro.sim.simulator import Simulator
from repro.units import milliseconds, seconds
from repro.workloads.engine import (
    DiurnalCurve,
    OpenLoopEngine,
    WorkloadEngineConfig,
)
from repro.workloads.sizes import HeavyTailConfig
from tests.test_golden_digests import CONCURRENT, CONCURRENT_JOBS, concurrent_fingerprint


@pytest.fixture
def competitors():
    """Install the competitor schemes, and always tear them down again."""
    install()
    try:
        yield
    finally:
        uninstall()


class TestCheckpointFormat:
    def test_round_trips_plain_payloads(self, tmp_path):
        payload = {"counts": [1, 2, 3], "nested": {"pi": 3.14}}
        path = save_checkpoint(tmp_path / "plain.ckpt", payload)
        assert load_checkpoint(path) == payload

    def test_rejects_non_checkpoint_files(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_rejects_missing_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_rejects_schema_version_mismatch(self, tmp_path):
        path = save_checkpoint(tmp_path / "v.ckpt", [1, 2])
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), CHECKPOINT_SCHEMA_VERSION + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(path)

    def test_refuses_schema_1_files_whole(self, tmp_path):
        # Schema 2 onwards pickles the seq-free scheduler; a schema-1 file
        # holds the (time, seq, payload) layout and must be refused, never
        # half-restored.
        from repro.sim.simulator import Simulator

        assert CHECKPOINT_SCHEMA_VERSION >= 2
        sim = Simulator(seed=0)
        sim.schedule(5, sim.stop)
        path = save_checkpoint(tmp_path / "sim.ckpt", sim)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 1 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_schema_2_files_whole(self, tmp_path):
        # Schema 3 drops the scheduler's ``_batch`` slot.  A schema-2 file
        # pickles it, and unpickling that state into today's scheduler
        # raises AttributeError; the header check must refuse the file
        # first, as a CheckpointError naming the schema.
        from repro.sim.scheduler import EventScheduler
        from repro.sim.simulator import Simulator

        assert CHECKPOINT_SCHEMA_VERSION >= 3
        slots = ("_buckets", "_bucket_heap", "_cur", "_cur_g", "_idx",
                 "_shift", "tie_break")

        class Schema2Scheduler:
            """Pickles a live scheduler in the schema-2 slot layout."""

            def __init__(self, live):
                self.live = live

            def __reduce__(self):
                state = {slot: getattr(self.live, slot) for slot in slots}
                state["_batch"] = []
                return (object.__new__, (EventScheduler,), (None, state))

        sim = Simulator(seed=0)
        sim.schedule(5, sim.stop)
        sim.scheduler = Schema2Scheduler(sim.scheduler)
        with pytest.raises(AttributeError, match="_batch"):
            loads(dumps(sim))  # what an unguarded restore would do
        path = save_checkpoint(tmp_path / "sim.ckpt", sim)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 2 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )
        assert excinfo.value.__cause__ is None

    def test_refuses_schema_3_files_whole(self, tmp_path, monkeypatch):
        # Schema 4 replaces the simulator's ``tracer`` and ``sanitizer``
        # with one ``probe`` slot.  A schema-3 simulator pickles a
        # ``repro.sim.tracing.NullTracer``, a module that no longer exists;
        # the header check must refuse the file before unpickling reaches it.
        import sys
        import types

        from repro.sim.simulator import Simulator

        assert CHECKPOINT_SCHEMA_VERSION >= 4
        tracing = types.ModuleType("repro.sim.tracing")

        class NullTracer:
            enabled = False

        NullTracer.__module__ = tracing.__name__
        NullTracer.__qualname__ = "NullTracer"
        tracing.NullTracer = NullTracer
        monkeypatch.setitem(sys.modules, tracing.__name__, tracing)

        sim = Simulator(seed=0)
        sim.schedule(5, sim.stop)
        del sim.probe
        sim.tracer = NullTracer()
        sim.sanitizer = None
        body = dumps(sim)
        path = save_checkpoint(tmp_path / "sim.ckpt", sim)
        monkeypatch.delitem(sys.modules, tracing.__name__)
        with pytest.raises(ModuleNotFoundError, match="repro.sim.tracing"):
            loads(body)  # what an unguarded restore would do
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(_MAGIC), 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 3 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )
        assert excinfo.value.__cause__ is None

    def test_refuses_a_real_schema_4_file(self):
        # Written by the schema-4 code: a python tag after the version, and
        # a payload whose functions could travel as code objects.  Schema 5
        # reads the version first and refuses the file before it parses
        # anything after it.
        path = Path(__file__).parent / "fixtures" / "schema4_simulator.ckpt"
        assert path.read_bytes().startswith(_MAGIC + struct.pack("<I", 4))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 4 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_5_naive_file(self):
        # Written by the schema-5 code: the payload names the deleted
        # repro.proxy.naive.NaiveRelayedFlow.  The version is read first,
        # so the file is refused before unpickling could look the class up.
        path = Path(__file__).parent / "fixtures" / "schema5_naive_flow.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 5))
        assert b"NaiveRelayedFlow" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 5 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_6_file(self):
        # Written by the schema-6 code: a star transfer saved mid-flight.
        # Schema 7 changed the open-loop engine's pickled shape; the version
        # is read first, so every schema-6 file is refused before unpickling.
        path = Path(__file__).parent / "fixtures" / "schema6_star_transfer.ckpt"
        assert path.read_bytes().startswith(_MAGIC + struct.pack("<I", 6))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 6 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_7_file(self):
        # Written by the schema-7 code: a simulator whose payload names the
        # deleted repro.telemetry.instrumentation.NULL_INSTRUMENTATION.  The
        # version is read first, so the file is refused before unpickling
        # could look the module up.
        path = Path(__file__).parent / "fixtures" / "schema7_simulator.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 7))
        assert b"NULL_INSTRUMENTATION" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 7 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_8_trimless_file(self):
        # Written by the schema-8 code: an open-loop trimless engine saved
        # mid-burst, whose payload names the trimless proxy class of the
        # deleted repro.proxy.trimless.  The version is read first, so the
        # file is refused before unpickling could look the module up (or
        # restore a streamlined proxy with no ``detector`` attribute).
        path = Path(__file__).parent / "fixtures" / "schema8_trimless.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 8))
        assert b"repro.proxy.trimless" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 8 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_9_file(self):
        # Written by the schema-9 code: a simulator whose payload pickles
        # the deleted repro.net.pool.PacketPool.  The version is read first,
        # so the file is refused before unpickling could look the module up.
        path = Path(__file__).parent / "fixtures" / "schema9_simulator.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 9))
        assert b"repro.net.pool" in blob and b"PacketPool" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 9 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_10_file(self):
        # Written by the schema-10 code: a simulator and the small two-DC
        # config, whose payload pickles the deleted backbone_routers and
        # backbone_delay_ps fields.  Unpickled, it would be an InterDcConfig
        # with no segment_delays_ps; the version is read first, so the file
        # is refused before that could happen.
        path = Path(__file__).parent / "fixtures" / "schema10_interdc.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 10))
        assert b"backbone_delay_ps" in blob and b"backbone_routers" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 10 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_11_file(self):
        # Written by the schema-11 code: a two-host network whose port is
        # mid-serialization, so the payload pickles the deleted ``busy`` and
        # ``_serializing`` slots and a calendar entry for ``_tx_done``.
        # Unpickled, it would be a port no code path could finish; the
        # version is read first, so the file is refused before that.
        path = Path(__file__).parent / "fixtures" / "schema11_port.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 11))
        assert b"_serializing" in blob and b"_tx_done" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 11 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_12_file(self):
        # Written by the schema-12 code: a two-host network whose port is
        # mid-serialization with a packet queued behind it, so the payload
        # pickles the deleted ``QueueStats.dequeued`` slot and a port with
        # no ``_idle_pass``.  Unpickled, that port would fail its first
        # send; the version is read first, so the file is refused before.
        path = Path(__file__).parent / "fixtures" / "schema12_port.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 12))
        assert b"dequeued" in blob and b"_idle_pass" not in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 12 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_refuses_a_real_schema_13_file(self):
        # Written by the schema-13 code: an ECN, a trimming and a host queue,
        # each holding queued packets, so the payload names the deleted
        # ``TrimmingQueue`` and ``HostQueue`` classes and an ``EcnQueue``
        # with a ``_fifo`` and no switches.  Unpickled, the class lookup
        # would fail; the version is read first, so the file is refused.
        path = Path(__file__).parent / "fixtures" / "schema13_queues.ckpt"
        blob = path.read_bytes()
        assert blob.startswith(_MAGIC + struct.pack("<I", 13))
        assert b"TrimmingQueue" in blob and b"HostQueue" in blob and b"_fifo" in blob
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value) == (
            f"checkpoint schema 13 != supported {CHECKPOINT_SCHEMA_VERSION}"
        )

    def test_rejects_corrupt_body(self, tmp_path):
        path = save_checkpoint(tmp_path / "c.ckpt", {"k": "v"})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_write_is_atomic(self, tmp_path):
        path = save_checkpoint(tmp_path / "a.ckpt", "first")
        save_checkpoint(path, "second")
        assert load_checkpoint(path) == "second"
        assert not (tmp_path / "a.ckpt.tmp").exists()

    def test_every_header_truncation_is_a_checkpoint_error(self, tmp_path):
        blob = save_checkpoint(tmp_path / "whole.ckpt", {"k": "v"}).read_bytes()
        header_len = len(_MAGIC) + 4 + 32
        path = tmp_path / "cut.ckpt"
        for cut in range(header_len + 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError) as caught:
                load_checkpoint(path)
            if len(_MAGIC) <= cut < header_len:
                # Inside the version or the digest too: not "corrupt".
                assert "truncated" in str(caught.value), cut

    def test_unwritable_path_is_a_checkpoint_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file where a directory is needed")
        with pytest.raises(CheckpointError, match="cannot write") as caught:
            save_checkpoint(blocker / "x.ckpt", [1])
        assert isinstance(caught.value.__cause__, OSError)
        assert blocker.read_text().startswith("a regular file")

    def test_failed_write_leaves_no_litter_and_the_last_good_file(
        self, tmp_path, monkeypatch
    ):
        path = save_checkpoint(tmp_path / "a.ckpt", "first")

        def failing_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(CheckpointError, match="cannot write") as caught:
            save_checkpoint(path, "second")
        assert isinstance(caught.value.__cause__, OSError)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]
        assert load_checkpoint(path) == "first"


def _module_level_probe(x):
    return x + 1


def _bump(counter):
    counter[0] += 1
    return counter[0]


class TestClosureSerialization:
    """A checkpoint is plain pickle: functions travel by reference only."""

    def test_module_functions_pickle_by_reference(self):
        restored = loads(dumps(_module_level_probe))
        assert restored is _module_level_probe

    def test_shared_state_restores_as_one_object(self):
        # A container referenced both by a callback (a partial over a
        # module-level function) and directly in the graph must come back
        # as a single shared object.
        shared = [0]
        restored_bump, restored_shared = loads(dumps((partial(_bump, shared), shared)))
        restored_bump()
        assert restored_shared == [1]

    def test_unpicklable_payload_is_a_checkpoint_error(self, tmp_path):
        def local(x):
            return x

        with open(tmp_path / "handle", "wb") as handle:
            for payload in (handle, lambda x: x * 3, local, {"graph": [1, lambda: 0]}):
                with pytest.raises(CheckpointError, match="not serializable"):
                    save_checkpoint(tmp_path / "bad.ckpt", payload)
        assert not (tmp_path / "bad.ckpt").exists()


def _tiny_config(scheme, **overrides):
    """A seconds-scale open-loop run: enough tenants to matter, fast."""
    defaults = dict(
        scheme=scheme,
        horizon_ps=seconds(2),
        segment_ps=milliseconds(500),
        peak_arrivals_per_s=40.0,
        sizes=HeavyTailConfig(
            minimum_bytes=64_000, maximum_bytes=2_000_000, alpha=1.3
        ),
        diurnal=DiurnalCurve(period_ps=seconds(2), trough=0.5),
        metrics=MetricsConfig(mode=MODE_SKETCH),
        seed=3,
    )
    defaults.update(overrides)
    return WorkloadEngineConfig(**defaults)


def _advance_to(engine, until_ps):
    """Grid-aligned manual segments — the same boundaries run() would hit."""
    segment = engine.config.segment_ps
    horizon = engine.config.horizon_ps
    while engine.sim.now < until_ps:
        boundary = min(horizon, ((engine.sim.now // segment) + 1) * segment)
        engine.sim.run(until=boundary)
        engine.segments_done += 1
        engine.rss_track.append((engine.sim.now, 0))


#: Events before the mid-burst save: every scheme has packets in the fabric
#: there.
MID_BURST_EVENTS = 4999


def _in_flight(engine):
    """Packets the fabric holds: queued (started lazily or not) or on a wire."""
    return sum(
        len(port.queue) + len(port._wire)
        for node in engine.net.nodes.values()
        for port in node.ports.values()
    )


class TestMidBurstRestore:
    """A checkpoint at an arbitrary instant carries the packets in flight
    and resumes bit-identical (ROADMAP 4(d))."""

    def test_every_scheme_resumes_from_a_mid_burst_checkpoint(
        self, competitors, tmp_path
    ):
        for scheme in SCHEME_REGISTRY.names():
            uninterrupted = OpenLoopEngine(_tiny_config(scheme)).run()
            engine = OpenLoopEngine(_tiny_config(scheme))
            # A fixed, odd event budget: the save point is wherever it
            # lands, not an event boundary the engine chose.
            engine.sim.run(max_events=MID_BURST_EVENTS)
            live = _in_flight(engine)
            assert live, scheme  # mid-burst, or this tests nothing
            path = save_checkpoint(tmp_path / f"{scheme}.ckpt", engine)

            restored = load_checkpoint(path)
            assert restored.sim.events_executed == engine.sim.events_executed
            assert _in_flight(restored) == live, scheme
            assert restored.run().digest == uninterrupted.digest, scheme
            # Saving is not an event: the original, driven on, agrees.
            assert engine.run().digest == uninterrupted.digest, scheme

    def test_checkpoint_before_the_first_event_resumes_identically(self, tmp_path):
        # Straight after construction nothing has drawn and no packet
        # exists: every first draw of the run is a restored stream's first
        # draw.
        config = _tiny_config("streamlined")
        uninterrupted = OpenLoopEngine(config)
        reference = uninterrupted.run()

        path = save_checkpoint(tmp_path / "fresh.ckpt", OpenLoopEngine(config))
        restored = load_checkpoint(path)
        assert restored.sim.events_executed == 0
        assert _in_flight(restored) == 0
        assert restored.run().digest == reference.digest
        assert len(restored.sim.rng) == len(uninterrupted.sim.rng)


class TestKillRestoreDigests:
    """The durability contract: interrupt anywhere, resume, same digest."""

    def test_every_scheme_resumes_bit_identical(self, competitors, tmp_path):
        for scheme in SCHEME_REGISTRY.names():
            uninterrupted = OpenLoopEngine(_tiny_config(scheme)).run()

            engine = OpenLoopEngine(_tiny_config(scheme))
            _advance_to(engine, seconds(1))  # "SIGKILL" at half-horizon
            path = save_checkpoint(tmp_path / f"{scheme}.ckpt", engine)
            del engine
            restored = load_checkpoint(path)
            assert isinstance(restored, OpenLoopEngine)
            # The delay cache travels with the network it describes.
            assert restored.net._delays_from
            resumed = restored.run()

            assert resumed.digest == uninterrupted.digest, scheme
            assert resumed.jobs_completed == uninterrupted.jobs_completed

    @pytest.mark.parametrize("strategy", ["round-robin", "queue-depth"])
    def test_stateful_strategies_resume_bit_identical(self, strategy, tmp_path):
        # Their policies are objects the saved graph holds; plain pickle
        # carries them by reference to their module-level classes.
        config = _tiny_config("streamlined", strategy=strategy)
        uninterrupted = OpenLoopEngine(config).run()
        assert uninterrupted.jobs_proxied > 0

        engine = OpenLoopEngine(config)
        _advance_to(engine, seconds(1))
        assert engine.selector.selections > 0  # the policy ran before the save
        path = save_checkpoint(tmp_path / f"{strategy}.ckpt", engine)
        restored = load_checkpoint(path)
        assert type(restored.selector.policy) is type(engine.selector.policy)
        resumed = restored.run()
        assert resumed.digest == uninterrupted.digest
        assert resumed.jobs_proxied == uninterrupted.jobs_proxied

    def test_resume_with_predictor_is_bit_identical(self, tmp_path):
        config = _tiny_config("streamlined", pattern_predictor=True)
        uninterrupted = OpenLoopEngine(config).run()

        engine = OpenLoopEngine(config)
        _advance_to(engine, seconds(1))
        path = save_checkpoint(tmp_path / "pred.ckpt", engine)
        resumed = load_checkpoint(path).run()
        assert resumed.digest == uninterrupted.digest

    def test_checkpoint_is_a_snapshot_not_a_live_view(self, tmp_path):
        engine = OpenLoopEngine(_tiny_config("baseline"))
        _advance_to(engine, seconds(1))
        path = save_checkpoint(tmp_path / "snap.ckpt", engine)
        engine.run()  # drive the original to completion
        restored = load_checkpoint(path)
        assert restored.sim.now < engine.sim.now
        assert restored.run().digest == engine.result().digest

    def test_exact_metrics_mode_also_resumes(self, tmp_path):
        config = _tiny_config("naive", metrics=MetricsConfig())
        uninterrupted = OpenLoopEngine(config).run()
        engine = OpenLoopEngine(config)
        _advance_to(engine, seconds(1))
        path = save_checkpoint(tmp_path / "exact.ckpt", engine)
        resumed = load_checkpoint(path).run()
        assert resumed.digest == uninterrupted.digest

    def test_a_job_list_run_resumes_to_its_pinned_result(self, tmp_path):
        # The decentralized cell: its probes draw the selection stream, so
        # the stream's state must travel with the flows in flight.
        config = WorkloadEngineConfig(
            scheme="naive", strategy="decentralized",
            interdc=small_interdc_config(), transport=TransportConfig(payload_bytes=4096),
            horizon_ps=seconds(300), segment_ps=milliseconds(1),
            jobs=CONCURRENT_JOBS,
        )
        uninterrupted = OpenLoopEngine(config)
        uninterrupted.run()
        reference = uninterrupted.multi_incast_result()

        engine = OpenLoopEngine(config)
        _advance_to(engine, milliseconds(1))  # both incasts are ~2.8 ms long
        assert engine.fold.jobs_proxied == 2 and not engine.finished
        restored = load_checkpoint(save_checkpoint(tmp_path / "jobs.ckpt", engine))
        restored.run()
        resumed = restored.multi_incast_result()

        assert resumed.completed
        assert resumed.ict_ps == reference.ict_ps
        assert concurrent_fingerprint(resumed) == concurrent_fingerprint(reference) == (
            CONCURRENT[("naive", "decentralized")]
        )
