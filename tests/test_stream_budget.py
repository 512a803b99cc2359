"""RNG streams are seeded where they are drawn, not where queues are built.

A queue's ``queue:<port>`` stream is seeded at its first in-band draw, so
a cell seeds the streams its congested queues use and no others.  The
budgets below are measured counts: the streams seeded at build (one
``spray:`` per switch, the open-loop engine's ``engine:`` and
``orchestration:select`` ones) plus the few queues that ever sit inside
their ECN band.  Seeding every queue at
build read 864 streams per ``incast-d8`` cell and 80 for the open-loop
engine.
"""

import random
from dataclasses import replace

import pytest

import repro.experiments.runner as runner
from repro.competitors import install, uninstall
from repro.config import TransportConfig, paper_interdc_config
from repro.experiments.runner import IncastScenario, run_incast
from repro.net.buffers import SharedBuffer, SharedEcnQueue
from repro.net.packet import make_ack, make_data
from repro.net.queues import EcnQueue, TrimmingQueue
from repro.schemes import SCHEME_REGISTRY
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.rng import derive_stream
from repro.sim.simulator import Simulator
from repro.units import megabytes, seconds
from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig
from tests.test_checkpoint import _advance_to, _tiny_config

#: Most streams any registered scheme seeds in a degree-8 cell on the
#: paper fabric (8 MB, seed 0; the schemes read 98-105).  The ledger's
#: 40 MB ``incast-d8`` cells read 98-105.
D8_STREAM_BUDGET = 105

#: Streams the ledger's ``openloop`` engine config seeds over its 12 s.
OPENLOOP_STREAMS = 30


def _ports(net):
    return [port for node in net.nodes.values() for port in node.ports.values()]


@pytest.fixture
def competitors():
    install()
    try:
        yield
    finally:
        uninstall()


class TestStreamBudget:
    def test_every_scheme_seeds_few_streams_in_a_degree_8_cell(
        self, competitors, monkeypatch
    ):
        made = []

        class RecordingSimulator(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(runner, "Simulator", RecordingSimulator)
        base = IncastScenario(
            degree=8,
            total_bytes=megabytes(8),
            interdc=paper_interdc_config(),
            transport=TransportConfig(payload_bytes=8192),
            seed=0,
        )
        seeded = {}
        for name in SCHEME_REGISTRY.names():
            assert run_incast(replace(base, scheme=name)).completed, name
            seeded[name] = len(made.pop().rng)
        assert len(seeded) == 8
        assert max(seeded.values()) <= D8_STREAM_BUDGET, seeded

    def test_the_ledger_openloop_config_seeds_its_measured_count(self):
        engine = OpenLoopEngine(WorkloadEngineConfig(
            scheme="streamlined", horizon_ps=seconds(12), segment_ps=seconds(0.5),
        ))
        engine.run()
        assert len(engine.sim.rng) == OPENLOOP_STREAMS


class TestLateFirstDraw:
    def test_a_queue_first_drawn_after_a_restore_draws_its_named_stream(
        self, tmp_path
    ):
        config = _tiny_config("streamlined")
        uninterrupted = OpenLoopEngine(config)
        reference = uninterrupted.run()

        engine = OpenLoopEngine(config)
        _advance_to(engine, seconds(1))
        restored = load_checkpoint(save_checkpoint(tmp_path / "half.ckpt", engine))
        unseeded = {
            port.name for port in _ports(restored.net)
            if getattr(port.queue, "_rng", False) is None
        }
        assert restored.run().digest == reference.digest

        late = [port for port in _ports(restored.net)
                if port.name in unseeded and port.queue._rng is not None]
        assert [port.name for port in late] == ["dc0-leaf1->dc0-spine0"]
        (port,) = late
        name = f"queue:{port.name}"
        assert port.queue._rng is restored.sim.rng.stream(name)
        # The draws it made after the restore are the named substream's
        # first draws, and the same as in the run never interrupted.
        expected = derive_stream(config.seed, name)
        draws = 0
        while expected.getstate() != port.queue._rng.getstate():
            expected.random()
            draws += 1
            assert draws < 100_000
        assert draws > 0
        twin = next(p for p in _ports(uninterrupted.net) if p.name == port.name)
        assert twin.queue._rng.getstate() == port.queue._rng.getstate()


class CountingSource:
    """A stream source that counts how often it is asked."""

    def __init__(self):
        self.calls = 0
        self.stream = random.Random(0)

    def __call__(self):
        self.calls += 1
        return self.stream


def data(payload, seq=0):
    return make_data(1, seq, 1, 2, payload_bytes=payload)


def ack():
    return make_ack(1, 2, 1, ack_seq=0, echo_seq=0, ecn_echo=False, ts_echo=1)


def ecn_queue(source):
    return EcnQueue(100_000, 2_000, 5_000, source)


def trimming_queue(source):
    return TrimmingQueue(100_000, 2_000, 5_000, source)


def shared_queue(source):
    return SharedEcnQueue(SharedBuffer(100_000), 1.0, 2_000, 5_000, source)


@pytest.mark.parametrize("build", [ecn_queue, trimming_queue, shared_queue])
class TestSourceCalledOnce:
    def test_never_called_while_the_queue_stays_out_of_band(self, build):
        source = CountingSource()
        q = build(source)
        for seq in range(50):  # below the band: one packet at a time
            q.offer(data(1_500, seq))
            q.pop()
        q.offer(data(6_000))  # offered empty, leaves the queue above it
        for seq in range(10):  # above the band: marked without a draw
            q.offer(data(100, seq))
        q.offer(ack())  # control packets are never marked
        assert q.stats.marked == 10
        assert source.calls == 0

    def test_called_once_at_the_first_in_band_draw(self, build):
        source = CountingSource()
        q = build(source)
        q.offer(data(2_500))
        assert source.calls == 0
        for seq in range(10):  # occupancy 2 564 to 4 040 B: inside the band
            q.offer(data(100, seq))
            assert source.calls == 1
        assert q._rng is source.stream
