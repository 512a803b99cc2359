"""PacketPool recycling, safety rails, pickling, and simulator integration."""

import pickle

import pytest

from repro.errors import SanitizerError
from repro.net.packet import HEADER_BYTES, PacketType, make_data
from repro.net.pool import PacketPool


class TestRecycling:
    def test_first_acquisition_allocates(self):
        pool = PacketPool()
        packet = pool.data(1, 0, 10, 20, 1000)
        assert pool.stats() == {"allocated": 1, "reused": 0, "released": 0,
                                "free": 0}
        assert packet.kind == PacketType.DATA
        assert packet.size_bytes == 1000 + HEADER_BYTES

    def test_release_then_acquire_reuses_the_same_object(self):
        pool = PacketPool()
        first = pool.data(1, 0, 10, 20, 1000)
        first_id = id(first)  # repro: allow[id-key] test-local identity probe
        first.release()
        assert len(pool) == 1
        again = pool.data(2, 7, 30, 40, 500)
        assert id(again) == first_id  # repro: allow[id-key]
        assert pool.stats() == {"allocated": 1, "reused": 1, "released": 1,
                                "free": 0}

    def test_reuse_reinitializes_every_field(self):
        pool = PacketPool()
        data = pool.data(1, 5, 10, 20, 1000, stops=(3,), ts=99, retx=2)
        data.trimmed = True
        data.ecn_ce = True
        data.release()
        ack = pool.ack(2, 20, 10, ack_seq=8, echo_seq=5, ecn_echo=True,
                       ts_echo=99)
        assert ack.kind == PacketType.ACK
        assert ack.is_control
        assert not ack.trimmed and not ack.ecn_ce
        assert ack.ack_seq == 8 and ack.echo_seq == 5 and ack.ecn_echo
        assert ack.stops == () and ack.retx == 0
        assert ack.size_bytes == HEADER_BYTES
        ack.release()
        nack = pool.nack(3, 11, 10, 20, ts_echo=42)
        assert nack.kind == PacketType.NACK
        assert nack.seq == 11 and nack.echo_seq == 11 and nack.ts_echo == 42
        assert not nack.ecn_echo and nack.ack_seq == -1

    def test_pool_constructors_match_make_helpers(self):
        pool = PacketPool()
        pooled = pool.data(1, 3, 10, 20, 4096, stops=(5,), ts=7, retx=1)
        built = make_data(1, 3, 10, 20, stops=(5,), payload_bytes=4096,
                          ts=7, retx=1)
        for name in ("flow_id", "kind", "seq", "src", "dst", "stops",
                     "payload_bytes", "size_bytes", "ts", "retx",
                     "is_control"):
            assert getattr(pooled, name) == getattr(built, name), name


class TestSafetyRails:
    def test_double_release_raises(self):
        pool = PacketPool()
        packet = pool.data(1, 0, 10, 20, 1000)
        packet.release()
        with pytest.raises(SanitizerError, match="released twice"):
            packet.release()

    def test_unpooled_packet_release_is_a_noop(self):
        packet = make_data(1, 0, 10, 20, payload_bytes=1000)
        packet.release()
        packet.release()  # still a no-op: no pool, no double-free flag

    def test_sanitize_catches_reference_kept_past_release(self):
        pool = PacketPool(sanitize=True)
        leaked = pool.data(1, 0, 10, 20, 1000)
        leaked.release()
        # `leaked` is still referenced by this frame when the pool tries to
        # hand the object out again — exactly the use-after-release bug the
        # acquire-time check exists for.
        with pytest.raises(SanitizerError, match="still referenced"):
            pool.data(2, 0, 10, 20, 1000)
        assert leaked.flow_id == 1  # untouched: the reuse was refused

    def test_sanitize_accepts_a_clean_recycle(self):
        pool = PacketPool(sanitize=True)
        pool.data(1, 0, 10, 20, 1000).release()
        packet = pool.data(2, 0, 10, 20, 1000)
        assert packet.flow_id == 2
        assert pool.reused == 1


class TestProvenance:
    def test_sanitizing_pool_stamps_acquire_sites(self):
        pool = PacketPool(sanitize=True)
        packet = pool.data(1, 0, 10, 20, 1000)
        assert packet._acquired_at is not None
        assert packet._acquired_at.startswith("test_pool.py:")
        assert packet._released_at is None

    def test_plain_pool_skips_the_stamp(self):
        # Provenance is a sanitize-only cost: the hot path stays frame-free.
        pool = PacketPool()
        packet = pool.data(1, 0, 10, 20, 1000)
        assert packet._acquired_at is None
        packet.release()
        assert packet._released_at is None

    def test_double_release_names_both_sites(self):
        pool = PacketPool(sanitize=True)
        packet = pool.data(1, 0, 10, 20, 1000)
        packet.release()
        with pytest.raises(SanitizerError) as exc:
            packet.release()
        message = str(exc.value)
        assert "acquired at test_pool.py:" in message
        assert "released at test_pool.py:" in message
        assert "second release at test_pool.py:" in message

    def test_refcount_diagnostic_names_the_acquire_site(self):
        pool = PacketPool(sanitize=True)
        leaked = pool.data(1, 0, 10, 20, 1000)
        leaked.release()
        with pytest.raises(SanitizerError) as exc:
            pool.data(2, 0, 10, 20, 1000)
        assert "acquired at test_pool.py:" in str(exc.value)

    def test_reacquire_clears_stale_release_site(self):
        pool = PacketPool(sanitize=True)
        first = pool.data(1, 0, 10, 20, 1000)
        first.release()
        del first  # drop the frame's reference so the recycle is clean
        again = pool.data(2, 0, 10, 20, 1000)
        assert again._released_at is None
        assert again._acquired_at is not None


class TestPickling:
    """A checkpoint carries the pool's counters, not its carcasses."""

    def test_pickled_pool_keeps_counters_and_drops_the_free_list(self):
        pool = PacketPool(sanitize=True)
        in_flight = pool.data(1, 0, 10, 20, 1000)
        pool.data(1, 1, 10, 20, 1000).release()
        before = pool.stats()
        assert before["free"] == 1

        restored_pool, restored_packet = pickle.loads(
            pickle.dumps((pool, in_flight))
        )
        assert pool.stats() == before  # saving does not drain the original
        assert restored_pool.stats() == {**before, "free": 0}
        assert restored_pool.sanitize
        assert restored_packet._pool is restored_pool
        assert restored_packet._acquired_at == in_flight._acquired_at

    def test_restored_pool_refills_from_restored_packets(self):
        pool = PacketPool()
        in_flight = pool.data(1, 0, 10, 20, 1000)
        restored_pool, packet = pickle.loads(pickle.dumps((pool, in_flight)))
        packet.release()
        assert len(restored_pool) == 1
        with pytest.raises(SanitizerError, match="released twice"):
            packet.release()
        assert restored_pool.ack(
            2, 20, 10, ack_seq=1, echo_seq=0, ecn_echo=False, ts_echo=1
        ) is packet
        assert restored_pool.stats() == {"allocated": 1, "reused": 1,
                                         "released": 1, "free": 0}


class TestFaultPlanDiagnostics:
    """The pool rails stay quiet across drop-heavy fault plans.

    Faults exercise the ownership contract's hardest paths — ports
    releasing packets they drop on a downed link, a crashed proxy
    releasing the batch it absorbed — so a sanitized run under a fault
    plan is the strongest end-to-end check that every component releases
    exactly once.
    """

    @staticmethod
    def _scenario(scheme, faults):
        from repro.config import TransportConfig, small_interdc_config
        from repro.experiments.runner import IncastScenario
        from repro.units import kilobytes, seconds

        return IncastScenario(
            scheme=scheme, degree=4, total_bytes=kilobytes(400),
            interdc=small_interdc_config(),
            transport=TransportConfig(max_consecutive_timeouts=8),
            horizon_ps=seconds(2), faults=faults,
        )

    def test_sanitized_run_survives_link_down_mid_delivery(self):
        from repro.experiments.runner import run_incast
        from repro.faults.plan import FaultPlan, LinkDown, LinkUp
        from repro.telemetry.options import RunOptions
        from repro.units import microseconds

        plan = FaultPlan((
            LinkDown(at_ps=microseconds(20)),
            LinkUp(at_ps=microseconds(220)),
        ))
        result = run_incast(
            self._scenario("streamlined", plan), RunOptions(sanitize=True)
        )
        # Packets in flight when the link dropped were released by the
        # port, not leaked: conservation closed and no rail tripped.
        assert result.counters.packets_lost_to_failures > 0
        assert result.conservation is not None

    def test_sanitized_run_survives_proxy_crash_holding_a_batch(self):
        from repro.experiments.runner import run_incast
        from repro.faults.plan import FaultPlan, ProxyCrash, ProxyRestart
        from repro.telemetry.options import RunOptions
        from repro.units import microseconds

        plan = FaultPlan((
            ProxyCrash(at_ps=microseconds(30), proxy="primary"),
            ProxyRestart(at_ps=microseconds(230), proxy="primary"),
        ))
        result = run_incast(
            self._scenario("streamlined", plan), RunOptions(sanitize=True)
        )
        assert result.conservation is not None


class TestSimulatorIntegration:
    def test_simulator_owns_a_pool_and_sanitizer_arms_it(self):
        from repro.analysis.sanitizer import Sanitizer
        from repro.sim.simulator import Simulator

        sim = Simulator(seed=0)
        assert isinstance(sim.packet_pool, PacketPool)
        assert not sim.packet_pool.sanitize
        Sanitizer().install(sim)
        assert sim.packet_pool.sanitize

    def test_incast_run_recycles_packets(self):
        from repro.config import TransportConfig, small_interdc_config
        from repro.experiments.runner import IncastScenario
        from repro.proxy.placement import pick_senders
        from repro.sim.simulator import Simulator
        from repro.topology.interdc import build_interdc
        from repro.transport.connection import Connection
        from repro.units import kilobytes

        scenario = IncastScenario(
            degree=2, total_bytes=kilobytes(1600),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        sim = Simulator(seed=0)
        topo = build_interdc(sim, scenario.interdc)
        receiver = topo.fabrics[1].hosts[0]
        for i, (host, size) in enumerate(
            zip(pick_senders(topo.fabrics[0], 2), scenario.flow_sizes())
        ):
            Connection(topo.net, host, receiver, size, scenario.transport,
                       label=f"p{i}").start()
        sim.run()
        stats = sim.packet_pool.stats()
        # The free list must actually cycle (allocations alone would mean
        # no endpoint ever called release), and its accounting must close:
        # every reuse consumed a prior release, the rest still sit free.
        assert stats["reused"] > 100
        assert stats["free"] == stats["released"] - stats["reused"]
        assert stats["allocated"] + stats["reused"] >= stats["released"]
