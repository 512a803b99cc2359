"""Delayed-ACK coalescing semantics."""

from dataclasses import replace

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError
from repro.experiments.runner import IncastScenario, run_incast
from repro.transport.connection import Connection
from repro.units import megabytes, microseconds, milliseconds
from tests.conftest import build_pair


@pytest.fixture()
def delack_cfg():
    return TransportConfig(payload_bytes=1024, ack_every=4,
                           delack_timeout_ps=microseconds(50))


class TestCoalescing:
    def test_fewer_acks_than_packets(self, sim, delack_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 64 * 1024, delack_cfg)
        conn.start()
        sim.run(until=milliseconds(100))
        assert conn.completed
        acks = conn.receiver.stats.acks_sent
        packets = conn.receiver.stats.data_packets
        assert acks < packets
        assert acks >= packets // delack_cfg.ack_every

    def test_per_packet_default_unchanged(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 16 * 1024, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(100))
        assert conn.receiver.stats.acks_sent >= conn.receiver.stats.data_packets

    def test_tail_never_stalls(self, sim, delack_cfg):
        # 5 packets with ack_every=4: the last packet is below the batch
        # threshold but completion must still be acknowledged immediately.
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 5 * 1024, delack_cfg)
        conn.start()
        sim.run(until=milliseconds(100))
        assert conn.completed
        assert conn.sender.completed

    def test_delack_timer_bounds_the_wait(self, sim, delack_cfg):
        # a single packet (far below ack_every) must be acked within the
        # delayed-ack timeout, not never
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 1024, delack_cfg)
        conn.start()
        sim.run(until=milliseconds(100))
        assert conn.completed

    def test_batch_echoes_any_mark(self, sim):
        # force marks by a tiny ECN band, then verify marked ACKs show up
        # even though acks are coalesced
        cfg = TransportConfig(payload_bytes=1024, ack_every=4)
        from tests.conftest import build_incast_star
        from repro.units import kilobytes
        net, senders, rx = build_incast_star(
            sim, 2, delay_ps=microseconds(100), bottleneck_capacity=kilobytes(200)
        )
        conns = [Connection(net, s, rx, 150_000, cfg) for s in senders]
        for c in conns:
            c.start()
        sim.run(until=milliseconds(2000))
        assert all(c.completed for c in conns)
        assert sum(c.sender.stats.marked_acks for c in conns) > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TransportConfig(ack_every=0)
        with pytest.raises(ConfigError):
            TransportConfig(delack_timeout_ps=0)


class TestCloseReleasesBatchTail:
    def test_close_releases_held_batch_tail(self, sim, delack_cfg):
        # A receiver closed mid-batch will never send the held tail's echo,
        # so close() lets go of it instead of pinning it for as long as the
        # receiver object lives.
        import sys

        from repro.net.packet import make_data
        from repro.transport.receiver import AckingReceiver

        net, a, b = build_pair(sim)
        receiver = AckingReceiver(
            sim, b, flow_id=901, total_packets=8, cfg=delack_cfg,
            return_route=(a.id,),
        )
        packet = make_data(901, 0, a.id, b.id, payload_bytes=1024)
        receiver.on_packet(packet)
        assert receiver._ack_tail is packet  # 1 < ack_every: tail is held
        held = sys.getrefcount(packet)
        receiver.close()
        assert receiver._ack_tail is None
        assert sys.getrefcount(packet) == held - 1
        receiver.close()  # idempotent
        assert receiver._ack_tail is None
        assert sys.getrefcount(packet) == held - 1
        assert receiver.stats.acks_sent == 0

    def test_proxy_crash_under_fault_plan_releases_tail(self, sim, delack_cfg):
        # The path that reaches close() mid-batch in practice: a Naive proxy
        # crash closes its inner receivers under coalesced ACKs.
        from repro.faults import FaultContext, FaultInjector, proxy_crash_plan
        from repro.proxy.naive import NaiveProxy
        from tests.conftest import build_incast_star

        net, hosts, rx = build_incast_star(sim, 2)
        src, proxy_host = hosts
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, src, rx, 256 * 1024, delack_cfg)
        flow.start()
        crash_at = microseconds(40)
        plan = proxy_crash_plan(at_ps=crash_at)
        FaultInjector(sim, plan, FaultContext(net, proxies={"primary": proxy})).arm()
        probe = {}
        def snapshot():
            probe["held"] = flow.legs[0].receiver._ack_tail is not None
        sim.schedule(crash_at - 1, snapshot)
        sim.run(until=milliseconds(50))
        # the crash must have landed mid-batch or this regression tests nothing
        assert probe["held"], "crash landed between batches; move crash_at"
        assert proxy.crashed
        assert flow.legs[0].receiver._ack_tail is None


class TestEndToEndWithDelayedAcks:
    def test_headline_survives_ack_coalescing(self):
        cfg = TransportConfig(payload_bytes=4096, ack_every=4)
        base = IncastScenario(degree=4, total_bytes=megabytes(24),
                              interdc=small_interdc_config(), transport=cfg)
        baseline = run_incast(base)
        proxied = run_incast(replace(base, scheme="streamlined"))
        assert baseline.completed and proxied.completed
        assert proxied.ict_ps < 0.5 * baseline.ict_ps
