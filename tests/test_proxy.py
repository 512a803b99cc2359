"""Proxy schemes: streamlined forwarding/NACK reflection, the streamlined
proxy's gap detector (trimless), naive relay, and placement."""

from functools import partial

import pytest

from repro.config import QueueSpec, TransportConfig
from repro.detection.lossdetector import DetectorConfig, GapLossDetector
from repro.errors import ProxyError
from repro.net.network import Network
from repro.net.packet import PacketType, make_ack, make_data
from repro.proxy.naive import NaiveProxy
from repro.proxy.placement import pick_senders, place
from repro.proxy.streamlined import StreamlinedProxy
from repro.sim.simulator import Simulator
from repro.topology.leafspine import build_leafspine
from repro.units import gbps, kilobytes, megabytes, microseconds, milliseconds
from repro.config import FabricConfig


def build_line(sim, trimming=False, bottleneck=kilobytes(50)):
    """sender - switch - proxyhost - (same switch) - receiver.

    A three-host star where the proxy host sits behind a shallow
    (optionally trimming) 10G down-port, mimicking the proxy down-ToR.
    The sender and receiver links run at 40G so a bursting sender can
    actually overflow the proxy's down-port.
    """
    net = Network(sim)
    sender = net.add_host("sender")
    proxy_host = net.add_host("proxy")
    receiver = net.add_host("receiver")
    s = net.add_switch("s")
    host_spec = QueueSpec(kind="host", capacity_bytes=megabytes(200))
    kind = "trimming" if trimming else "ecn"
    down = QueueSpec(kind=kind, capacity_bytes=bottleneck,
                     ecn_low_bytes=kilobytes(10), ecn_high_bytes=kilobytes(30))
    wide = QueueSpec(kind=kind, capacity_bytes=megabytes(4),
                     ecn_low_bytes=kilobytes(33), ecn_high_bytes=kilobytes(137))
    net.connect(sender, s, gbps(40), microseconds(1),
                queue_ab=host_spec.build(None), queue_ba=wide.build(partial(sim.rng.stream, "q1")))
    net.connect(proxy_host, s, gbps(10), microseconds(1),
                queue_ab=host_spec.build(None), queue_ba=down.build(partial(sim.rng.stream, "q2")))
    net.connect(receiver, s, gbps(40), milliseconds(1),
                queue_ab=host_spec.build(None), queue_ba=wide.build(partial(sim.rng.stream, "q3")))
    net.finalize()
    return net, sender, proxy_host, receiver


class TestStreamlinedProxy:
    def test_relays_end_to_end(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = StreamlinedProxy(sim, proxy_host)
        conn = proxy.open(net, sender, receiver, 20_000, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(200))
        assert conn.completed
        assert proxy.stats.data_forwarded >= conn.total_packets
        assert proxy.stats.control_forwarded >= conn.total_packets  # the ACKs

    def test_trimmed_header_becomes_nack(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim, trimming=True)
        proxy = StreamlinedProxy(sim, proxy_host)
        conn = proxy.open(net, sender, receiver, 200_000, transport_cfg)
        # Fatten the initial window so the shallow proxy down-port overflows.
        conn.cc.cwnd = conn.total_packets
        conn.start()
        sim.run(until=milliseconds(500))
        assert conn.completed
        assert proxy.stats.trimmed_absorbed > 0
        assert proxy.stats.nacks_sent == proxy.stats.trimmed_absorbed
        assert conn.sender.stats.nacks_received > 0
        # trimmed headers are absorbed, never forwarded to the receiver
        assert conn.receiver.stats.trimmed_headers == 0

    def test_nack_feedback_is_local_not_end_to_end(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim, trimming=True)
        proxy = StreamlinedProxy(sim, proxy_host)
        conn = proxy.open(net, sender, receiver, 200_000, transport_cfg)
        conn.cc.cwnd = conn.total_packets
        nack_times = []
        original = conn.sender._on_nack
        def spy(packet):
            nack_times.append(sim.now)
            original(packet)
        conn.sender._on_nack = spy
        conn.start()
        sim.run(until=milliseconds(500))
        # First NACK arrives on the intra-DC timescale (well below the 2ms
        # one-way long-haul latency), which is the paper's entire point.
        assert nack_times and nack_times[0] < milliseconds(1)

    def test_processing_delay_is_charged(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        slow = StreamlinedProxy(sim, proxy_host, processing_delay=lambda: microseconds(400))
        conn = slow.open(net, sender, receiver, 4096, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(300))
        done_slow = conn.receiver.stats.completed_at

        sim2 = Simulator(seed=42)
        net2, sender2, proxy_host2, receiver2 = build_line(sim2)
        fast = StreamlinedProxy(sim2, proxy_host2)
        conn2 = fast.open(net2, sender2, receiver2, 4096, transport_cfg)
        conn2.start()
        sim2.run(until=milliseconds(300))
        done_fast = conn2.receiver.stats.completed_at
        # receiver completion is gated by the forward direction only: the
        # last data packet crosses the proxy exactly once.
        assert done_slow - done_fast >= microseconds(400)

    def test_packet_without_stops_is_a_wiring_error(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = StreamlinedProxy(sim, proxy_host)
        proxy.attach_flow(77)
        stray = make_data(77, 0, sender.id, proxy_host.id, payload_bytes=10)
        with pytest.raises(ProxyError):
            proxy._handle(stray)

    def test_detach_stops_relaying(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = StreamlinedProxy(sim, proxy_host)
        proxy.attach_flow(5)
        proxy.detach_flow(5)
        assert 5 not in proxy_host.handlers


class TestNaiveProxy:
    def test_relays_and_completes(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        done = []
        flow = proxy.open(net, sender, receiver, 50_000, transport_cfg,
                          on_receiver_complete=lambda r: done.append(sim.now))
        flow.start()
        sim.run(until=milliseconds(200))
        assert flow.completed
        assert done
        assert flow.legs[1].receiver.stats.bytes_received == 50_000

    def test_relay_preserves_byte_stream_order(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, sender, receiver, 30_000, transport_cfg)
        seqs = []
        inner = flow.legs[0].receiver
        inner_deliver = inner.on_deliver
        inner.on_deliver = lambda seq: (seqs.append(seq), inner_deliver(seq))
        flow.start()
        sim.run(until=milliseconds(200))
        assert seqs == sorted(seqs)

    def test_two_connections_with_distinct_flow_ids(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, sender, receiver, 10_000, transport_cfg)
        inner, outer = flow.legs
        assert inner.flow_id != outer.flow_id
        # inner terminates at the proxy host; outer originates there
        assert inner.dst is proxy_host
        assert outer.src is proxy_host

    def test_long_leg_is_unwindowed(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, sender, receiver, 10_000, transport_cfg)
        assert flow.legs[1].cc.can_send(10**9)

    def test_backlog_drains(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, sender, receiver, 50_000, transport_cfg)
        flow.start()
        sim.run(until=milliseconds(200))
        assert flow.backlog_packets(0) == 0

    def test_inner_leg_finishes_before_outer(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        flow = proxy.open(net, sender, receiver, 50_000, transport_cfg)
        flow.start()
        sim.run(until=milliseconds(200))
        # the local leg has a us RTT; the long leg's completion includes 1ms legs
        inner, outer = flow.legs
        assert (inner.receiver.stats.completed_at
                < outer.receiver.stats.completed_at)

    def test_restart_serves_new_flows_but_not_dead_relays(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = NaiveProxy(sim, proxy_host)
        # 5 MB takes 4 ms through the proxy's 10G port: at 1 ms neither leg
        # has finished.
        before = proxy.open(net, sender, receiver, 5_000_000, transport_cfg)
        before.start()
        sim.run(until=milliseconds(1))
        assert not before.legs[0].completed and not before.completed
        proxy.crash()
        with pytest.raises(ProxyError):
            proxy.open(net, sender, receiver, 50_000, transport_cfg)
        proxy.restart()
        assert not proxy.crashed and proxy.crashes == 1
        done = []
        after = proxy.open(net, sender, receiver, 50_000, transport_cfg,
                           on_receiver_complete=lambda r: done.append(sim.now))
        after.start()
        sim.run(until=milliseconds(200))
        assert after.completed and done
        assert after.legs[1].receiver.stats.bytes_received == 50_000
        assert not before.completed
        assert before.legs[1].sender.failed
        assert before.legs[1].receiver.stats.bytes_received < 5_000_000


class TestTrimlessProxy:
    """The streamlined proxy with a gap detector: no switch trimming."""

    def test_detects_drops_and_nacks(self, sim, transport_cfg):
        net, sender, proxy_host, receiver = build_line(sim, trimming=False,
                                                       bottleneck=kilobytes(30))
        proxy = StreamlinedProxy(sim, proxy_host, detector=GapLossDetector(
            DetectorConfig(packet_threshold=4, reorder_window_ps=microseconds(10)),
        ))
        conn = proxy.open(net, sender, receiver, 200_000, transport_cfg)
        conn.cc.cwnd = conn.total_packets  # force first-burst overflow
        conn.start()
        sim.run(until=milliseconds(1000))
        assert conn.completed
        assert proxy.stats.nacks_sent > 0
        assert conn.sender.stats.nacks_received > 0

    def test_no_false_nacks_without_loss(self, transport_cfg):
        # The same loss-free flow without and with a detector: the detector
        # only observes, so nothing it sees may move the run.
        runs = []
        for detector in (None, GapLossDetector()):
            sim = Simulator(seed=42)
            net, sender, proxy_host, receiver = build_line(
                sim, bottleneck=megabytes(4)
            )
            proxy = StreamlinedProxy(sim, proxy_host, detector=detector)
            done = []
            conn = proxy.open(net, sender, receiver, 500_000, transport_cfg,
                              on_receiver_complete=lambda r: done.append(sim.now))
            conn.start()
            sim.run(until=milliseconds(200))
            assert conn.completed
            assert proxy.stats.nacks_sent == 0
            runs.append((done, conn.sender.stats.as_dict(), proxy.stats.as_dict()))
        assert runs[0] == runs[1]
        _, sender_stats, proxy_stats = runs[0]
        assert sender_stats["retransmissions"] == 0
        assert proxy_stats["data_forwarded"] == sender_stats["data_packets_sent"] == 489

    def test_detach_cleans_state(self, sim):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = StreamlinedProxy(sim, proxy_host, detector=GapLossDetector())
        proxy.attach_flow(9)
        assert len(proxy.detector) == 1
        proxy.detach_flow(9)
        assert 9 not in proxy_host.handlers
        assert len(proxy.detector) == 0

    def test_no_detector_no_detector_state(self, sim):
        net, sender, proxy_host, receiver = build_line(sim)
        proxy = StreamlinedProxy(sim, proxy_host)
        proxy.attach_flow(9)
        assert proxy.detector is None
        assert not hasattr(proxy, "_senders")


class TestPlacement:
    def _fabric(self, sim, leaves=4, servers=4):
        net = Network(sim)
        return build_leafspine(
            net, FabricConfig(spines=2, leaves=leaves, servers_per_leaf=servers)
        )

    def test_senders_round_robin_across_leaves(self, sim):
        fabric = self._fabric(sim)
        senders = pick_senders(fabric, 4)
        leaves = [h.name.split("h")[1].split(".")[0] for h in senders]
        assert len(set(leaves)) == 4  # one sender per leaf

    def test_senders_wrap_within_leaves(self, sim):
        fabric = self._fabric(sim)
        senders = pick_senders(fabric, 6)
        assert len(senders) == 6
        assert len({h.id for h in senders}) == 6

    def test_exclusion_respected(self, sim):
        fabric = self._fabric(sim)
        excluded = {fabric.hosts_by_leaf[0][0].id}
        senders = pick_senders(fabric, 4, exclude=excluded)
        assert excluded.isdisjoint({h.id for h in senders})

    def test_proxy_avoids_sender_leaves(self, sim):
        fabric = self._fabric(sim)
        senders = pick_senders(fabric, 4)  # one per leaf, rank 0
        [proxy] = place(fabric, senders)
        assert proxy.id not in {h.id for h in senders}

    def test_proxy_prefers_emptiest_leaf(self, sim):
        fabric = self._fabric(sim)
        # load leaves 0..2 heavily, keep leaf 3 sender-free
        senders = [h for leaf in fabric.hosts_by_leaf[:3] for h in leaf]
        [proxy] = place(fabric, senders)
        assert proxy in fabric.hosts_by_leaf[3]

    def test_too_many_senders_raises(self, sim):
        fabric = self._fabric(sim, leaves=1, servers=2)
        from repro.errors import TopologyError
        with pytest.raises(TopologyError):
            pick_senders(fabric, 5)
