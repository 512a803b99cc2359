"""Proxy corner cases: remote trimming, inner-leg congestion, relay reuse."""

from functools import partial

import pytest

from repro.config import QueueSpec, TransportConfig
from repro.net.network import Network
from repro.net.packet import PacketType
from repro.proxy.naive import NaiveProxy
from repro.proxy.streamlined import StreamlinedProxy
from repro.units import gbps, kilobytes, megabytes, microseconds, milliseconds


def build_two_stage(sim, *, near_trim=False, far_trim=False,
                    near_cap=megabytes(4), far_cap=megabytes(4),
                    proxy_rate=gbps(10)):
    """senders -> s_near -> proxyhost/-> s_far -> receiver.

    Two switches so congestion can be placed either before the proxy
    (near, its down-port) or after it (far, the receiver's down-port).
    """
    net = Network(sim)
    tx1 = net.add_host("tx1")
    tx2 = net.add_host("tx2")
    proxy_host = net.add_host("proxy")
    receiver = net.add_host("rx")
    s_near = net.add_switch("near")
    s_far = net.add_switch("far")
    host = QueueSpec(kind="host", capacity_bytes=megabytes(500))

    def spec(trim, cap):
        return QueueSpec(kind="trimming" if trim else "ecn", capacity_bytes=cap,
                         ecn_low_bytes=kilobytes(10),
                         ecn_high_bytes=min(kilobytes(30), cap))

    wide_near = spec(near_trim, megabytes(8))
    down_near = spec(near_trim, near_cap)
    wide_far = spec(far_trim, megabytes(8))
    down_far = spec(far_trim, far_cap)
    def rng(name):
        return partial(sim.rng.stream, name)

    for i, tx in enumerate((tx1, tx2)):
        net.connect(tx, s_near, gbps(40), microseconds(1),
                    queue_ab=host.build(None), queue_ba=wide_near.build(rng(f"n{i}")))
    net.connect(proxy_host, s_near, proxy_rate, microseconds(1),
                queue_ab=host.build(None), queue_ba=down_near.build(rng("np")))
    net.connect(s_near, s_far, gbps(40), milliseconds(1),
                queue_ab=wide_near.build(rng("nf")), queue_ba=wide_far.build(rng("fn")))
    net.connect(receiver, s_far, gbps(10), microseconds(1),
                queue_ab=host.build(None), queue_ba=down_far.build(rng("fr")))
    net.finalize()
    return net, (tx1, tx2), proxy_host, receiver


class TestRemoteTrimming:
    def test_receiver_nacks_travel_back_through_proxy(self, sim, transport_cfg):
        """A packet trimmed *after* the proxy reaches the receiver as a
        header; the receiver's NACK must ride the return route (via the
        proxy) back to the sender."""
        # a fast proxy NIC (40G) relaying into the receiver's 10G down-port
        # guarantees trims happen beyond the proxy
        net, (tx1, tx2), proxy_host, receiver = build_two_stage(
            sim, far_trim=True, far_cap=kilobytes(40), proxy_rate=gbps(40)
        )
        proxy = StreamlinedProxy(sim, proxy_host)
        conns = []
        for tx in (tx1, tx2):
            conn = proxy.open(net, tx, receiver, 200_000, transport_cfg)
            conn.cc.cwnd = conn.total_packets  # force a burst past the proxy
            conns.append(conn)
            conn.start()
        sim.run(until=milliseconds(2000))
        assert all(c.completed for c in conns)
        receiver_nacks = sum(c.receiver.stats.nacks_sent for c in conns)
        assert receiver_nacks > 0  # trims happened beyond the proxy
        # those NACKs were forwarded (not absorbed) by the proxy
        assert proxy.stats.control_forwarded > 0
        assert sum(c.sender.stats.nacks_received for c in conns) >= receiver_nacks

    def test_proxy_absorbs_near_trims_but_forwards_far_ones(self, sim, transport_cfg):
        net, (tx1, tx2), proxy_host, receiver = build_two_stage(
            sim, near_trim=True, far_trim=True,
            near_cap=kilobytes(40), far_cap=megabytes(8),
        )
        proxy = StreamlinedProxy(sim, proxy_host)
        conns = []
        for tx in (tx1, tx2):
            conn = proxy.open(net, tx, receiver, 200_000, transport_cfg)
            conn.cc.cwnd = conn.total_packets
            conns.append(conn)
            conn.start()
        sim.run(until=milliseconds(2000))
        assert all(c.completed for c in conns)
        assert proxy.stats.trimmed_absorbed > 0
        # headers absorbed at the proxy never reached the receiver
        assert sum(c.receiver.stats.trimmed_headers for c in conns) == 0


class TestNaiveInnerLegCongestion:
    def test_inner_leg_trimming_recovers_locally(self, sim, transport_cfg):
        """With trimming on the proxy's down-port, the inner (local) legs
        see NACK-based recovery entirely inside the near segment."""
        net, (tx1, tx2), proxy_host, receiver = build_two_stage(
            sim, near_trim=True, near_cap=kilobytes(40)
        )
        proxy = NaiveProxy(sim, proxy_host)
        flows = [proxy.open(net, tx, receiver, 200_000, transport_cfg) for tx in (tx1, tx2)]
        for flow in flows:
            flow.legs[0].cc.cwnd = flow.legs[0].total_packets  # burst the local leg
            flow.start()
        sim.run(until=milliseconds(2000))
        assert all(f.completed for f in flows)
        inner_nacks = sum(f.legs[0].sender.stats.nacks_received for f in flows)
        assert inner_nacks > 0
        # the long legs saw none of it
        assert all(f.legs[1].sender.stats.nacks_received == 0 for f in flows)

    def test_relay_reuse_across_sequential_flows(self, sim, transport_cfg):
        net, (tx1, tx2), proxy_host, receiver = build_two_stage(sim)
        proxy = NaiveProxy(sim, proxy_host)
        first = proxy.open(net, tx1, receiver, 50_000, transport_cfg)
        first.start()
        sim.run(until=milliseconds(500))
        assert first.completed
        second = proxy.open(net, tx2, receiver, 50_000, transport_cfg)
        second.start()
        sim.run(until=milliseconds(1000))
        assert second.completed
        assert len(proxy.flows) == 2
