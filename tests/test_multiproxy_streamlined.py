"""Streamlined proxying through *multiple* proxies on one connection.

The loose source routing generalizes: ``via=(p0, p1)`` threads one
end-to-end connection through two streamlined proxies (e.g. one per
datacenter boundary of a chain).  Each proxy reflects trims arriving *at
it* and forwards everything else; ACKs retrace the full reverse route.
"""

from dataclasses import replace

import pytest

from repro.config import small_interdc_config
from repro.proxy.streamlined import StreamlinedProxy
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import megabytes, milliseconds


def chain_topo(sim, trimming=True):
    cfg = replace(
        small_interdc_config(),
        segment_delays_ps=(milliseconds(1), milliseconds(5)),
        trimming=trimming,
    )
    return build_interdc(sim, cfg)


class TestTwoProxyChain:
    def test_connection_via_two_proxies_completes(self, sim, transport_cfg):
        topo = chain_topo(sim)
        senders = topo.hosts(0)[:4]
        p0 = topo.hosts(0)[-1]
        p1 = topo.hosts(1)[0]
        receiver = topo.hosts(2)[0]
        proxy0 = StreamlinedProxy(sim, p0)
        proxy1 = StreamlinedProxy(sim, p1)
        conns = []
        for host in senders:
            conn = Connection(topo.net, host, receiver, megabytes(4),
                              transport_cfg, via=(p0, p1))
            proxy0.attach(conn)
            proxy1.attach(conn)
            conns.append(conn)
            conn.start()
        sim.run(until=milliseconds(5000))
        assert all(c.completed for c in conns)
        # both proxies moved data and control
        assert proxy0.stats.data_forwarded > 0
        assert proxy1.stats.data_forwarded > 0
        assert proxy0.stats.control_forwarded > 0  # ACKs retrace the chain
        assert proxy1.stats.control_forwarded > 0

    def test_first_proxy_absorbs_the_incast_trims(self, sim, transport_cfg):
        topo = chain_topo(sim)
        senders = topo.hosts(0)[:4]
        p0 = topo.hosts(0)[-1]
        p1 = topo.hosts(1)[0]
        receiver = topo.hosts(2)[0]
        proxy0 = StreamlinedProxy(sim, p0)
        proxy1 = StreamlinedProxy(sim, p1)
        conns = []
        for host in senders:
            conn = Connection(topo.net, host, receiver, megabytes(4),
                              transport_cfg, via=(p0, p1))
            proxy0.attach(conn)
            proxy1.attach(conn)
            conn.cc.cwnd = conn.total_packets  # burst
            conns.append(conn)
            conn.start()
        sim.run(until=milliseconds(5000))
        assert all(c.completed for c in conns)
        # the incast converges at proxy0's down-ToR; proxy1 sees a clean
        # single-rate stream and absorbs (essentially) nothing
        assert proxy0.stats.trimmed_absorbed > 0
        assert proxy1.stats.trimmed_absorbed <= proxy0.stats.trimmed_absorbed / 10
        # no trimmed header ever leaks to the receiver
        assert all(c.receiver.stats.trimmed_headers == 0 for c in conns)
