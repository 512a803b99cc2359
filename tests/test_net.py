"""Ports, nodes, routing, and the network container."""

from dataclasses import replace

import pytest

from repro.analysis.races import result_digest
from repro.competitors import install, uninstall
from repro.config import QueueSpec, TransportConfig, small_interdc_config
from repro.errors import RoutingError, TopologyError
from repro.experiments.runner import IncastScenario, run_incast
from repro.net.network import Network
from repro.net.node import Host, Switch
from repro.net.packet import make_data
from repro.net.routing import EcmpRouting, SprayRouting, build_next_hop_tables
from repro.schemes import SCHEME_REGISTRY
from repro.sim.simulator import Simulator
from repro.units import gbps, megabytes, microseconds, serialization_delay_ps
from tests.conftest import build_pair


class TestOutputPortTiming:
    def test_store_and_forward_latency(self, sim):
        net, a, b = build_pair(sim, rate_bps=gbps(10), delay_ps=microseconds(1))
        got = []
        b.register_handler(1, lambda p: got.append(sim.now))
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=1000))
        sim.run()
        # Two hops (a->switch, switch->b): 2 serializations + 2 propagations.
        tx = serialization_delay_ps(1064, gbps(10))
        assert got == [2 * tx + 2 * microseconds(1)]

    def test_back_to_back_serialization(self, sim):
        net, a, b = build_pair(sim, rate_bps=gbps(10), delay_ps=0)
        got = []
        b.register_handler(1, lambda p: got.append(sim.now))
        for seq in range(3):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=1000))
        sim.run()
        tx = serialization_delay_ps(1064, gbps(10))
        # First packet: 2 serializations; each next: +1 serialization (pipelined).
        assert got == [2 * tx, 3 * tx, 4 * tx]

    def test_tx_counters(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=500))
        sim.run()
        assert a.nic.tx_packets == 1
        assert a.nic.tx_bytes == 564


class TestHostDemux:
    def test_delivers_to_registered_handler(self, sim):
        net, a, b = build_pair(sim)
        seqs = []
        b.register_handler(7, lambda p: seqs.append(p.seq))
        a.send(make_data(7, 3, a.id, b.id, payload_bytes=10))
        sim.run()
        assert seqs == [3]

    def test_stray_packets_counted(self, sim):
        net, a, b = build_pair(sim)
        a.send(make_data(99, 0, a.id, b.id, payload_bytes=10))
        sim.run()
        assert b.stray_packets == 1

    def test_duplicate_handler_rejected(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        with pytest.raises(TopologyError):
            b.register_handler(1, lambda p: None)

    def test_unregister_is_idempotent(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        b.unregister_handler(1)
        b.unregister_handler(1)
        b.register_handler(1, lambda p: None)  # can re-register

    def test_host_is_single_homed(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        from repro.config import QueueSpec
        spec = QueueSpec(kind="host", capacity_bytes=1_000_000)
        net.connect(a, s1, gbps(1), 0, queue_ab=spec.build(None), queue_ba=spec.build(None))
        with pytest.raises(TopologyError):
            net.connect(a, s2, gbps(1), 0, queue_ab=spec.build(None), queue_ba=spec.build(None))

    def test_unconnected_host_cannot_send(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        with pytest.raises(TopologyError):
            a.send(make_data(1, 0, a.id, 99, payload_bytes=1))


class TestNextHopTables:
    def test_line_topology(self):
        #  0 - 1 - 2 - 3   (host 0, switches 1-2, host 3)
        adjacency = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        tables = build_next_hop_tables(adjacency, [0, 3])
        assert tables[1][3] == (2,)
        assert tables[2][0] == (1,)
        assert tables[1][0] == (0,)

    def test_equal_cost_multipath(self):
        # Diamond: host 0 - {1,2} - 3 (host).
        adjacency = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
        tables = build_next_hop_tables(adjacency, [3])
        assert set(tables[0][3]) == {1, 2}

    def test_unreachable_destination_absent(self):
        adjacency = {0: [1], 1: [0], 2: []}
        tables = build_next_hop_tables(adjacency, [2])
        assert 2 not in tables[0]


class TestRoutingStrategies:
    def _diamond(self, sim):
        # a - mid - {s1, s2} - tail - b : two equal-cost paths in the middle.
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        mid = net.add_switch("mid")
        tail = net.add_switch("tail")
        from repro.config import QueueSpec
        host = QueueSpec(kind="host", capacity_bytes=10_000_000)
        sw = QueueSpec(kind="droptail", capacity_bytes=10_000_000)
        net.connect(a, mid, gbps(10), 0, queue_ab=host.build(None), queue_ba=sw.build(None))
        net.connect(mid, s1, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(mid, s2, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(s1, tail, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(s2, tail, gbps(10), 0, queue_ab=sw.build(None), queue_ba=sw.build(None))
        net.connect(tail, b, gbps(10), 0, queue_ab=sw.build(None), queue_ba=host.build(None))
        return net, a, b, mid, s1, s2

    def test_spraying_uses_both_paths(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize(routing="spray")
        b.register_handler(1, lambda p: None)
        for seq in range(200):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=100))
        sim.run()
        via_s1 = mid.ports[s1.id].tx_packets
        via_s2 = mid.ports[s2.id].tx_packets
        assert via_s1 + via_s2 == 200
        assert via_s1 > 30 and via_s2 > 30  # roughly balanced

    def test_ecmp_pins_flow_to_one_path(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize(routing="ecmp")
        b.register_handler(1, lambda p: None)
        for seq in range(50):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=100))
        sim.run()
        used = sorted(p for p in (mid.ports[s1.id].tx_packets, mid.ports[s2.id].tx_packets))
        assert used == [0, 50]

    def test_missing_route_raises(self, sim):
        net, a, b, mid, s1, s2 = self._diamond(sim)
        net.finalize()
        pkt = make_data(1, 0, a.id, 424242, payload_bytes=10)
        with pytest.raises(RoutingError):
            mid.receive(pkt)

    def test_unknown_strategy_rejected(self, sim):
        net, *_ = self._diamond(sim)
        with pytest.raises(TopologyError):
            net.finalize(routing="teleport")


class TestDirectPorts:
    """An arrival for a single-next-hop destination is forwarded from the
    port it lands from, through ``Switch.direct_ports``, without consulting
    the routing strategy."""

    def test_every_scheme_digest_is_the_same_through_the_strategy(self, monkeypatch):
        cell = IncastScenario(
            degree=6, total_bytes=megabytes(8), interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096), seed=0,
        )
        install()
        try:
            schemes = SCHEME_REGISTRY.names()
            bypassed = {s: result_digest(run_incast(replace(cell, scheme=s)))
                        for s in schemes}
            # Empty the dict wherever finalize() or install_tables() fills
            # it: every hop then goes through Switch.receive and the strategy.
            fill = Network._set_direct_ports

            def emptied(net, tables):
                fill(net, tables)
                for switch in net.switches:
                    switch.direct_ports = {}

            routed = []
            receive = Switch.receive

            def counted(switch, packet):
                routed.append(packet.dst)
                receive(switch, packet)

            monkeypatch.setattr(Network, "_set_direct_ports", emptied)
            monkeypatch.setattr(Switch, "receive", counted)
            strategy = {s: result_digest(run_incast(replace(cell, scheme=s)))
                        for s in schemes}
        finally:
            uninstall()
        assert len(schemes) == 8 and routed
        assert strategy == bypassed

    @staticmethod
    def _line(sim):
        """a - s1 - s2 - s3 - b, with host c on s2; 10 us per link."""
        net = Network(sim)
        a, b, c = (net.add_host(name) for name in "abc")
        s1, s2, s3 = (net.add_switch(name) for name in ("s1", "s2", "s3"))
        spec = QueueSpec(kind="host", capacity_bytes=megabytes(1))
        for x, y in ((a, s1), (s1, s2), (s2, s3), (s3, b), (s2, c)):
            net.connect(x, y, gbps(10), microseconds(10),
                        queue_ab=spec.build(None), queue_ba=spec.build(None))
        net.finalize()
        return net, a, b, c, s1, s2

    @pytest.mark.parametrize("reroute", [False, True])
    def test_a_packet_on_the_wire_forwards_by_the_tables_it_lands_on(self, sim, reroute):
        net, a, b, c, s1, s2 = self._line(sim)
        landed = {b.id: [], c.id: []}
        for host in (b, c):
            host.register_handler(1, lambda p, h=host.id: landed[h].append(p.seq))
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=1000))
        wire = s1.ports[s2.id]
        while wire.tx_packets == 0:
            sim.run(max_events=1)
        # The packet is between s1 and s2.  The new tables send s2's
        # traffic for b to host c instead of on toward s3.
        if reroute:
            tables = {node: dict(row) for node, row in s2.routing.tables.items()}
            tables[s2.id][b.id] = (c.id,)
            net.install_tables(tables)
        sim.run()
        assert landed == ({b.id: [], c.id: [0]} if reroute else {b.id: [0], c.id: []})


class TestNetworkQueries:
    def test_min_delay_sums_edges(self, sim):
        net, a, b = build_pair(sim, delay_ps=microseconds(3))
        assert net.min_delay_ps(a.id, b.id) == 2 * microseconds(3)
        assert net.min_delay_ps(a.id, a.id) == 0

    def test_path_rtt_via_stops(self, sim):
        sim2 = Simulator()
        net = Network(sim2)
        from repro.config import QueueSpec
        host = QueueSpec(kind="host", capacity_bytes=1_000_000)
        hosts = [net.add_host(f"h{i}") for i in range(3)]
        s = net.add_switch("s")
        for h in hosts:
            net.connect(h, s, gbps(10), microseconds(1),
                        queue_ab=host.build(None), queue_ba=host.build(None))
        net.finalize()
        direct = net.path_rtt_ps(hosts[0].id, hosts[2].id)
        via = net.path_rtt_ps(hosts[0].id, hosts[2].id, via=[hosts[1].id])
        assert direct == 4 * microseconds(1)
        assert via == 8 * microseconds(1)

    def test_disconnected_raises(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(RoutingError):
            net.min_delay_ps(a.id, b.id)

    def test_flow_ids_unique(self, sim):
        net = Network(sim)
        assert net.new_flow_id() != net.new_flow_id()

    def test_invalid_link_params(self, sim):
        net = Network(sim)
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(TopologyError):
            net.connect(a, b, 0, 0, queue_ab=None, queue_ba=None)

    def test_no_changes_after_finalize(self, sim):
        net, a, b = build_pair(sim)
        with pytest.raises(TopologyError):
            net.add_host("late")
