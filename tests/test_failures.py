"""Failure injection: port up/down semantics and transport resilience."""

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError, FaultError, TopologyError
from repro.faults import FaultContext, arm_faults, link_flap_plan
from repro.analysis.sanitizer import Sanitizer
from repro.net.packet import HEADER_BYTES, make_data
from repro.transport.connection import Connection
from repro.units import megabytes, microseconds, milliseconds
from tests.conftest import build_pair


def flap(sim, net, target, at_ps, duration_ps, **roles):
    """Arm a one-link down/up plan on ``target`` (roles as FaultContext's)."""
    arm_faults(
        sim, link_flap_plan(target, at_ps, duration_ps), FaultContext(net, **roles)
    )


class TestPortUpDown:
    def test_down_port_drops_offers(self, sim):
        net, a, b = build_pair(sim)
        b.register_handler(1, lambda p: None)
        a.nic.set_up(False)
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=100))
        sim.run()
        assert a.nic.dropped_while_down == 1
        assert a.nic.tx_packets == 0

    def test_packet_mid_flight_is_lost(self, sim):
        net, a, b = build_pair(sim)
        got = []
        b.register_handler(1, lambda p: got.append(p.seq))
        a.send(make_data(1, 0, a.id, b.id, payload_bytes=100_000))
        sim.schedule(1, lambda: a.nic.set_up(False))  # during serialization
        sim.run()
        assert got == []

    def test_blip_shorter_than_a_serialization_loses_that_packet(self, sim):
        # 100 KB at 10 Gb/s serializes for 80 us; the link is down for 1 us
        # of it.  The packet on the link is lost even though the link is
        # back before its serialization would have ended; the one queued
        # behind it starts when the link comes back and lands.
        sanitizer = Sanitizer().install(sim)
        net, a, b = build_pair(sim)
        got = []
        b.register_handler(1, lambda p: got.append(p.seq))
        for seq in range(2):
            a.send(make_data(1, seq, a.id, b.id, payload_bytes=100_000))
        sim.schedule(microseconds(10), lambda: a.nic.set_up(False))
        sim.schedule(microseconds(11), lambda: a.nic.set_up(True))
        sim.run()
        assert got == [1]
        assert a.nic.tx_packets == 1
        assert a.nic.tx_bytes == 100_000 + HEADER_BYTES
        report = sanitizer.finish(net)  # exact conservation, or it raises
        assert report.wire_lost_packets == 1
        assert report.wire_lost_bytes == 100_000 + HEADER_BYTES
        assert report.in_transit_packets == report.queued_packets == 0

    def test_queue_survives_and_resumes(self, sim):
        net, a, b = build_pair(sim)
        got = []
        b.register_handler(1, lambda p: got.append(p.seq))
        a.nic.set_up(False)
        sim.run()
        a.nic.set_up(True)  # nothing queued while down (offers dropped)
        a.send(make_data(1, 5, a.id, b.id, payload_bytes=100))
        sim.run()
        assert got == [5]

    def test_set_up_idempotent(self, sim):
        net, a, b = build_pair(sim)
        a.nic.set_up(True)
        a.nic.set_up(False)
        a.nic.set_up(False)
        assert not a.nic.up


class TestNetworkFailureApi:
    def test_set_link_state_both_directions(self, sim):
        net, a, b = build_pair(sim)
        switch_id = net.adjacency[a.id][0]
        net.set_link_state(a.id, switch_id, False)
        assert not a.nic.up
        assert not net.nodes[switch_id].ports[a.id].up
        net.set_link_state(a.id, switch_id, True)
        assert a.nic.up

    def test_unknown_link_rejected(self, sim):
        net, a, b = build_pair(sim)
        with pytest.raises(TopologyError):
            net.set_link_state(a.id, b.id, False)  # hosts are not adjacent

    def test_link_flap_plan_schedules_down_and_up(self, sim):
        net, a, b = build_pair(sim)
        flap(sim, net, "sender:0", at_ps=1000, duration_ps=500, sender_hosts=[a])
        sim.run(until=1200)
        assert not a.nic.up
        sim.run(until=2000)
        assert a.nic.up

    def test_host_target_flaps_its_access_link(self, sim):
        net, a, b = build_pair(sim)
        flap(sim, net, "receiver", at_ps=10, duration_ps=10, receiver_host=b)
        sim.run(until=15)
        assert not b.nic.up and a.nic.up
        assert net.down_links() == {(b.id, net.adjacency[b.id][0]),
                                    (net.adjacency[b.id][0], b.id)}

    def test_malformed_link_target_is_refused(self, sim):
        net, a, b = build_pair(sim)
        for target in ("sender:0:1", "backbone:0:x", "backbone:0:1:2", "leaf"):
            with pytest.raises(FaultError):
                flap(sim, net, target, at_ps=0, duration_ps=1, sender_hosts=[a])

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError):
            link_flap_plan("sender:0", at_ps=0, duration_ps=0)


class TestTransportUnderFailure:
    def test_transfer_survives_transient_access_failure(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 200_000, transport_cfg)
        # kill the sender's access link mid-transfer for 200us
        flap(sim, net, "sender:0", at_ps=microseconds(20),
             duration_ps=microseconds(200), sender_hosts=[a])
        conn.start()
        sim.run(until=milliseconds(2000))
        assert conn.completed
        assert conn.receiver.stats.bytes_received == 200_000
        assert conn.sender.stats.retransmissions > 0

    def test_transfer_survives_receiver_side_failure(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 200_000, transport_cfg)
        flap(sim, net, "receiver", at_ps=microseconds(20),
             duration_ps=microseconds(300), receiver_host=b)
        conn.start()
        sim.run(until=milliseconds(2000))
        assert conn.completed

    def test_interdc_incast_survives_backbone_blip(self, transport_cfg):
        from repro.experiments.runner import IncastScenario, run_incast
        from repro.sim.simulator import Simulator
        from repro.topology.interdc import build_interdc
        # one backbone link flaps during the incast; spraying rides the
        # remaining equal-cost paths and RACK repairs the black-holed packets
        sim = Simulator(seed=0)
        topo = build_interdc(sim, small_interdc_config())
        net = topo.net
        conn = Connection(
            net, topo.hosts(0)[0], topo.hosts(1)[0], megabytes(4), transport_cfg
        )
        # backbone router 0's link toward DC 0's spine
        flap(sim, net, "backbone:0:0", at_ps=microseconds(100),
             duration_ps=milliseconds(1), backbone=topo.backbone)
        conn.start()
        sim.run(until=milliseconds(5000))
        assert conn.completed
        assert conn.receiver.stats.bytes_received == megabytes(4)
