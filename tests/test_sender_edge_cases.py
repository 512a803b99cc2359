"""Sender edge cases: wire-time pacing, TLP, RTO backoff, fairness."""

import pytest

from repro.config import TransportConfig
from repro.faults import FaultContext, arm_faults, link_flap_plan
from repro.metrics.summary import jain_fairness
from repro.net.packet import PacketType, make_ack
from repro.transport.connection import Connection
from repro.units import gbps, kilobytes, microseconds, milliseconds, serialization_delay_ps
from tests.conftest import build_incast_star, build_pair


class TestWireTimestampPacing:
    def test_burst_timestamps_spread_at_line_rate(self, sim, transport_cfg):
        net, a, b = build_pair(sim, rate_bps=gbps(10))
        conn = Connection(net, a, b, 20_000, transport_cfg)
        captured = []
        original = a.send
        a.send = lambda p: (captured.append((p.seq, p.ts)), original(p))[1]
        conn.start()  # whole window handed to the NIC in one call
        step = serialization_delay_ps(
            transport_cfg.payload_bytes + transport_cfg.header_bytes, gbps(10)
        )
        stamps = [ts for _, ts in captured]
        assert len(stamps) >= 2
        assert all(b - a == step for a, b in zip(stamps, stamps[1:]))

    def test_timestamps_echoed_back_exactly(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 5_000, transport_cfg)
        echoes = []
        original = conn.sender._on_ack
        def spy(packet):
            echoes.append(packet.ts_echo)
            original(packet)
        conn.sender._on_ack = spy
        conn.start()
        sim.run(until=milliseconds(10))
        assert conn.completed
        assert all(e >= 0 for e in echoes)
        assert echoes == sorted(echoes)  # in-order path, paced stamps


class TestTailLossProbe:
    def test_tlp_fires_before_rto_on_tail_loss(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 20_000, transport_cfg)
        # Swallow the last data packet once: tail loss with no later SACKs.
        tail_seq = conn.total_packets - 1
        eaten = []
        original_receive = b.receive
        def eat_tail(packet):
            if (packet.kind == PacketType.DATA and packet.seq == tail_seq
                    and not eaten):
                eaten.append(packet.seq)
                return
            original_receive(packet)
        b.receive = eat_tail
        conn.start()
        sim.run(until=milliseconds(200))
        assert conn.completed
        assert conn.sender.stats.tlp_probes >= 1
        # the probe rescued the tail without a full timeout
        assert conn.sender.stats.timeouts == 0

    def test_no_probes_on_clean_transfer(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 20_000, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(100))
        assert conn.completed
        assert conn.sender.stats.tlp_probes == 0


class TestRtoBackoff:
    def test_backoff_grows_while_blackholed(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 10_000, transport_cfg)
        net.set_link_state(a.id, net.adjacency[a.id][0], False)  # black hole
        conn.start()
        sim.run(until=milliseconds(400))
        assert conn.sender.stats.timeouts >= 3
        assert conn.sender._backoff >= 3
        assert not conn.completed

    def test_backoff_resets_on_progress(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 50_000, transport_cfg)
        arm_faults(
            sim,
            link_flap_plan("sender:0", at_ps=microseconds(5), duration_ps=milliseconds(2)),
            FaultContext(net, sender_hosts=[a]),
        )
        conn.start()
        sim.run(until=milliseconds(500))
        assert conn.completed
        assert conn.sender.stats.timeouts >= 1
        assert conn.sender._backoff == 0  # progress after recovery reset it

    def test_stale_duplicate_ack_keeps_backoff(self, sim, transport_cfg):
        """Regression: a reordered copy of an old ACK — advancing neither
        cum_ack nor the SACK frontier — must not reset exponential backoff."""
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 500_000, transport_cfg)
        sender = conn.sender
        conn.start()
        sim.run(until=microseconds(100))  # let some ACKs arrive
        assert sender.cum_ack > 0 and not conn.completed
        # Black-hole the uplink and accumulate timeouts.
        net.set_link_state(a.id, net.adjacency[a.id][0], False)
        sim.run(until=milliseconds(100))
        assert sender._backoff >= 2
        backed_off = sender._backoff

        # A duplicate of the newest ACK already seen: no forward progress.
        stale = make_ack(
            sender.flow_id, b.id, a.id,
            ack_seq=sender.cum_ack,
            echo_seq=sender.highest_sacked,
            ecn_echo=False,
            ts_echo=-1,
        )
        sender.on_packet(stale)
        assert sender._backoff == backed_off  # unchanged

        # An ACK that does advance cum_ack resets the backoff.
        fresh = make_ack(
            sender.flow_id, b.id, a.id,
            ack_seq=sender.cum_ack + 1,
            echo_seq=sender.highest_sacked + 1,
            ecn_echo=False,
            ts_echo=-1,
        )
        sender.on_packet(fresh)
        assert sender._backoff == 0


class TestFairness:
    def test_jain_index_basics(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_fairness([0, 0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1, 1])

    def test_incast_flows_finish_fairly(self, sim, transport_cfg):
        net, senders, rx = build_incast_star(
            sim, 4, delay_ps=microseconds(100), bottleneck_capacity=kilobytes(60)
        )
        conns = [Connection(net, s, rx, 150_000, transport_cfg) for s in senders]
        for c in conns:
            c.start()
        sim.run(until=milliseconds(2000))
        assert all(c.completed for c in conns)
        completion = [c.receiver.stats.completed_at for c in conns]
        # Buffer-race winners finish earlier, so completion-time fairness is
        # imperfect under loss — but no flow should be starved outright.
        assert jain_fairness(completion) > 0.5
        assert max(completion) < 20 * min(completion)
