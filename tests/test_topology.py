"""Topology builders: leaf-spine fabric and the two-DC backbone."""

import pytest

from repro.config import FabricConfig, InterDcConfig, paper_interdc_config, small_interdc_config
from repro.errors import ConfigError
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.topology.leafspine import build_leafspine
from repro.units import megabytes, microseconds, milliseconds


@pytest.fixture()
def small_topo(sim):
    return build_interdc(sim, small_interdc_config())


class TestLeafSpine:
    def test_element_counts(self, sim):
        net = Network(sim)
        cfg = FabricConfig(spines=2, leaves=3, servers_per_leaf=4)
        fabric = build_leafspine(net, cfg)
        assert len(fabric.spines) == 2
        assert len(fabric.leaves) == 3
        assert len(fabric.hosts) == 12
        assert [len(hosts) for hosts in fabric.hosts_by_leaf] == [4, 4, 4]

    def test_full_bipartite_leaf_spine(self, sim):
        net = Network(sim)
        fabric = build_leafspine(net, FabricConfig(spines=2, leaves=2, servers_per_leaf=1))
        for leaf in fabric.leaves:
            spine_neighbors = [n for n in net.adjacency[leaf.id]
                               if any(s.id == n for s in fabric.spines)]
            assert len(spine_neighbors) == 2

    def test_down_tor_port_uses_switch_queue(self, sim):
        net = Network(sim)
        fabric = build_leafspine(net, FabricConfig(spines=1, leaves=1, servers_per_leaf=1))
        host = fabric.hosts[0]
        leaf = fabric.leaves[0]
        down, nic = leaf.ports[host.id].queue, host.ports[leaf.id].queue
        assert (down.control_lane, down.trim) == (False, False)
        assert (nic.control_lane, nic.trim) == (True, False)

    def test_trimming_flag_swaps_queue_type(self, sim):
        net = Network(sim)
        fabric = build_leafspine(
            net, FabricConfig(spines=1, leaves=1, servers_per_leaf=1), trimming=True
        )
        leaf = fabric.leaves[0]
        host = fabric.hosts[0]
        down, nic = leaf.ports[host.id].queue, host.ports[leaf.id].queue
        assert (down.control_lane, down.trim) == (True, True)
        assert (nic.control_lane, nic.trim) == (True, False)


class TestInterDc:
    def test_paper_scale_counts(self, sim):
        topo = build_interdc(sim, paper_interdc_config())
        assert len(topo.backbone) == 64
        for fabric in topo.fabrics:
            assert len(fabric.spines) == 8
            assert len(fabric.leaves) == 8
            assert len(fabric.hosts) == 64
        # every spine has 8 backbone links
        for fabric in topo.fabrics:
            for spine in fabric.spines:
                bb_neighbors = [n for n in topo.net.adjacency[spine.id]
                                if topo.net.nodes[n].dc == -1]
                assert len(bb_neighbors) == 8
        # every backbone router bridges exactly one spine per DC
        for router in topo.backbone:
            assert len(topo.net.adjacency[router.id]) == 2

    def test_cross_dc_rtt_matches_paper(self, sim):
        topo = build_interdc(sim, paper_interdc_config())
        src = topo.hosts(0)[0]
        dst = topo.hosts(1)[0]
        rtt = topo.net.path_rtt_ps(src.id, dst.id)
        # 2 intra hops + 1ms + 1ms + 2 intra hops, each way.
        assert rtt == 2 * (2 * milliseconds(1) + 4 * microseconds(1))

    def test_intra_dc_rtt_is_microseconds(self, small_topo):
        hosts = small_topo.hosts(0)
        rtt = small_topo.net.path_rtt_ps(hosts[0].id, hosts[1].id)
        assert rtt <= 10 * microseconds(1)

    def test_backbone_ports_use_deep_buffers(self, small_topo):
        cfg = small_topo.cfg
        router = small_topo.backbone[0]
        port = next(iter(router.ports.values()))
        assert port.queue.capacity_bytes == cfg.backbone_queue.capacity_bytes

    def test_trimming_config_propagates(self, sim):
        topo = build_interdc(sim, small_interdc_config().with_trimming(True))
        leaf = topo.fabrics[0].leaves[0]
        host = topo.fabrics[0].hosts[0]
        queue = leaf.ports[host.id].queue
        assert (queue.control_lane, queue.trim) == (True, True)
        router = next(iter(topo.backbone[0].ports.values())).queue
        assert (router.control_lane, router.trim) == (True, True)

    def test_with_backbone_delay_derives_config(self):
        cfg = small_interdc_config().with_backbone_delay(milliseconds(10))
        assert cfg.segment_delays_ps == (milliseconds(10),)
        # original is untouched (frozen dataclasses)
        assert small_interdc_config().segment_delays_ps == (milliseconds(1),)

    def test_all_cross_dc_pairs_routable(self, small_topo):
        net = small_topo.net
        for src in small_topo.hosts(0)[:2]:
            for dst in small_topo.hosts(1)[:2]:
                assert net.min_delay_ps(src.id, dst.id) > 0


class TestConfigValidation:
    def test_backbone_dimensions_must_be_positive(self):
        # A segment has spines * backbone_per_spine routers, so the one
        # backbone dimension left to refuse is an empty one.
        with pytest.raises(ConfigError):
            InterDcConfig(backbone_per_spine=0)
        with pytest.raises(ConfigError):
            InterDcConfig(backbone_rate_bps=0)

    def test_queue_spec_threshold_order(self):
        from repro.config import QueueSpec
        with pytest.raises(ConfigError):
            QueueSpec(kind="ecn", capacity_bytes=100, ecn_low_bytes=90, ecn_high_bytes=10)

    def test_queue_spec_unknown_kind(self):
        from repro.config import QueueSpec
        with pytest.raises(ConfigError):
            QueueSpec(kind="magic", capacity_bytes=100)

    def test_paper_preset_buffer_sizes(self):
        cfg = paper_interdc_config()
        assert cfg.fabric.switch_queue.capacity_bytes == megabytes(17.015)
        assert cfg.fabric.switch_queue.ecn_low_bytes == 33_200
        assert cfg.fabric.switch_queue.ecn_high_bytes == 136_950
        assert cfg.backbone_queue.capacity_bytes == megabytes(49.8)
        assert cfg.backbone_queue.ecn_low_bytes == megabytes(9.96)
        assert cfg.backbone_queue.ecn_high_bytes == megabytes(39.84)

    def test_transport_validation(self):
        from repro.config import TransportConfig
        with pytest.raises(ConfigError):
            TransportConfig(payload_bytes=0)
        with pytest.raises(ConfigError):
            TransportConfig(cc="warp")
        with pytest.raises(ConfigError):
            TransportConfig(dctcp_gain=0)
        with pytest.raises(ConfigError):
            TransportConfig(nack_cut_factor=1.0)
