"""Multi-DC chains and cascaded relays."""

from dataclasses import replace

import pytest

from repro.config import InterDcConfig, TransportConfig, small_interdc_config
from repro.errors import ConfigError, ExperimentError, ProxyError
from repro.experiments.cascade import CascadeRun, CascadeScenario, run_cascade
from repro.experiments.runner import IncastScenario, run_incast
from repro.proxy.naive import build_relay_chain
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.probe import Probe
from repro.sim.simulator import Simulator
from repro.telemetry.options import RunOptions
from repro.topology.interdc import build_interdc
from repro.units import kilobytes, megabytes, milliseconds, seconds


def small_chain(segments=(milliseconds(1), milliseconds(10))) -> InterDcConfig:
    """The small two-DC config stretched to a line of ``len(segments) + 1``."""
    return replace(small_interdc_config(), segment_delays_ps=segments)


@pytest.fixture()
def scenario():
    return CascadeScenario(
        degree=4, total_bytes=megabytes(12), chain=small_chain(),
        transport=TransportConfig(payload_bytes=4096),
    )


class TestMultiDcTopology:
    def test_chain_dimensions(self, sim):
        topo = build_interdc(sim, small_chain())
        assert len(topo.fabrics) == 3
        # One flat backbone in build order, named by its global index;
        # each segment's routers are a contiguous run of it.
        assert [r.name for r in topo.backbone] == [f"bb{i}" for i in range(8)]
        assert topo.segment_backbone(0) == topo.backbone[:4]
        assert topo.segment_backbone(1) == topo.backbone[4:]
        for segment, delay in enumerate(small_chain().segment_delays_ps):
            left, right = topo.fabrics[segment], topo.fabrics[segment + 1]
            for router in topo.segment_backbone(segment):
                spines = [topo.net.nodes[n] for n in topo.net.adjacency[router.id]]
                assert spines[0] in left.spines and spines[1] in right.spines
                assert all(topo.net.edge_delay_ps(router.id, s.id) == delay
                           for s in spines)

    def test_one_segment_line_is_the_two_dc_topology(self):
        def fingerprint(cfg):
            sim = Simulator(seed=5)
            net = build_interdc(sim, cfg).net
            nodes = [(n.id, n.name, type(n).__name__, n.dc) for n in net.nodes.values()]
            ports = [
                (n.id, port.name, net.edge_rate_bps(n.id, peer),
                 net.edge_delay_ps(n.id, peer), type(port.queue).__name__)
                for n in net.nodes.values() for peer, port in n.ports.items()
            ]
            return nodes, ports, len(sim.rng)

        for trimming in (False, True):
            two_dc = small_interdc_config().with_trimming(trimming)
            line = small_chain((milliseconds(1),)).with_trimming(trimming)
            assert fingerprint(line) == fingerprint(two_dc)
            assert fingerprint(small_chain()) != fingerprint(two_dc)

    def test_end_to_end_delay_sums_segments(self, sim):
        topo = build_interdc(sim, small_chain())
        src = topo.hosts(0)[0]
        dst = topo.hosts(2)[0]
        one_way = topo.net.min_delay_ps(src.id, dst.id)
        # 2 long-haul hops per segment + intra-DC hops
        assert one_way > 2 * (milliseconds(1) + milliseconds(10))
        assert one_way < 2 * (milliseconds(1) + milliseconds(10)) + milliseconds(1)

    def test_all_dc_pairs_routable(self, sim):
        topo = build_interdc(sim, small_chain())
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert topo.net.min_delay_ps(
                        topo.hosts(a)[0].id, topo.hosts(b)[0].id
                    ) > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            InterDcConfig(segment_delays_ps=())
        with pytest.raises(ConfigError):
            InterDcConfig(segment_delays_ps=(-1,))
        with pytest.raises(ConfigError):
            InterDcConfig(segment_delays_ps=[milliseconds(1)])

    def test_backbone_delay_is_refused_on_a_longer_line(self):
        # A two-segment line has no single backbone delay to replace.
        with pytest.raises(ConfigError, match="one-segment line"):
            small_chain().with_backbone_delay(milliseconds(5))


class _Receivers(Probe):
    """Every receiver the run builds."""

    def __init__(self):
        self.receivers = []

    def on_receiver(self, receiver):
        self.receivers.append(receiver)


class TestIncastOnALine:
    @pytest.mark.parametrize("scheme", ["baseline", "naive", "streamlined"])
    def test_an_incast_runs_to_a_receiver_in_the_last_dc(self, scheme):
        scenario = IncastScenario(
            scheme=scheme, degree=4, total_bytes=kilobytes(400),
            interdc=small_chain(), horizon_ps=seconds(5),
        )
        probe = _Receivers()
        result = run_incast(scenario, RunOptions(sanitize=True, probe=probe))
        assert result.completed and result.failed_flows == 0
        # Every byte reaches DC 2, so the flows cross both segments.
        far = [r for r in probe.receivers if r.host.dc == 2]
        assert sum(r.stats.bytes_received for r in far) == scenario.total_bytes
        assert result.ict_ps > 2 * sum(scenario.interdc.segment_delays_ps)
        # sanitized: exact conservation and the ICT floor held on the line
        assert result.conservation["checks_passed"] > 0


class TestRelayChain:
    def test_chain_delivers_everything(self, sim, transport_cfg):
        topo = build_interdc(sim, small_chain())
        src = topo.hosts(0)[0]
        relay0 = topo.hosts(0)[-1]
        relay1 = topo.hosts(1)[0]
        dst = topo.hosts(2)[0]
        done = []
        chain = build_relay_chain(
            topo.net, src, dst, 100_000, transport_cfg, [relay0, relay1],
            on_complete=lambda r: done.append(sim.now),
        )
        chain.start()
        sim.run(until=milliseconds(500))
        assert chain.completed and done
        assert chain.hops == 3
        assert chain.legs[-1].receiver.stats.bytes_received == 100_000

    def test_intermediate_backlogs_drain(self, sim, transport_cfg):
        topo = build_interdc(sim, small_chain())
        chain = build_relay_chain(
            topo.net, topo.hosts(0)[0], topo.hosts(2)[0], 50_000, transport_cfg,
            [topo.hosts(0)[-1], topo.hosts(1)[0]],
        )
        chain.start()
        sim.run(until=milliseconds(500))
        assert chain.completed
        assert chain.backlog_packets(0) == 0
        assert chain.backlog_packets(1) == 0

    def test_per_leg_windows_match_segment_bdp(self, sim, transport_cfg):
        topo = build_interdc(sim, small_chain())
        chain = build_relay_chain(
            topo.net, topo.hosts(0)[0], topo.hosts(2)[0], 50_000, transport_cfg,
            [topo.hosts(0)[-1], topo.hosts(1)[0]],
        )
        # hop 0 is intra-DC (tiny window); hop 2 spans the 10 ms segment
        assert chain.legs[0].cc.cwnd < chain.legs[1].cc.cwnd < chain.legs[2].cc.cwnd

    def test_a_mid_transfer_chain_resumes_from_a_checkpoint(
        self, sim, transport_cfg, tmp_path
    ):
        # Each leg relays through partial(_relay_one, next_leg.sender), so
        # the whole graph pickles by reference: no local closure in it.
        topo = build_interdc(sim, small_chain())
        chain = build_relay_chain(
            topo.net, topo.hosts(0)[0], topo.hosts(2)[0], 100_000, transport_cfg,
            [topo.hosts(0)[-1], topo.hosts(1)[0]],
        )
        chain.start()
        while not 0 < chain.legs[1].receiver.stats.bytes_received < 100_000:
            sim.run(max_events=97)
        path = save_checkpoint(tmp_path / "chain.ckpt", (sim, topo, chain))
        restored_sim, _, restored = load_checkpoint(path)

        finished = []
        for run_sim, run_chain in ((sim, chain), (restored_sim, restored)):
            run_sim.run(until=milliseconds(500))
            stats = run_chain.legs[-1].receiver.stats
            assert run_chain.completed
            finished.append((stats.completed_at, stats.bytes_received))
        assert finished[0] == finished[1]
        assert finished[0][1] == 100_000

    def test_chain_validation(self, sim, transport_cfg):
        topo = build_interdc(sim, small_chain())
        with pytest.raises(ProxyError):
            build_relay_chain(topo.net, topo.hosts(0)[0], topo.hosts(2)[0],
                              1000, transport_cfg, [])
        with pytest.raises(ProxyError):
            build_relay_chain(topo.net, topo.hosts(0)[0], topo.hosts(2)[0],
                              1000, transport_cfg,
                              [topo.hosts(0)[0]])  # relay == src


class TestCascadeExperiment:
    def test_all_schemes_complete(self, scenario):
        for scheme in ("baseline", "edge", "cascade"):
            result = run_cascade(replace(scenario, scheme=scheme))
            assert result.completed, scheme

    def test_relay_counts(self, scenario):
        assert run_cascade(replace(scenario, scheme="baseline")).relays_used == 0
        assert run_cascade(replace(scenario, scheme="edge")).relays_used == 1
        assert run_cascade(replace(scenario, scheme="cascade")).relays_used == 2

    def test_proxies_beat_baseline_on_chain(self, scenario):
        baseline = run_cascade(scenario if scenario.scheme == "baseline"
                               else replace(scenario, scheme="baseline"))
        edge = run_cascade(replace(scenario, scheme="edge"))
        cascade = run_cascade(replace(scenario, scheme="cascade"))
        assert edge.ict_ps < 0.5 * baseline.ict_ps
        assert cascade.ict_ps < 0.5 * baseline.ict_ps

    def test_cascade_recovers_near_segment_blips_locally(self, scenario):
        """The extension's claim: a blip on the first long segment is repaired
        from the DC0 relay over ~2 ms by the cascade, but over the full
        end-to-end RTT by the edge-only design."""
        blip = (0, milliseconds(1), milliseconds(3))
        # 16 MB keeps traffic crossing segment 0 when the blip lands.
        edge = run_cascade(replace(scenario, scheme="edge", blip=blip,
                                   total_bytes=megabytes(16)))
        cascade = run_cascade(replace(scenario, scheme="cascade", blip=blip,
                                      total_bytes=megabytes(16)))
        assert cascade.completed and edge.completed
        assert cascade.ict_ps < 0.5 * edge.ict_ps

    def test_blip_validation(self, scenario):
        with pytest.raises(ExperimentError):
            replace(scenario, blip=(7, 0, 1))
        # Both used to pass construction and fail mid-run, after the chain
        # was built and every connection started.
        with pytest.raises(ExperimentError):
            replace(scenario, blip=(0, milliseconds(1), 0))
        with pytest.raises(ExperimentError):
            replace(scenario, blip=(0, -5, milliseconds(1)))

    def test_scheme_validation(self, scenario):
        with pytest.raises(ExperimentError):
            replace(scenario, scheme="relay-everything")

    def test_a_blipped_run_resumes_from_a_mid_transfer_checkpoint(
        self, scenario, tmp_path
    ):
        # The blip is a LinkDown/LinkUp plan armed through the fault
        # injector, so its pending events pickle by reference.  Save after
        # the link went down and before it comes back up, with bytes still
        # crossing every leg.
        blipped = replace(scenario, blip=(1, milliseconds(10), milliseconds(5)))
        run = CascadeRun(blipped)
        run.sim.run(until=milliseconds(12))
        assert run.net.down_links() and run.remaining == blipped.degree
        path = save_checkpoint(tmp_path / "cascade.ckpt", run)
        restored = load_checkpoint(path)

        outcomes = []
        for each in (run, restored):
            each.sim.run(until=blipped.horizon_ps)
            result = each.result()
            assert result.completed and not each.net.down_links()
            legs = [
                (leg.sender.stats.data_packets_sent, leg.receiver.stats.bytes_received)
                for flow in each.flows for leg in flow.legs
            ]
            outcomes.append((result.ict_ps, legs, result.counters))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == run_cascade(blipped).ict_ps
