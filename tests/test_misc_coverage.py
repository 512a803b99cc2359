"""Cross-cutting coverage: error hierarchy, stats snapshots, small accessors,
and a few behavioral corners not covered elsewhere."""

from dataclasses import replace

import pytest

from repro import errors
from repro.config import TransportConfig, small_interdc_config
from repro.detection.lossdetector import DetectorConfig
from repro.experiments.runner import IncastScenario, run_incast
from repro.experiments.sweeps import run_scheme_summary
from repro.net.network import Network
from repro.topology.leafspine import build_leafspine
from repro.transport.connection import Connection
from repro.units import kilobytes, megabytes, microseconds, milliseconds
from tests.conftest import build_pair


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        roots = [
            errors.ConfigError, errors.UnitError, errors.SimulationError,
            errors.SchedulingError, errors.TopologyError, errors.RoutingError,
            errors.TransportError, errors.ProxyError, errors.OrchestrationError,
            errors.WorkloadError, errors.ExperimentError,
        ]
        for cls in roots:
            assert issubclass(cls, errors.ReproError)

    def test_unit_error_is_also_a_value_error(self):
        assert issubclass(errors.UnitError, ValueError)

    def test_scheduling_error_specializes_simulation_error(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)


class TestStatsSnapshots:
    def test_sender_and_receiver_stats_as_dict(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 10_000, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(50))
        snd = conn.sender.stats.as_dict()
        rcv = conn.receiver.stats.as_dict()
        assert snd["data_packets_sent"] == conn.total_packets
        assert rcv["bytes_received"] == 10_000
        assert snd["completed_at"] is not None

    def test_queue_stats_as_dict(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 10_000, transport_cfg)
        conn.start()
        sim.run(until=milliseconds(50))
        snapshot = a.nic.queue.stats.as_dict()
        assert snapshot["enqueued"] >= conn.total_packets
        assert set(snapshot) >= {"dropped", "trimmed", "marked"}

    def test_proxy_stats_as_dict(self, sim):
        from repro.proxy.streamlined import ProxyStats
        stats = ProxyStats()
        stats.data_forwarded = 3
        assert stats.as_dict()["data_forwarded"] == 3


class TestSmallAccessors:
    def test_fabric_host_accessor(self, sim):
        from repro.config import FabricConfig
        net = Network(sim)
        fabric = build_leafspine(net, FabricConfig(spines=1, leaves=1, servers_per_leaf=3))
        assert fabric.host(2) is fabric.hosts[2]

    def test_incast_result_ict_ms(self):
        scenario = IncastScenario(
            degree=2, total_bytes=megabytes(2),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        result = run_incast(scenario)
        assert result.ict_ms == pytest.approx(result.ict_ps / 1e9)

    def test_relay_chain_needs_relays(self, sim, transport_cfg):
        from repro.errors import ProxyError
        from repro.proxy.naive import build_relay_chain
        net, a, b = build_pair(sim)
        with pytest.raises(ProxyError):
            build_relay_chain(net, a, b, 100, transport_cfg, [])


class TestBehavioralCorners:
    def test_degree_one_is_no_incast(self):
        scenario = IncastScenario(
            degree=1, total_bytes=megabytes(8),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        base = run_incast(scenario)
        prox = run_incast(replace(scenario, scheme="streamlined"))
        assert base.completed and prox.completed
        # one flow cannot self-incast: proxy buys nothing
        assert prox.ict_ps == pytest.approx(base.ict_ps, rel=0.2)
        assert base.counters.packets_dropped == 0

    def test_single_tiny_packet_through_proxy(self):
        scenario = IncastScenario(
            degree=1, total_bytes=100, scheme="streamlined",
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        result = run_incast(scenario)
        assert result.completed

    def test_sender_start_is_idempotent(self, sim, transport_cfg):
        net, a, b = build_pair(sim)
        conn = Connection(net, a, b, 5_000, transport_cfg)
        conn.sender.start()
        conn.sender.start()
        sim.run(until=milliseconds(50))
        assert conn.completed
        assert conn.receiver.stats.duplicate_packets == 0

    def test_trimless_scenario_uses_custom_detector(self):
        scenario = IncastScenario(
            degree=4, total_bytes=megabytes(16), scheme="trimless",
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
            detector=DetectorConfig(packet_threshold=4,
                                    reorder_window_ps=microseconds(10)),
        )
        result = run_incast(scenario)
        assert result.completed
        assert result.proxy_nacks_sent > 0

    def test_scheme_summary_uses_distinct_seeds(self):
        scenario = IncastScenario(
            degree=4, total_bytes=megabytes(16),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        summary, results = run_scheme_summary(scenario, reps=3, seed0=10)
        assert [r.scenario.seed for r in results] == [10, 11, 12]
        # spraying differs across seeds -> some ICT spread
        assert summary.ict.maximum > summary.ict.minimum

    def test_collector_caps_per_port_listing(self):
        scenario = IncastScenario(
            degree=4, total_bytes=megabytes(16),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        result = run_incast(scenario)
        assert len(result.counters.per_port_max) <= 16
