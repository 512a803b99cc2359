"""Runtime sanitizer: conservation, invariant checks, sanitized scheme runs."""

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.competitors import COMPETITOR_SCHEMES, install, uninstall
from repro.config import QueueSpec, TransportConfig, small_interdc_config
from repro.detection.lossdetector import GapLossDetector
from repro.errors import SanitizerError
from repro.experiments.runner import (
    SCHEMES,
    IncastScenario,
    RunOptions,
    run_incast,
)
from repro.faults import blackhole_plan
from repro.faults.plan import FaultPlan, LinkDown, LinkUp, ProxyCrash, ProxyRestart
from repro.net.buffers import SharedBuffer, SharedEcnQueue
from repro.net.packet import make_data
from repro.proxy.placement import pick_senders
from repro.proxy.streamlined import StreamlinedProxy
from repro.sim.probe import Probe
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import kilobytes, microseconds, milliseconds, seconds
from tests.conftest import build_pair

#: Insertion order {7, 3, 11, 5} iterates as [11, 3, 5, 7] on CPython —
#: a set whose natural order is unsorted, so the sorted-iteration
#: regression tests below actually discriminate.
SCRAMBLED_FLOWS = (7, 3, 11, 5)


def _scenario(scheme: str, **overrides) -> IncastScenario:
    defaults = dict(
        scheme=scheme,
        degree=4,
        total_bytes=kilobytes(400),
        interdc=small_interdc_config(),
        transport=TransportConfig(max_consecutive_timeouts=8),
        horizon_ps=seconds(2),
    )
    defaults.update(overrides)
    return IncastScenario(**defaults)


class TestInstallation:
    def test_install_returns_self_and_registers(self):
        sim = Simulator(seed=1)
        san = Sanitizer().install(sim)
        assert sim.probe is san

    def test_double_install_raises(self):
        sim = Simulator(seed=1)
        Sanitizer().install(sim)
        with pytest.raises(SanitizerError):
            Sanitizer().install(sim)

    def test_install_on_a_probed_sim_raises(self):
        sim = Simulator(seed=1)
        probe = sim.probe = Probe()
        with pytest.raises(SanitizerError, match="probe"):
            Sanitizer().install(sim)
        assert sim.probe is probe


class TestConservation:
    def test_quiet_pair_run_balances(self, sim):
        net, a, b = build_pair(sim)
        san = Sanitizer().install(sim)
        b.register_handler(1, lambda packet: None)
        a.send(make_data(1, 0, a.id, b.id, 1000))
        sim.run()
        report = san.finish(net)
        assert report.injected_packets == 1
        assert report.delivered_packets == 1
        assert report.in_transit_packets == 0

    def test_packet_smuggled_past_the_nic_trips_conservation(self, sim):
        # Injecting straight into the NIC port bypasses Host.send, the sole
        # accounted injection point: the packet arrives without ever having
        # been injected, which is exactly the imbalance finish() must catch.
        net, a, b = build_pair(sim)
        san = Sanitizer().install(sim)
        assert a.nic is not None
        a.nic.send(make_data(1, 0, a.id, b.id, 1000))
        sim.run()
        with pytest.raises(SanitizerError, match="conservation"):
            san.finish(net)

    def test_clock_backwards_detected_at_pop(self):
        sim = Simulator(seed=1)
        Sanitizer().install(sim)
        # Simulator.schedule_at validates against the past, so sneak the
        # event in through the raw scheduler, from the future looking back.
        sim.schedule(100, lambda: sim.scheduler.schedule_at(50, lambda: None))
        with pytest.raises(SanitizerError, match="backwards"):
            sim.run()


class TestUnitChecks:
    class _Packet:
        size_bytes = 100

    class _Port:
        def __init__(self, queue):
            self.queue = queue

    class _Cc:
        cwnd = 10
        min_cwnd = 1

    class _BrokenSender:
        label = "tx0"
        pipe = -1
        cum_ack = 0
        total_packets = 10
        cc = None

    @staticmethod
    def _overfull(kind, data_bytes, control_bytes):
        """A real queue of ``kind`` (capacity 1 000 B, control lane 100 B)
        whose lanes hold the given bytes, as a broken offer would leave it."""
        queue = QueueSpec(kind=kind, capacity_bytes=1_000,
                          control_capacity_bytes=100).build(None)
        queue.data_bytes = data_bytes
        queue.occupied_bytes = data_bytes + control_bytes
        return queue

    def test_accepted_enqueue_over_capacity_raises(self):
        san = Sanitizer()
        with pytest.raises(SanitizerError, match="queue over capacity"):
            san.on_offer(self._Port(self._overfull("ecn", 1_100, 0)), self._Packet(),
                         False, 100)

    @pytest.mark.parametrize("kind, data_bytes, control_bytes, error", [
        ("ecn", 1_001, 0, "queue over capacity after accepted enqueue: 1001 > 1000"),
        ("host", 1_000, 0, None),
        ("host", 940, 64, "queue over capacity after accepted enqueue: 1004 > 1000"),
        ("trimming", 1_000, 100, None),
        ("trimming", 1_001, 0, "data lane over capacity: 1001 > 1000"),
        ("trimming", 0, 101, "control lane over capacity: 101 > 100"),
    ])
    def test_each_lane_is_held_to_its_bound(self, kind, data_bytes, control_bytes, error):
        port = self._Port(self._overfull(kind, data_bytes, control_bytes))
        san = Sanitizer()
        if error is None:
            san.on_offer(port, self._Packet(), False, 100)
            return
        with pytest.raises(SanitizerError, match=error):
            san.on_offer(port, self._Packet(), False, 100)

    def test_a_shared_pool_is_held_to_its_bound(self):
        pool = SharedBuffer(1_000)
        queue = SharedEcnQueue(pool, 1.0, 0, 0, None)
        pool.occupied_bytes = 1_001
        with pytest.raises(SanitizerError, match="pool over capacity: 1001 > 1000"):
            Sanitizer().on_offer(self._Port(queue), self._Packet(), False, 100)

    def test_negative_pipe_raises(self):
        sender = self._BrokenSender()
        sender.cc = self._Cc()
        with pytest.raises(SanitizerError, match="pipe went negative"):
            Sanitizer().on_ack(sender)

    def test_cwnd_below_floor_raises(self):
        sender = self._BrokenSender()
        sender.pipe = 0
        cc = self._Cc()
        cc.cwnd = 0
        sender.cc = cc
        with pytest.raises(SanitizerError, match="min_cwnd"):
            Sanitizer().on_ack(sender)


@pytest.fixture
def competitors():
    install()
    try:
        yield
    finally:
        uninstall()


class TestSanitizedSchemes:
    @pytest.mark.parametrize("scheme", [*SCHEMES, *COMPETITOR_SCHEMES])
    def test_every_scheme_conserves_packets(self, scheme, competitors):
        result = run_incast(_scenario(scheme), options=RunOptions(sanitize=True))
        assert result.completed  # so it also cleared the physics floor
        tally = result.conservation
        assert tally is not None
        assert tally["injected_packets"] > 0
        assert tally["delivered_packets"] > 0
        # Runs stop the moment the last flow completes, so trailing ACKs may
        # still be serializing; finish() has already proven they balance.
        assert tally["in_transit_packets"] >= 0
        assert tally["checks_passed"] > 0

    def test_unsanitized_run_has_no_tally(self):
        result = run_incast(_scenario("baseline"))
        assert result.conservation is None

    def test_proxy_failover_under_blackhole_conserves(self):
        plan = blackhole_plan(
            at_ps=0, duration_ps=milliseconds(1), drop_fraction=0.3
        )
        result = run_incast(
            _scenario("proxy-failover", faults=plan),
            options=RunOptions(sanitize=True),
        )
        tally = result.conservation
        assert tally is not None
        assert tally["faults_applied"] >= 1
        assert tally["injected_packets"] > 0


class TestFaultPlanConservation:
    """Conservation closes across the fault plans that drop the most: a
    port dropping what it holds when its link goes down mid-delivery, and
    a crashed proxy dropping what reaches it."""

    def test_sanitized_run_survives_link_down_mid_delivery(self):
        plan = FaultPlan((
            LinkDown(at_ps=microseconds(20)),
            LinkUp(at_ps=microseconds(220)),
        ))
        result = run_incast(
            _scenario("streamlined", faults=plan), RunOptions(sanitize=True)
        )
        assert result.counters.packets_lost_to_failures > 0
        assert result.conservation is not None

    def test_sanitized_run_survives_proxy_crash_holding_a_batch(self):
        plan = FaultPlan((
            ProxyCrash(at_ps=microseconds(30), proxy="primary"),
            ProxyRestart(at_ps=microseconds(230), proxy="primary"),
        ))
        result = run_incast(
            _scenario("streamlined", faults=plan), RunOptions(sanitize=True)
        )
        assert result.conservation is not None


class TestPhysicsFloor:
    def test_a_completed_sanitized_cell_is_held_to_it(self, monkeypatch):
        seen = []
        check = Sanitizer.check_ict_floor
        monkeypatch.setattr(
            Sanitizer, "check_ict_floor",
            lambda self, *args: (seen.append(args[-1]), check(self, *args)),
        )
        result = run_incast(_scenario("baseline"), options=RunOptions(sanitize=True))
        assert seen == [result.ict_ps]

    def test_an_ict_below_the_floor_raises(self):
        cfg = small_interdc_config()
        topo = build_interdc(Simulator(seed=0), cfg)
        receiver = topo.fabrics[1].hosts[0]
        senders = pick_senders(topo.fabrics[0], 4)
        # 400 kB at 100 Gb/s is 32 us.  The shortest path is four 1 us
        # fabric hops (host-leaf-spine at each end) and two backbone links
        # (spine-router-spine).
        assert cfg.fabric.link_rate_bps == 100e9
        assert cfg.fabric.link_delay_ps == microseconds(1)
        floor = microseconds(32 + 4) + 2 * cfg.segment_delays_ps[0]
        sanitizer = Sanitizer()
        sanitizer.check_ict_floor(
            topo.net, senders, receiver, kilobytes(400), floor
        )
        with pytest.raises(SanitizerError, match="physics floor"):
            sanitizer.check_ict_floor(
                topo.net, senders, receiver, kilobytes(400), floor - 1
            )


class TestSortedFlowChurn:
    """Proxy crash/restart must walk flows in sorted order (regression).

    ``crash()``/``restart()`` used to iterate ``self.flows`` (a set)
    directly, making handler and detector churn depend on hash order.
    """

    @pytest.mark.parametrize(
        "with_detector", [False, True], ids=["StreamlinedProxy", "detector"]
    )
    def test_crash_and_restart_iterate_sorted(self, sim, with_detector, monkeypatch):
        net, a, b = build_pair(sim)
        proxy = StreamlinedProxy(
            sim, a, detector=GapLossDetector() if with_detector else None
        )
        for flow_id in SCRAMBLED_FLOWS:
            proxy.attach_flow(flow_id)

        unregistered: list[int] = []
        registered: list[int] = []
        orig_unregister = a.unregister_handler
        orig_register = a.register_handler

        def record_unregister(flow_id):
            unregistered.append(flow_id)
            orig_unregister(flow_id)

        def record_register(flow_id, handler):
            registered.append(flow_id)
            orig_register(flow_id, handler)

        monkeypatch.setattr(a, "unregister_handler", record_unregister)
        monkeypatch.setattr(a, "register_handler", record_register)

        proxy.crash()
        assert unregistered == sorted(SCRAMBLED_FLOWS)
        proxy.restart()
        assert registered == sorted(SCRAMBLED_FLOWS)
