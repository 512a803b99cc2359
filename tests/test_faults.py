"""Fault injection: plans, the injector, crash semantics, and failover."""

from dataclasses import replace

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError, ExperimentError, FaultError
from repro.experiments.runner import IncastScenario, run_incast
from repro.faults import (
    BufferDegrade,
    CrashRun,
    FailoverConfig,
    FaultContext,
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkUp,
    PacketBlackhole,
    PacketCorrupt,
    ProxyCrash,
    ProxyRestart,
    StallRun,
    arm_faults,
    blackhole_plan,
    link_flap_plan,
    merge_plans,
    proxy_crash_plan,
)
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import kilobytes, microseconds, milliseconds, seconds


def _fault_scenario(scheme: str, **overrides) -> IncastScenario:
    """Small, fast scenario with a bounded give-up point."""
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


class TestFaultPlan:
    def test_json_round_trip_preserves_events(self):
        plan = merge_plans(
            proxy_crash_plan(at_ps=microseconds(10), restart_after_ps=microseconds(50)),
            blackhole_plan(at_ps=0, duration_ps=milliseconds(1), drop_fraction=0.25),
            link_flap_plan("backbone:0", at_ps=microseconds(5), duration_ps=microseconds(5)),
            FaultPlan((PacketCorrupt(at_ps=1, duration_ps=2, corrupt_fraction=0.5),
                       BufferDegrade(at_ps=3, duration_ps=4, factor=0.5))),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.sorted_events() == plan.sorted_events()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"events": [{"kind": "MeteorStrike", "at_ps": 0}]})

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict(
                {"events": [{"kind": "LinkDown", "at_ps": 0, "bogus": 1}]}
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LinkDown(at_ps=-1),
            lambda: PacketBlackhole(at_ps=0, duration_ps=0),
            lambda: PacketBlackhole(at_ps=0, duration_ps=1, drop_fraction=0.0),
            lambda: PacketBlackhole(at_ps=0, duration_ps=1, drop_fraction=1.5),
            lambda: PacketCorrupt(at_ps=0, duration_ps=1, corrupt_fraction=0.0),
            lambda: BufferDegrade(at_ps=0, duration_ps=1, factor=0.0),
            lambda: BufferDegrade(at_ps=0, duration_ps=1, factor=1.5),
            lambda: ProxyCrash(at_ps=0, proxy="tertiary"),
            lambda: StallRun(at_ps=0, wall_seconds=0.0),
        ],
    )
    def test_malformed_events_raise_at_construction(self, build):
        with pytest.raises(ConfigError):
            build()

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert len(FaultPlan()) == 0
        assert bool(proxy_crash_plan(at_ps=0))

    def test_scenario_rejects_non_plan_faults(self):
        with pytest.raises(ExperimentError):
            _fault_scenario("baseline", faults=[LinkDown(at_ps=0)])


class TestInjectorTargets:
    def _ctx(self):
        sim = Simulator(seed=0)
        topo = build_interdc(sim, small_interdc_config())
        return sim, FaultContext(topo.net, backbone=topo.backbone)

    def test_malformed_target_rejected_at_arm_time(self):
        sim, ctx = self._ctx()
        plan = FaultPlan((PacketBlackhole(at_ps=0, duration_ps=1, target="nonsense"),))
        with pytest.raises(FaultError):
            FaultInjector(sim, plan, ctx).arm()

    def test_bad_index_rejected(self):
        sim, ctx = self._ctx()
        plan = FaultPlan((LinkDown(at_ps=0, link="sender:x"),))
        with pytest.raises(FaultError):
            FaultInjector(sim, plan, ctx).arm()

    def test_double_arm_rejected(self):
        sim, ctx = self._ctx()
        injector = FaultInjector(sim, proxy_crash_plan(at_ps=0), ctx)
        injector.arm()
        with pytest.raises(FaultError):
            injector.arm()

    def test_backbone_target_resolves_both_directions(self):
        _, ctx = self._ctx()
        links = ctx.resolve_links("backbone")
        ports = ctx.resolve_ports("backbone")
        assert links and len(ports) == 2 * len(links)

    def test_backbone_link_target_names_one_link_of_one_router(self):
        _, ctx = self._ctx()
        router = ctx.backbone[1]
        peers = ctx.net.adjacency[router.id]
        assert ctx.resolve_links("backbone:1") == [(router.id, p) for p in peers]
        for j, peer in enumerate(peers):
            assert ctx.resolve_links(f"backbone:1:{j}") == [(router.id, peer)]
            assert len(ctx.resolve_ports(f"backbone:1:{j}")) == 2
        # A link or router this topology lacks is skipped, not an error.
        assert ctx.resolve_links(f"backbone:1:{len(peers)}") == []
        assert ctx.resolve_links(f"backbone:{len(ctx.backbone)}:0") == []

    def test_absent_role_is_skipped_not_an_error(self):
        # "proxy" under baseline names a role this run does not have.
        result = run_incast(
            _fault_scenario("baseline", faults=proxy_crash_plan(at_ps=microseconds(10)))
        )
        assert result.fault_events_applied == 0
        assert result.fault_events_skipped == 1
        assert result.completed

    def test_arm_faults_returns_none_for_empty_plan(self):
        sim, ctx = self._ctx()
        assert arm_faults(sim, FaultPlan(), ctx) is None
        assert arm_faults(sim, None, ctx) is None


class TestFaultBehavior:
    def test_total_blackhole_fails_flows_in_bounded_time(self):
        # 100% drop on the backbone for the whole horizon: every sender
        # exhausts max_consecutive_timeouts and declares its flow failed.
        plan = blackhole_plan(at_ps=0, duration_ps=seconds(2), drop_fraction=1.0)
        result = run_incast(_fault_scenario("baseline", faults=plan))
        assert not result.completed
        assert result.failed_flows == 4
        assert result.counters.packets_blackholed > 0
        # the run ended by give-up, not by grinding to the horizon
        assert result.timeouts == 4 * 8

    def test_partial_blackhole_recovers(self):
        plan = blackhole_plan(
            at_ps=0, duration_ps=milliseconds(50), drop_fraction=0.05
        )
        clean = run_incast(_fault_scenario("baseline"))
        faulty = run_incast(_fault_scenario("baseline", faults=plan))
        assert faulty.completed
        assert faulty.counters.packets_blackholed > 0
        assert faulty.ict_ps > clean.ict_ps

    def test_corruption_burns_bandwidth_but_is_dropped_at_host(self):
        # The window must cover the first burst's *arrival* at the receiver
        # access link, one backbone delay (~1ms) after the start of the run.
        plan = FaultPlan((
            PacketCorrupt(
                at_ps=0, duration_ps=milliseconds(3),
                corrupt_fraction=1.0, target="receiver",
            ),
        ))
        result = run_incast(_fault_scenario("baseline", faults=plan))
        assert result.completed
        assert result.counters.packets_corrupted > 0
        assert result.counters.corrupt_drops > 0

    def test_link_flap_recovers(self):
        plan = link_flap_plan("backbone", at_ps=0, duration_ps=milliseconds(1))
        clean = run_incast(_fault_scenario("baseline"))
        flapped = run_incast(_fault_scenario("baseline", faults=plan))
        assert flapped.completed
        assert flapped.ict_ps > clean.ict_ps

    def test_buffer_degrade_shrinks_and_restores_capacity(self):
        sim = Simulator(seed=0)
        topo = build_interdc(sim, small_interdc_config())
        ctx = FaultContext(topo.net, receiver_host=topo.fabrics[1].hosts[0])
        ports = ctx.resolve_ports("receiver")
        assert ports
        original = [p.queue.capacity_bytes for p in ports]
        plan = FaultPlan((
            BufferDegrade(at_ps=0, duration_ps=microseconds(10),
                          factor=0.5, target="receiver"),
            BufferDegrade(at_ps=microseconds(2), duration_ps=microseconds(4),
                          factor=0.5, target="receiver"),
        ))
        FaultInjector(sim, plan, ctx).arm()
        sim.run(until=microseconds(3))
        # both windows active: capacity scaled by 0.5 * 0.5
        assert all(
            p.queue.capacity_bytes == max(1, round(orig * 0.25))
            for p, orig in zip(ports, original)
        )
        sim.run(until=microseconds(8))
        assert all(
            p.queue.capacity_bytes == max(1, round(orig * 0.5))
            for p, orig in zip(ports, original)
        )
        sim.run(until=microseconds(20))
        assert [p.queue.capacity_bytes for p in ports] == original

    def test_deterministic_across_identical_runs(self):
        plan = blackhole_plan(at_ps=0, duration_ps=milliseconds(50), drop_fraction=0.1)
        a = run_incast(_fault_scenario("streamlined", faults=plan, seed=5))
        b = run_incast(_fault_scenario("streamlined", faults=plan, seed=5))
        assert a.ict_ps == b.ict_ps
        assert a.events_executed == b.events_executed
        assert a.counters.packets_blackholed == b.counters.packets_blackholed


class TestProxyCrashSemantics:
    CRASH_AT = microseconds(10)  # inside the first transmission burst

    def test_streamlined_crash_without_restart_fails_flows(self):
        result = run_incast(
            _fault_scenario("streamlined", faults=proxy_crash_plan(at_ps=self.CRASH_AT))
        )
        assert not result.completed
        assert result.failed_flows == 4

    def test_streamlined_restart_recovers_flows(self):
        plan = proxy_crash_plan(
            at_ps=self.CRASH_AT, restart_after_ps=milliseconds(1)
        )
        result = run_incast(_fault_scenario("streamlined", faults=plan))
        assert result.completed
        assert result.failed_flows == 0
        assert result.fault_events_applied == 2

    def test_trimless_restart_recovers_flows(self):
        plan = proxy_crash_plan(
            at_ps=self.CRASH_AT, restart_after_ps=milliseconds(1)
        )
        result = run_incast(_fault_scenario("trimless", faults=plan))
        assert result.completed

    def test_naive_crash_kills_flows_even_with_restart(self):
        # Split-connection state is process memory: restarting the proxy
        # does not resurrect relays that were in flight.
        plan = proxy_crash_plan(
            at_ps=self.CRASH_AT, restart_after_ps=microseconds(50)
        )
        result = run_incast(_fault_scenario("naive", faults=plan))
        assert not result.completed
        assert result.failed_flows == 4

    def test_crash_after_completion_changes_nothing(self):
        clean = run_incast(_fault_scenario("streamlined"))
        late = run_incast(
            _fault_scenario(
                "streamlined",
                faults=proxy_crash_plan(at_ps=clean.ict_ps + microseconds(1)),
                horizon_ps=clean.ict_ps + microseconds(10),
            )
        )
        assert late.completed
        assert late.ict_ps == clean.ict_ps


class TestProxyFailover:
    def test_failover_config_validation(self):
        with pytest.raises(ConfigError):
            FailoverConfig(probe_interval_ps=0)
        with pytest.raises(ConfigError):
            FailoverConfig(probe_interval_ps=10, detection_timeout_ps=5)

    def test_healthy_run_never_migrates(self):
        result = run_incast(_fault_scenario("proxy-failover"))
        assert result.completed
        assert result.failovers == 0

    def test_crash_triggers_migration_and_completion(self):
        result = run_incast(
            _fault_scenario(
                "proxy-failover", faults=proxy_crash_plan(at_ps=microseconds(10))
            )
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.failovers == 1
        # recovery costs detection + retransmission, far less than the horizon
        assert result.ict_ps < milliseconds(100)

    def test_failover_beats_giving_up(self):
        crash = proxy_crash_plan(at_ps=microseconds(10))
        stranded = run_incast(_fault_scenario("streamlined", faults=crash))
        failover = run_incast(_fault_scenario("proxy-failover", faults=crash))
        assert not stranded.completed
        assert failover.completed
        assert failover.ict_ps < stranded.ict_ps

    def test_crash_targeting_backup_is_survivable(self):
        plan = FaultPlan((ProxyCrash(at_ps=microseconds(10), proxy="backup"),))
        result = run_incast(_fault_scenario("proxy-failover", faults=plan))
        assert result.completed
        assert result.failovers == 0
        assert result.fault_events_applied == 1

    def test_backup_crash_is_skipped_for_single_proxy_schemes(self):
        plan = FaultPlan((ProxyCrash(at_ps=microseconds(10), proxy="backup"),))
        result = run_incast(_fault_scenario("streamlined", faults=plan))
        assert result.completed
        assert result.fault_events_skipped == 1


#: Tight pool timings so detection, migration, restart, and fail-back all
#: land inside one small incast (mirrors the recovery sweep's settings).
_FAST_POOL = FailoverConfig(
    probe_interval_ps=microseconds(50),
    detection_timeout_ps=microseconds(100),
    failback_stabilization_ps=microseconds(100),
)


class TestFailbackAndDegrade:
    """The pool manager past its first migration: fail-back when the
    primary returns, degrade to direct when the whole pool is dead."""

    def test_primary_restart_wins_flows_back(self):
        # Crash -> detect -> migrate -> restart -> stabilize -> fail back.
        # The old manager stopped probing after the first migration, so
        # this ordering silently pinned flows to the backup forever.
        plan = proxy_crash_plan(
            at_ps=microseconds(10), restart_after_ps=microseconds(300)
        )
        result = run_incast(
            _fault_scenario("proxy-failover", faults=plan, failover=_FAST_POOL)
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.failovers == 1
        assert result.failbacks == 1
        assert result.proxy_degrades == 0

    def test_restart_before_detection_prevents_migration(self):
        # The restart lands inside the detection window: the streak resets
        # and no migration (or fail-back) ever happens.
        plan = proxy_crash_plan(
            at_ps=microseconds(10), restart_after_ps=microseconds(20)
        )
        result = run_incast(
            _fault_scenario("proxy-failover", faults=plan, failover=_FAST_POOL)
        )
        assert result.completed
        assert result.failovers == 0
        assert result.failbacks == 0

    def test_backup_crash_after_migration_degrades_to_direct(self):
        # Crash the primary, migrate, then crash the backup too: with no
        # live member left the manager must strip the detour and let the
        # flows run direct rather than stranding them on a dead proxy.
        plan = FaultPlan((
            ProxyCrash(at_ps=microseconds(10), proxy="primary"),
            ProxyCrash(at_ps=microseconds(400), proxy="backup"),
        ))
        result = run_incast(
            _fault_scenario("proxy-failover", faults=plan, failover=_FAST_POOL)
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.failovers == 1
        assert result.proxy_degrades == 1

    def test_backup_first_then_primary_degrades_without_migration(self):
        # Reverse ordering: the backup dies while idle, then the primary
        # dies too.  No live target exists at detection time, so the pool
        # degrades straight to direct instead of migrating.
        plan = FaultPlan((
            ProxyCrash(at_ps=microseconds(10), proxy="backup"),
            ProxyCrash(at_ps=microseconds(60), proxy="primary"),
        ))
        result = run_incast(
            _fault_scenario("proxy-failover", faults=plan, failover=_FAST_POOL)
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.failovers == 0
        assert result.proxy_degrades == 1

    def test_stabilization_validation(self):
        with pytest.raises(ConfigError):
            FailoverConfig(
                probe_interval_ps=microseconds(50),
                detection_timeout_ps=microseconds(100),
                failback_stabilization_ps=microseconds(10),
            )


class TestFaultPlanLinkValidation:
    """Contradictory link timelines are rejected at construction."""

    def test_duplicate_linkdown_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan((
                LinkDown(at_ps=0, link="backbone:0"),
                LinkDown(at_ps=10, link="backbone:0"),
            ))

    def test_linkup_without_linkdown_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan((LinkUp(at_ps=10, link="backbone:0"),))

    def test_down_up_down_is_valid(self):
        plan = FaultPlan((
            LinkDown(at_ps=0, link="backbone:0"),
            LinkUp(at_ps=10, link="backbone:0"),
            LinkDown(at_ps=20, link="backbone:0"),
        ))
        assert len(plan.sorted_events()) == 3

    def test_distinct_targets_are_independent(self):
        plan = FaultPlan((
            LinkDown(at_ps=0, link="backbone:0"),
            LinkDown(at_ps=0, link="backbone:1"),
        ))
        assert len(plan.sorted_events()) == 2

    def test_validation_uses_time_order_not_tuple_order(self):
        # Events may be listed out of order; the timeline is what counts.
        plan = FaultPlan((
            LinkUp(at_ps=10, link="backbone:0"),
            LinkDown(at_ps=0, link="backbone:0"),
        ))
        assert len(plan.sorted_events()) == 2

    def test_repeated_crash_restart_cycles_are_idempotent_not_errors(self):
        # Proxy timelines stay idempotent by design (documented on the
        # plan): a second crash of a crashed proxy is a no-op, not a bug.
        plan = FaultPlan((
            ProxyCrash(at_ps=0, proxy="primary"),
            ProxyCrash(at_ps=10, proxy="primary"),
        ))
        assert len(plan.sorted_events()) == 2
