"""Competitor scheme plug-ins: registry lifecycle, routing lanes, detection."""

import random
from types import SimpleNamespace

import pytest

from repro.competitors import COMPETITOR_SCHEMES, install, installed, uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError, RoutingError
from repro.experiments.runner import SCHEMES, IncastScenario, run_incast
from repro.net.routing import DisjointSprayRouting, install_disjoint_spray
from repro.patterns import (
    DETECTION_BACKENDS,
    DetectorSettings,
    DistributedIncastDetector,
    LocalIncastSketch,
    OnlineIncastDetector,
    SketchSettings,
    make_detection_backend,
)
from repro.schemes import SCHEME_REGISTRY, SchemeRegistry
from repro.units import kilobytes, microseconds, milliseconds


@pytest.fixture
def competitors():
    """Install the competitor schemes, and always tear them down again."""
    install()
    try:
        yield
    finally:
        uninstall()


def _scenario(scheme, degree=2, total_bytes=kilobytes(100)):
    return IncastScenario(
        degree=degree,
        total_bytes=total_bytes,
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
        scheme=scheme,
    )


class TestInstallLifecycle:
    def test_install_registers_all_then_uninstall_restores(self):
        before = SCHEME_REGISTRY.names()
        installed = install()
        try:
            assert installed == COMPETITOR_SCHEMES
            for name in COMPETITOR_SCHEMES:
                assert name in SCHEME_REGISTRY
        finally:
            uninstall()
        assert SCHEME_REGISTRY.names() == before == SCHEMES

    def test_install_is_idempotent(self):
        assert install() == COMPETITOR_SCHEMES
        try:
            assert install() == ()  # second call registers nothing new
        finally:
            uninstall()

    def test_install_into_private_registry_leaves_global_alone(self):
        registry = SchemeRegistry()
        assert install(registry=registry) == COMPETITOR_SCHEMES
        assert len(registry) == len(COMPETITOR_SCHEMES)
        for name in COMPETITOR_SCHEMES:
            assert name not in SCHEME_REGISTRY

    def test_installed_removes_only_what_it_added(self):
        with installed() as names:
            assert names == COMPETITOR_SCHEMES
            assert all(name in SCHEME_REGISTRY for name in names)
        assert SCHEME_REGISTRY.names() == SCHEMES
        install()
        try:
            with installed() as names:
                assert names == ()  # already registered: not its to remove
            assert all(name in SCHEME_REGISTRY for name in COMPETITOR_SCHEMES)
        finally:
            uninstall()

    def test_uninstall_is_safe_when_not_installed(self):
        uninstall()  # no-op: unregister tolerates absent names
        assert SCHEME_REGISTRY.names() == SCHEMES


class TestDisjointSprayRouting:
    TABLES = {0: {9: [10, 11, 12, 13]}}

    def _switch(self):
        return SimpleNamespace(id=0, spray_rng=random.Random(7), routing=None)

    def test_needs_at_least_two_lanes(self):
        with pytest.raises(RoutingError):
            DisjointSprayRouting(self.TABLES, lanes=1)

    def test_assigned_flows_stay_inside_their_lane(self):
        routing = DisjointSprayRouting(self.TABLES, lanes=2)
        routing.assign_lane(1, 0)
        routing.assign_lane(2, 1)
        switch = self._switch()
        lane0 = {routing.next_hop(switch, SimpleNamespace(flow_id=1, dst=9))
                 for _ in range(64)}
        lane1 = {routing.next_hop(switch, SimpleNamespace(flow_id=2, dst=9))
                 for _ in range(64)}
        assert lane0 == {10, 12}
        assert lane1 == {11, 13}

    def test_unassigned_flows_spray_over_every_hop(self):
        routing = DisjointSprayRouting(self.TABLES, lanes=2)
        switch = self._switch()
        seen = {routing.next_hop(switch, SimpleNamespace(flow_id=3, dst=9))
                for _ in range(128)}
        assert seen == {10, 11, 12, 13}

    def test_lane_collapses_to_full_set_when_subset_empty(self):
        # One candidate hop: every lane beyond the first would be empty,
        # so the lane constraint falls back to the full option set.
        routing = DisjointSprayRouting({0: {9: [10]}}, lanes=4)
        routing.assign_lane(5, 3)
        switch = self._switch()
        assert routing.next_hop(switch, SimpleNamespace(flow_id=5, dst=9)) == 10

    def test_install_requires_finalized_network(self):
        net = SimpleNamespace(switches=[SimpleNamespace(routing=None)])
        with pytest.raises(RoutingError):
            install_disjoint_spray(net)


class TestDistributedDetector:
    def _settings(self):
        return DetectorSettings(
            window_ps=milliseconds(1),
            min_sources=3,
            min_bytes=30_000,
            cooldown_ps=milliseconds(5),
        )

    def test_sketch_counts_distinct_sources(self):
        sketch = LocalIncastSketch(SketchSettings())
        for src in (1, 2, 3, 1, 2):
            sketch.observe(microseconds(10), src, dst=9, nbytes=1000)
        bitmap, total = sketch.snapshot(microseconds(10), 9)
        assert bin(bitmap).count("1") == 3
        assert total == 5000

    def test_merged_sketches_fire_one_event(self):
        detector = DistributedIncastDetector(self._settings(), points=2)
        event = None
        # Sources land on different observation points (src % points) but
        # the merge still sees the full fan-in.
        for i, src in enumerate((1, 2, 3, 4)):
            event = detector.observe(
                microseconds(100 + i), src, dst=9, nbytes=10_000
            ) or event
        assert event is not None
        assert event.dst == 9
        assert event.sources >= 3
        assert event.window_bytes >= 30_000
        assert 9 in detector.watched_destinations()

    def test_cooldown_suppresses_refiring(self):
        detector = DistributedIncastDetector(self._settings(), points=2)
        for i, src in enumerate((1, 2, 3, 4)):
            detector.observe(microseconds(100 + i), src, dst=9, nbytes=10_000)
        assert detector.events, "setup should have fired"
        fired = len(detector.events)
        for i, src in enumerate((1, 2, 3, 4)):
            detector.observe(microseconds(200 + i), src, dst=9, nbytes=10_000)
        assert len(detector.events) == fired

    def test_backend_factory(self):
        assert set(DETECTION_BACKENDS) == {"online", "distributed"}
        assert isinstance(make_detection_backend("online"), OnlineIncastDetector)
        assert isinstance(
            make_detection_backend("distributed"), DistributedIncastDetector
        )
        with pytest.raises(ConfigError):
            make_detection_backend("bogus")


class TestCompetitorRuns:
    def test_repflow_completes_with_first_copy_wins(self, competitors):
        result = run_incast(_scenario("repflow"))
        assert result.completed
        # Two copies per flow, but the run reports one completion per flow.
        assert len(result.flow_completion_ps) == 2
        assert result.failed_flows == 0

    def test_pulser_completes_and_counts_pulses(self, competitors):
        result = run_incast(_scenario("pulser"))
        assert result.completed
        # Detection fired and each active flow got a pulse NACK, surfaced
        # through the standard proxy_nacks_sent aggregation.
        assert result.proxy_nacks_sent >= 2

    def test_pulser_dist_matches_online_pulser_here(self, competitors):
        # On this small scenario both backends see the same arrivals and
        # cross the same thresholds; the schemes must at minimum both finish.
        online = run_incast(_scenario("pulser"))
        dist = run_incast(_scenario("pulser-dist"))
        assert online.completed and dist.completed
        assert dist.proxy_nacks_sent >= 2

    def test_repflow_does_not_leak_routing_into_other_schemes(self, competitors):
        # install_disjoint_spray swaps per-switch strategies inside one run's
        # network; a fresh scenario builds a fresh network, so baseline after
        # repflow must match baseline before it.
        before = run_incast(_scenario("baseline"))
        run_incast(_scenario("repflow"))
        after = run_incast(_scenario("baseline"))
        assert after.ict_ps == before.ict_ps
