"""The reactive control plane: weight models, weighted route computation,
and the Controller's fault-driven reconvergence."""

from functools import partial

import pytest

from repro.config import QueueSpec
from repro.control import (
    ControlConfig,
    Controller,
    WEIGHT_MODELS,
    delay_weight,
    hop_weight,
    queue_weight,
    resolve_weight_model,
)
from repro.errors import ConfigError, TopologyError
from repro.net.network import Network
from repro.net.routing import build_next_hop_tables
from repro.sim.simulator import Simulator
from repro.units import gbps, megabytes, microseconds
from tests.conftest import ROUTING_FABRICS, build_fabric_net, controller_tables


def _queue(sim, name):
    return QueueSpec(kind="host", capacity_bytes=megabytes(100)).build(
        partial(sim.rng.stream, name)
    )


def _mesh(sim, host_names, switch_names, edges):
    """Build an arbitrary topology; edges are (name_a, name_b, delay_ps)."""
    net = Network(sim)
    nodes = {}
    for name in host_names:
        nodes[name] = net.add_host(name)
    for name in switch_names:
        nodes[name] = net.add_switch(name)
    for a, b, delay in edges:
        net.connect(
            nodes[a], nodes[b], gbps(10), delay,
            queue_ab=_queue(sim, f"q:{a}->{b}"),
            queue_ba=_queue(sim, f"q:{b}->{a}"),
        )
    net.finalize()
    return net, nodes


def _diamond(sim, direct_delay_ps=microseconds(100), detour_delay_ps=microseconds(1)):
    """A—X—Y—B with a two-hop detour X—Z—Y.

    Hop count prefers the direct X—Y edge; delay prefers the detour when
    the direct edge is slow enough.
    """
    return _mesh(
        sim,
        ["a", "b"],
        ["x", "y", "z"],
        [
            ("a", "x", microseconds(1)),
            ("x", "y", direct_delay_ps),
            ("y", "b", microseconds(1)),
            ("x", "z", detour_delay_ps),
            ("z", "y", detour_delay_ps),
        ],
    )


class TestWeightModels:
    def test_registry_names(self):
        assert set(WEIGHT_MODELS) == {"hop", "delay", "queue"}

    def test_resolve_known(self):
        assert resolve_weight_model("hop") is hop_weight
        assert resolve_weight_model("delay") is delay_weight
        assert resolve_weight_model("queue") is queue_weight

    def test_resolve_unknown_raises(self):
        with pytest.raises(ConfigError):
            resolve_weight_model("wormhole")

    def test_hop_weight_is_unit(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        assert hop_weight(net, nodes["x"].id, nodes["y"].id) == 1
        assert hop_weight(net, nodes["x"].id, nodes["z"].id) == 1

    def test_delay_weight_reads_edge_delay(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim, direct_delay_ps=microseconds(100))
        assert delay_weight(net, nodes["x"].id, nodes["y"].id) == microseconds(100)

    def test_delay_weight_missing_edge_raises(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        with pytest.raises(TopologyError):
            delay_weight(net, nodes["a"].id, nodes["b"].id)

    def test_queue_weight_equals_delay_on_idle_network(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        x, y = nodes["x"].id, nodes["y"].id
        assert queue_weight(net, x, y) == delay_weight(net, x, y)


class TestWeightedTables:
    def test_hop_model_matches_bfs_builder_exactly(self):
        # Dijkstra under unit weights must reproduce the BFS equal-cost
        # tables bit-for-bit (same adjacency-order hop sets), so installing
        # hop-model tables is behavior-preserving.
        for fabric in ROUTING_FABRICS:
            net = build_fabric_net(fabric)
            by_hop = controller_tables(net, hop_weight)
            by_bfs = build_next_hop_tables(net.adjacency, [h.id for h in net.hosts])
            assert by_hop == by_bfs, fabric
            for node, row in by_bfs.items():
                assert list(by_hop[node]) == list(row), (fabric, node)

    def test_delay_model_prefers_fast_detour(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        b = nodes["b"].id
        by_hop = controller_tables(net, hop_weight)
        by_delay = controller_tables(net, delay_weight)
        assert by_hop[nodes["x"].id][b] == (nodes["y"].id,)
        assert by_delay[nodes["x"].id][b] == (nodes["z"].id,)

    def test_downed_link_is_not_used(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        x, y = nodes["x"].id, nodes["y"].id
        net.set_link_state(x, y, False)
        assert net.down_links() == {(x, y), (y, x)}
        tables = controller_tables(net, hop_weight)
        assert tables[nodes["x"].id][nodes["b"].id] == (nodes["z"].id,)

    def test_restricted_destinations(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        tables = controller_tables(net, hop_weight, [nodes["a"].id])
        assert nodes["a"].id in tables[nodes["x"].id]
        assert nodes["b"].id not in tables[nodes["x"].id]


class TestControlConfig:
    def test_defaults_valid(self):
        cfg = ControlConfig()
        assert cfg.weight_model == "hop"
        assert cfg.control_delay_ps > 0

    def test_unknown_weight_model_rejected(self):
        with pytest.raises(ConfigError):
            ControlConfig(weight_model="wormhole")

    def test_negative_delays_rejected(self):
        with pytest.raises(ConfigError):
            ControlConfig(control_delay_ps=-1)
        with pytest.raises(ConfigError):
            ControlConfig(refresh_interval_ps=-1)


class TestController:
    def test_start_installs_and_is_idempotent(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        controller = Controller(sim, net)
        assert controller.start() is controller
        assert controller.start() is controller
        assert controller.installs == 1
        assert controller.reroutes == 0

    def test_linkdown_triggers_one_coalesced_reroute(self):
        sim = Simulator(seed=1)
        cfg = ControlConfig(control_delay_ps=microseconds(50))
        net, nodes = _diamond(sim)
        controller = Controller(sim, net, cfg).start()
        # One LinkDown flips both directions: the notifications coalesce
        # into a single reconvergence after the control-loop delay.
        net.set_link_state(nodes["x"].id, nodes["y"].id, False)
        sim.run(until=microseconds(200))
        assert controller.reroutes == 1
        assert controller.event_installs == [microseconds(50)]

    def test_reroute_rebuilds_direct_ports_fast_path(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        x, b = nodes["x"], nodes["b"].id
        controller = Controller(sim, net).start()
        assert x.direct_ports[b] is x.ports[nodes["y"].id]
        net.set_link_state(x.id, nodes["y"].id, False)
        sim.run(until=microseconds(200))
        # The single-candidate bypass now points at the detour; a stale
        # entry here would keep forwarding into the dead link forever.
        assert controller.reroutes == 1
        assert x.direct_ports[b] is x.ports[nodes["z"].id]

    def test_unreachable_destination_keeps_stale_route(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        x, b = nodes["x"], nodes["b"].id
        controller = Controller(sim, net).start()
        net.set_link_state(x.id, nodes["y"].id, False)
        net.set_link_state(x.id, nodes["z"].id, False)
        sim.run(until=microseconds(200))
        # B is unreachable from X; the merge keeps the last-known entry so
        # in-flight traffic drops at a downed port instead of raising
        # RoutingError and killing the whole run.
        assert controller.reroutes >= 1
        assert b in x.routing.tables[x.id]

    def test_downed_access_link_keeps_every_stale_route(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        y, b = nodes["y"], nodes["b"].id
        controller = Controller(sim, net).start()
        before = {node: row[b] for node, row in y.routing.tables.items() if b in row}
        assert set(before) == {nodes[name].id for name in "xyz"}
        net.set_link_state(y.id, b, False)
        sim.run(until=microseconds(200))
        # B's only link is down, so the fresh tables have no row for it
        # anywhere; the merge keeps every last-known entry and the fast
        # path still points at the (downed) access port, where traffic drops.
        assert controller.reroutes == 1
        assert b not in controller_tables(net, hop_weight)[y.id]
        after = {node: row[b] for node, row in y.routing.tables.items() if b in row}
        assert after == before
        assert y.direct_ports[b] is y.ports[b]

    def test_link_recovery_restores_original_route(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        x, b = nodes["x"], nodes["b"].id
        controller = Controller(sim, net).start()
        net.set_link_state(x.id, nodes["y"].id, False)
        sim.run(until=microseconds(200))
        net.set_link_state(x.id, nodes["y"].id, True)
        sim.run(until=microseconds(400))
        assert controller.reroutes == 2
        assert x.direct_ports[b] is x.ports[nodes["y"].id]

    def test_redundant_state_change_does_not_notify(self):
        sim = Simulator(seed=1)
        net, nodes = _diamond(sim)
        controller = Controller(sim, net).start()
        # Already up: setting up again must not schedule a reconvergence.
        net.set_link_state(nodes["x"].id, nodes["y"].id, True)
        sim.run(until=microseconds(200))
        assert controller.reroutes == 0

    def test_periodic_refresh(self):
        sim = Simulator(seed=1)
        cfg = ControlConfig(refresh_interval_ps=microseconds(100))
        net, nodes = _diamond(sim)
        controller = Controller(sim, net, cfg).start()
        sim.run(until=microseconds(350))
        assert controller.refreshes == 3
        # Refreshes reinstall but are not fault reroutes.
        assert controller.reroutes == 0
