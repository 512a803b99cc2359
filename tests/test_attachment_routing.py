"""Route and delay computation per attachment point, checked against the
per-destination walks it replaced, and counted at the one shortest-path
routine every table build and delay query goes through.

The references here are the seed's algorithms, kept test-only: one BFS per
destination, one Dijkstra per destination under link weights, one Dijkstra
per (source, destination) pair for delays.  The builders must equal them
at every node that can forward (at least two neighbours), dict key order
included; nodes with a single neighbour get no rows at all.
"""

import heapq
import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.network
import repro.net.routing
from repro.config import QueueSpec, TransportConfig
from repro.control import Controller, delay_weight, hop_weight
from repro.errors import RoutingError
from repro.experiments.runner import IncastScenario, run_incast
from repro.net.network import Network
from repro.net.routing import build_next_hop_tables, tables_by_attachment
from repro.sim.simulator import Simulator
from repro.units import gbps, megabytes, microseconds
from tests.conftest import (
    ROUTING_FABRICS,
    build_fabric_net,
    controller_tables,
    d272_interdc_config,
)


# -- references ---------------------------------------------------------------


def per_destination_bfs(adjacency, destination_ids):
    """The seed's ``build_next_hop_tables``: one BFS per destination."""
    tables = {node: {} for node in adjacency}
    for dst in destination_ids:
        distance = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            d = distance[node]
            for neighbor in adjacency[node]:
                if neighbor not in distance:
                    distance[neighbor] = d + 1
                    frontier.append(neighbor)
        for node, neighbors in adjacency.items():
            if node == dst or node not in distance:
                continue
            here = distance[node]
            hops = tuple(n for n in neighbors if distance.get(n, here) == here - 1)
            if hops:
                tables[node][dst] = hops
    return tables


def per_destination_dijkstra(net, weight, destination_ids):
    """The seed's ``build_weighted_tables``: one Dijkstra per destination."""

    def link_up(a, b):
        port = net.nodes[a].ports.get(b)
        return port is not None and port.up

    tables = {node: {} for node in net.adjacency}
    for dst in destination_ids:
        dist = {dst: 0}
        heap = [(0, dst)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, d):
                continue
            for neighbor in net.adjacency[node]:
                if not link_up(neighbor, node):
                    continue
                candidate = d + weight(net, neighbor, node)
                if candidate < dist.get(neighbor, candidate + 1):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        for node, neighbors in net.adjacency.items():
            if node == dst or node not in dist:
                continue
            here = dist[node]
            hops = tuple(
                n for n in neighbors
                if n in dist and link_up(node, n)
                and dist[n] + weight(net, node, n) == here
            )
            if hops:
                tables[node][dst] = hops
    return tables


def per_pair_delay(net, src_id, dst_id):
    """The seed's ``min_delay_ps``: Dijkstra from src, stopping at dst."""
    if src_id == dst_id:
        return 0
    best = {src_id: 0}
    heap = [(0, src_id)]
    while heap:
        delay, node = heapq.heappop(heap)
        if node == dst_id:
            return delay
        if delay > best.get(node, delay):
            continue
        for neighbor in net.adjacency[node]:
            candidate = delay + net.edge_delay_ps(node, neighbor)
            if candidate < best.get(neighbor, candidate + 1):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return None


def assert_same_forwarding_rows(adjacency, built, reference):
    """Equal rows, in equal key order, wherever a node can forward."""
    assert list(built) == list(reference)
    for node, neighbors in adjacency.items():
        if len(neighbors) >= 2:
            assert list(built[node].items()) == list(reference[node].items()), node
        else:
            assert built[node] == {}, node


# -- generated graphs ---------------------------------------------------------


@st.composite
def graphs(draw):
    """Small undirected graphs and an ordered destination list.

    Sparse enough that single-homed, multi-homed, transit and isolated
    nodes, and unreachable components, all turn up as destinations.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    destinations = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    return n, edges, destinations


def adjacency_of(n, edges):
    adjacency = {node: [] for node in range(n)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def network_of(n, edges, delays):
    """The same graph as a Network of switches (hosts cannot be multi-homed)."""
    sim = Simulator(seed=1)
    net = Network(sim)
    nodes = [net.add_switch(f"n{i}") for i in range(n)]
    spec = QueueSpec(kind="host", capacity_bytes=1_000_000)
    for (a, b), delay in zip(edges, delays):
        net.connect(nodes[a], nodes[b], gbps(10), delay,
                    queue_ab=spec.build(None), queue_ba=spec.build(None))
    net.finalize()
    return net


class TestGeneratedGraphs:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_bfs_builder_equals_per_destination_reference(self, graph):
        n, edges, destinations = graph
        adjacency = adjacency_of(n, edges)
        assert_same_forwarding_rows(
            adjacency,
            build_next_hop_tables(adjacency, destinations),
            per_destination_bfs(adjacency, destinations),
        )

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_weighted_builder_equals_per_destination_reference(self, graph, data):
        # Unequal delays and downed links: the access-link shortcut (a
        # single-homed destination behind a downed link gets no rows) and
        # the shared walk must agree with a full walk from the destination.
        n, edges, destinations = graph
        delays = data.draw(st.lists(st.integers(0, 5), min_size=len(edges),
                                    max_size=len(edges)))
        net = network_of(n, edges, delays)
        for a, b in data.draw(st.lists(st.sampled_from(edges), unique=True)
                              if edges else st.just([])):
            net.set_link_state(a, b, False)
        for weight in (hop_weight, delay_weight):
            assert_same_forwarding_rows(
                net.adjacency,
                controller_tables(net, weight, destinations),
                per_destination_dijkstra(net, weight, destinations),
            )
        # The BFS branch honours downed links too.
        assert_same_forwarding_rows(
            net.adjacency,
            build_next_hop_tables(net.adjacency, destinations, down=net.down_links()),
            per_destination_dijkstra(net, hop_weight, destinations),
        )

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.data())
    def test_min_delay_equals_per_pair_reference(self, graph, data):
        n, edges, _ = graph
        delays = data.draw(st.lists(st.integers(0, 5), min_size=len(edges),
                                    max_size=len(edges)))
        net = network_of(n, edges, delays)
        for src in range(n):
            for dst in range(n):
                expected = per_pair_delay(net, src, dst)
                if expected is None:
                    with pytest.raises(RoutingError):
                        net.min_delay_ps(src, dst)
                else:
                    assert net.min_delay_ps(src, dst) == expected


# -- the fabrics the library builds -------------------------------------------


@pytest.mark.parametrize("fabric", ROUTING_FABRICS)
def test_fabric_tables_equal_per_destination_reference(fabric):
    net = build_fabric_net(fabric)
    hosts = [h.id for h in net.hosts]
    assert_same_forwarding_rows(
        net.adjacency,
        build_next_hop_tables(net.adjacency, hosts),
        per_destination_bfs(net.adjacency, hosts),
    )


class TestStructureOn272Servers:
    """What makes ``incast-d256`` cheap, asserted as structure, not timing."""

    LEAVES = 32

    @pytest.fixture(scope="class")
    def net(self):
        return build_fabric_net("d272")

    @pytest.fixture(scope="class", params=["bfs", "weighted"])
    def tables(self, request, net):
        if request.param == "bfs":
            return build_next_hop_tables(net.adjacency, [h.id for h in net.hosts])
        return controller_tables(net, hop_weight)

    def test_hosts_behind_one_leaf_share_one_tuple(self, net, tables):
        first, second = net.hosts[0].id, net.hosts[1].id
        leaf = net.adjacency[first][0]
        assert net.adjacency[second] == [leaf]
        remote = next(
            s.id for s in net.switches if s.id != leaf and first in tables[s.id]
        )
        assert tables[remote][first] is tables[remote][second]
        assert tables[leaf][first] == (first,)

    def test_one_walk_per_leaf(self, net, tables):
        # Every walk makes its own tuples, so the distinct tuple objects in
        # a row that reaches every host count the walks behind it.
        router = next(s for s in net.switches if s.dc == -1)
        row = tables[router.id]
        assert len(row) == len(net.hosts)
        assert len({id(hops) for hops in row.values()}) == self.LEAVES

    def test_single_neighbour_nodes_have_no_rows(self, net, tables):
        for host in net.hosts:
            assert tables[host.id] == {}

    def test_entries_bounded_by_forwarding_nodes_times_hosts(self, net, tables):
        forwarding = sum(1 for nb in net.adjacency.values() if len(nb) >= 2)
        assert forwarding == len(net.switches)
        entries = sum(len(row) for row in tables.values())
        assert entries <= forwarding * len(net.hosts)

    def test_filler_walks_each_attachment_point_once(self, net):
        roots = []

        def walk(forwarding, root):
            roots.append(root)
            return {}

        # Interleave the hosts of different leaves: a run per host, but
        # still one walk per leaf.
        hosts = [h.id for h in net.hosts]
        tables_by_attachment(net.adjacency, hosts[::2] + hosts[1::2], walk)
        assert len(roots) == len(set(roots)) == self.LEAVES

    @pytest.fixture()
    def walks(self, monkeypatch):
        """``(unit_cost, root)`` of every call to the shared routine."""
        calls = []
        walk = repro.net.routing.shortest_distances

        def counted(forwarding, root, cost=None, down=frozenset()):
            calls.append((cost is None, root))
            return walk(forwarding, root, cost, down)

        monkeypatch.setattr(repro.net.routing, "shortest_distances", counted)
        monkeypatch.setattr(repro.net.network, "shortest_distances", counted)
        return calls

    def test_build_walks_by_hop_count_once_per_leaf(self, walks):
        build_fabric_net("d272")
        assert len(walks) == len(set(walks)) == self.LEAVES
        assert all(unit_cost for unit_cost, _root in walks)

    def test_controller_install_walks_weighted_once_per_leaf(self, walks):
        net = build_fabric_net("d272")
        walks.clear()
        Controller(net.sim, net).start()
        assert len(walks) == len(set(walks)) == self.LEAVES
        assert not any(unit_cost for unit_cost, _root in walks)

    def test_one_dijkstra_per_source_attachment_point(self, net, walks):
        receiver = net.hosts[-1].id
        for host in net.hosts:
            net.min_delay_ps(host.id, receiver)
            net.min_delay_ps(receiver, host.id)
        assert len(walks) == len(set(walks)) == self.LEAVES
        assert not any(unit_cost for unit_cost, _root in walks)

    @pytest.mark.parametrize("scheme", ["baseline", "streamlined"])
    def test_degree_256_cell_walks_once_per_sending_leaf(self, walks, scheme):
        run_incast(IncastScenario(
            scheme=scheme, degree=256, total_bytes=megabytes(8),
            interdc=d272_interdc_config(),
            transport=TransportConfig(payload_bytes=8192), seed=3,
        ))
        delay_walks = [root for unit_cost, root in walks if not unit_cost]
        assert len(walks) - len(delay_walks) == self.LEAVES  # the build
        assert len(delay_walks) == len(set(delay_walks)) <= self.LEAVES // 2


class TestMinDelay:
    @pytest.mark.parametrize("fabric", ["small", "multidc"])
    def test_all_pairs_equal_per_pair_reference(self, fabric):
        # Every node pair: host<->host, host<->own leaf, switch<->switch.
        net = build_fabric_net(fabric)
        for src in net.adjacency:
            for dst in net.adjacency:
                assert net.min_delay_ps(src, dst) == per_pair_delay(net, src, dst)

    def test_host_to_own_leaf_is_the_access_delay(self):
        net = build_fabric_net("small")
        host = net.hosts[0].id
        (leaf,) = net.adjacency[host]
        assert net.min_delay_ps(host, leaf) == net.edge_delay_ps(host, leaf)
        assert net.min_delay_ps(leaf, host) == net.edge_delay_ps(host, leaf)

    def test_disconnected_components_raise(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        spec = QueueSpec(kind="host", capacity_bytes=1_000_000)
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        s, t = net.add_switch("s"), net.add_switch("t")
        for x, y in ((a, s), (b, s), (c, t)):
            net.connect(x, y, gbps(10), microseconds(1),
                        queue_ab=spec.build(None), queue_ba=spec.build(None))
        assert net.min_delay_ps(a.id, b.id) == 2 * microseconds(1)
        for src, dst in ((a.id, c.id), (c.id, a.id), (s.id, t.id), (a.id, t.id)):
            with pytest.raises(RoutingError):
                net.min_delay_ps(src, dst)

    def test_one_forwarding_view_per_network(self, monkeypatch):
        views = []
        derive = repro.net.network.forwarding_view

        def counted(adjacency):
            views.append(adjacency)
            return derive(adjacency)

        monkeypatch.setattr(repro.net.network, "forwarding_view", counted)
        net = build_fabric_net("d272")
        receiver = net.hosts[-1].id
        for host in net.hosts:
            net.min_delay_ps(host.id, receiver)
            net.min_delay_ps(receiver, host.id)
        assert len(views) == 1

    def test_the_view_is_not_pickled(self):
        # A checkpoint carries the delay cache but not the view; a restored
        # network derives the view again at its first new root.
        net = build_fabric_net("small")
        receiver = net.hosts[-1].id
        want = [net.min_delay_ps(h.id, receiver) for h in net.hosts]
        assert net._forwarding is not None
        restored = pickle.loads(pickle.dumps(net))
        assert restored._forwarding is None
        assert restored._delays_from == net._delays_from
        restored._delays_from.clear()
        assert [restored.min_delay_ps(h.id, receiver) for h in net.hosts] == want
        assert restored._forwarding == net._forwarding

    def test_connect_after_a_query_invalidates_the_cache(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        spec = QueueSpec(kind="host", capacity_bytes=1_000_000)

        def link(x, y, delay):
            net.connect(x, y, gbps(10), delay,
                        queue_ab=spec.build(None), queue_ba=spec.build(None))

        a, b = net.add_host("a"), net.add_host("b")
        s, t, u = net.add_switch("s"), net.add_switch("t"), net.add_switch("u")
        link(a, s, 1)
        link(b, t, 1)
        link(s, u, 10)
        link(u, t, 10)
        assert net.min_delay_ps(a.id, b.id) == 22
        link(s, t, 3)  # a shortcut wired after the first answer
        assert net.min_delay_ps(a.id, b.id) == 5
