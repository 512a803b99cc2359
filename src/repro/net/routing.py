"""Shortest paths, next-hop tables and the routing strategies that read them.

:func:`shortest_distances` is the one shortest-path routine (BFS when
every edge costs 1, Dijkstra otherwise) behind every route table and
every delay query (:meth:`repro.net.network.Network.min_delay_ps`).  It
walks the :func:`forwarding_view`: a dead end lies on no path between two
other nodes.

Tables are built one walk per **attachment point** rather than per
destination: a destination with a single neighbour (every host —
:meth:`Host.attach_port` makes hosts single-homed) is reached through that
neighbour only, so all destinations behind one attachment point share one
equal-cost hop tuple at every other node.  :func:`build_next_hop_tables`
is the one table builder: ``Network.finalize`` calls it by hop count, the
control plane (:mod:`repro.control`) under its weight model without the
downed links, reinstalling through :meth:`RoutingStrategy.update_tables` /
:meth:`repro.net.network.Network.install_tables`.  Nodes with a single
neighbour get no rows: they have one way out and never consult a table.
Strategies choose among the tabled neighbors:

* :class:`SprayRouting` — uniform random choice **per packet** (the paper's
  packet spraying);
* :class:`EcmpRouting` — deterministic hash of the flow id, i.e. per-flow
  ECMP, kept for ablations.
"""

from __future__ import annotations

import heapq  # repro: allow[raw-heapq] Dijkstra frontier, not events
from collections import deque
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Collection

from repro.errors import RoutingError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Switch

NextHopTable = dict[int, dict[int, tuple[int, ...]]]

#: ``cost(a_id, b_id) -> int`` — price of the directed edge a->b.
EdgeCost = Callable[[int, int], int]

#: ``walk(forwarding, root) -> {node: equal-cost hops toward root}`` for
#: every node other than ``root`` that reaches it.
AttachmentWalk = Callable[[dict[int, list[int]], int], dict[int, tuple[int, ...]]]


def forwarding_view(adjacency: dict[int, list[int]]) -> dict[int, list[int]]:
    """The adjacency restricted to nodes with at least two neighbours, in wiring order."""
    return {
        node: [n for n in neighbors if len(adjacency[n]) > 1]
        for node, neighbors in adjacency.items()
        if len(neighbors) > 1
    }


def shortest_distances(
    forwarding: dict[int, list[int]],
    root: int,
    cost: EdgeCost | None = None,
    down: Collection[tuple[int, int]] = frozenset(),
) -> dict[int, int]:
    """Cheapest path cost to ``root`` (a node of ``forwarding``) from every node reaching it.

    Edges are priced in the direction packets take, ``cost(a, b)`` for
    ``a -> b``, so direction-dependent costs (live queue depth) price the
    path traffic uses.  ``cost=None`` is a BFS: every edge costs 1.
    Directed links in ``down`` are not used.
    """
    dist = {root: 0}
    if cost is None:
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            d = dist[node] + 1
            for neighbor in forwarding[node]:
                if neighbor not in dist and (not down or (neighbor, node) not in down):
                    dist[neighbor] = d
                    frontier.append(neighbor)
        return dist
    heap = [(0, root)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor in forwarding[node]:
            if down and (neighbor, node) in down:
                continue
            candidate = d + cost(neighbor, node)
            if candidate < dist.get(neighbor, candidate + 1):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return dist


def tables_by_attachment(
    adjacency: dict[int, list[int]],
    destination_ids: list[int],
    walk: AttachmentWalk,
) -> NextHopTable:
    """Fill ``tables[node][destination] -> hops`` with one walk per attachment point.

    Rows keep ``destination_ids`` order.  Destinations behind one
    attachment point share one hop tuple per node (the same object), and
    the attachment point itself delivers over the access link.
    """
    forwarding = forwarding_view(adjacency)

    def attachment(dst: int) -> int:
        neighbors = adjacency[dst]
        return neighbors[0] if len(neighbors) == 1 else dst

    tables: NextHopTable = {node: {} for node in adjacency}
    walks: dict[int, dict[int, tuple[int, ...]]] = {}
    for point, group in groupby(destination_ids, key=attachment):
        if point not in forwarding:
            continue  # isolated, or behind a dead end: no node forwards to it
        run = list(group)
        hops_at = walks.get(point)
        if hops_at is None:
            hops_at = walks[point] = walk(forwarding, point)
        for node, hops in hops_at.items():
            tables[node].update(dict.fromkeys(run, hops))
        tables[point].update((dst, (dst,)) for dst in run if dst != point)
    return tables


def build_next_hop_tables(
    adjacency: dict[int, list[int]],
    destination_ids: list[int],
    cost: EdgeCost | None = None,
    down: Collection[tuple[int, int]] = frozenset(),
) -> NextHopTable:
    """Equal-cost next hops toward every destination, shortest under ``cost``.

    Returns ``tables[node_id][destination_id] -> tuple(neighbor ids)`` for
    every node with at least two neighbours that reaches the destination
    without the directed links in ``down`` (so a single-homed destination
    behind a downed access link gets no rows).  Hop sets keep wiring order:
    a cost of 1 on every edge yields exactly the ``cost=None`` tables.
    """
    if down:
        destination_ids = [
            dst for dst in destination_ids
            if len(adjacency[dst]) != 1 or (adjacency[dst][0], dst) not in down
        ]

    def walk(forwarding: dict[int, list[int]], root: int) -> dict[int, tuple[int, ...]]:
        dist = shortest_distances(forwarding, root, cost, down)
        at = dist.get
        # Separate comprehensions keep cost calls and down probes out of
        # the hop-count build; one shared comprehension made a 272-server
        # table build ≈5 % slower.
        if cost is None:
            hops_at = {
                node: tuple(n for n in forwarding[node] if at(n) == here - 1)
                for node, here in dist.items()
            }
        else:
            hops_at = {
                node: tuple(n for n in forwarding[node] if at(n) == here - cost(node, n))
                for node, here in dist.items()
            }
        del hops_at[root]
        if down:
            hops_at = {
                node: tuple(n for n in hops if (node, n) not in down)
                for node, hops in hops_at.items()
            }
        return hops_at

    return tables_by_attachment(adjacency, destination_ids, walk)


class RoutingStrategy:
    """Chooses the next hop for a packet at a switch."""

    def __init__(self, tables: NextHopTable) -> None:
        self._tables = tables

    @property
    def tables(self) -> NextHopTable:
        """The currently installed next-hop tables."""
        return self._tables

    def update_tables(self, tables: NextHopTable) -> None:
        """Swap in freshly computed next-hop tables (control-plane hook).

        Strategies are shared across switches, so one call redirects every
        switch using this strategy.  Callers must also rebuild the
        switches' single-candidate ``direct_ports`` — arrivals for those
        destinations are forwarded without consulting the strategy and
        would otherwise keep following the stale tables
        (:meth:`repro.net.network.Network.install_tables` does both).
        """
        self._tables = tables

    def candidates(self, switch: "Switch", packet: Packet) -> tuple[int, ...]:
        """Equal-cost next hops for this packet at this switch."""
        try:
            return self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        raise NotImplementedError


class SprayRouting(RoutingStrategy):
    """Per-packet spraying: uniform random pick among equal-cost hops."""

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        try:
            options = self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None
        n = len(options)
        if n == 1:
            return options[0]
        rng = switch.spray_rng
        assert rng is not None, "finalize() assigns spray RNGs"
        # Inline of Random.randrange(n) -> _randbelow(n): the getrandbits
        # call sequence is identical to the stdlib's, so the spray draw
        # order — and with it every recorded digest — is unchanged.  This
        # skips two pure-Python stdlib frames per sprayed packet.
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return options[r]


class EcmpRouting(RoutingStrategy):
    """Per-flow ECMP: a flow always hashes to the same equal-cost hop."""

    #: Knuth multiplicative-hash constant; any odd 32-bit constant works.
    _HASH_MULT = 2654435761

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        options = self.candidates(switch, packet)
        if len(options) == 1:
            return options[0]
        index = ((packet.flow_id * self._HASH_MULT) ^ switch.id) % len(options)
        return options[index]


class DisjointSprayRouting(SprayRouting):
    """Per-packet spraying constrained to per-flow *lanes* of the fabric.

    RepFlow-style replication wants the two copies of a flow to avoid
    sharing bottlenecks.  At every switch with ``k`` equal-cost next hops,
    lane ``j`` owns the hops at indices ``j, j + lanes, j + 2*lanes, ...``
    — a static partition, so two flows assigned different lanes never share
    a multi-path hop anywhere in the fabric.  Flows without an assigned
    lane (ordinary traffic) spray over the full candidate set, exactly like
    :class:`SprayRouting`.

    Lane assignment covers a flow's ACKs too: control packets reuse the
    data packet's ``flow_id``, so the reverse path stays inside the lane.
    """

    def __init__(self, tables: NextHopTable, lanes: int = 2) -> None:
        if lanes < 2:
            raise RoutingError(f"disjoint spraying needs >= 2 lanes, got {lanes}")
        super().__init__(tables)
        self.lanes = lanes
        self._flow_lane: dict[int, int] = {}

    def assign_lane(self, flow_id: int, lane: int) -> None:
        """Pin ``flow_id`` (data and its control echoes) to ``lane``."""
        self._flow_lane[flow_id] = lane % self.lanes

    def next_hop(self, switch: "Switch", packet: Packet) -> int:
        lane = self._flow_lane.get(packet.flow_id)
        if lane is None:
            return super().next_hop(switch, packet)
        try:
            options = self._tables[switch.id][packet.dst]
        except KeyError:
            raise RoutingError(
                f"switch {switch.name} has no route to node {packet.dst}"
            ) from None
        subset = options[lane::self.lanes]
        if subset:
            options = subset
        n = len(options)
        if n == 1:
            return options[0]
        rng = switch.spray_rng
        assert rng is not None, "finalize() assigns spray RNGs"
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return options[r]


def install_disjoint_spray(net: "Network", lanes: int = 2) -> DisjointSprayRouting:
    """Swap every switch's strategy for one shared :class:`DisjointSprayRouting`.

    The network must already be finalized (tables built, spray RNGs
    assigned).  Single-candidate destinations keep using the switches'
    precomputed direct ports, so only genuinely multi-path hops consult the
    new strategy — no core forwarding code changes hands.
    """
    installed = next(
        (s.routing for s in net.switches if s.routing is not None), None
    )
    if installed is None:
        raise RoutingError("install_disjoint_spray needs a finalized network")
    disjoint = DisjointSprayRouting(installed.tables, lanes=lanes)
    for switch in net.switches:
        switch.routing = disjoint
    return disjoint
