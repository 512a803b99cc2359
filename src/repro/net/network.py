"""The network container: nodes, links, routing, path queries.

:class:`Network` is the handle topology builders produce and everything
else consumes.  It wires bidirectional links (two output ports with
independent queue disciplines), finalizes routing tables, allocates flow
ids, and answers path queries (minimum propagation delay, bottleneck rate)
that transports use to size initial windows and timers.

Delay queries walk the graph once per *source attachment point*, not per
pair: a node with a single neighbour (every host) reaches the rest of the
graph only through it, so ``min_delay_ps`` is the source's access delay +
a cached delay-weighted :func:`~repro.net.routing.shortest_distances` from
its attachment point + the destination's access delay.  The walks share
one :func:`~repro.net.routing.forwarding_view`, derived at the first query.
``connect()`` clears both; after ``finalize()`` the graph is frozen, the
view stays and the cache only fills.  The view is not pickled: a restored
network derives it again at its first query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import RoutingError, TopologyError
from repro.net.node import Host, Node, Switch
from repro.net.port import OutputPort
from repro.net.routing import (
    EcmpRouting,
    SprayRouting,
    build_next_hop_tables,
    forwarding_view,
    shortest_distances,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


class Network:
    """A set of nodes and links sharing one simulator."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.nodes: dict[int, Node] = {}
        self.hosts: list[Host] = []
        self.switches: list[Switch] = []
        self.adjacency: dict[int, list[int]] = {}
        self._edge_attrs: dict[tuple[int, int], tuple[float, int]] = {}
        #: root -> {forwarding node: min delay from root}; see min_delay_ps.
        self._delays_from: dict[int, dict[int, int]] = {}
        #: forwarding_view(adjacency), derived at the first delay query.
        self._forwarding: dict[int, list[int]] | None = None
        self._next_node_id = 0
        self._next_flow_id = 0
        self._finalized = False
        self._link_watchers: list = []

    # -- construction ---------------------------------------------------------

    def add_host(self, name: str, dc: int = 0) -> Host:
        """Create a host node."""
        host = Host(self.sim, self._allocate_id(), name, dc)
        self._register(host)
        self.hosts.append(host)
        return host

    def add_switch(self, name: str, dc: int = 0) -> Switch:
        """Create a switch node."""
        switch = Switch(self.sim, self._allocate_id(), name, dc)
        self._register(switch)
        self.switches.append(switch)
        return switch

    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: float,
        delay_ps: int,
        queue_ab,
        queue_ba,
    ) -> None:
        """Create a full-duplex link: port a->b with ``queue_ab`` and b->a with
        ``queue_ba``.  Queues are discipline instances (see repro.net.queues).
        """
        if self._finalized:
            raise TopologyError("cannot add links after finalize()")
        if rate_bps <= 0 or delay_ps < 0:
            raise TopologyError(
                f"link {a.name}<->{b.name}: rate must be positive and delay "
                f"non-negative (got {rate_bps}, {delay_ps})"
            )
        port_ab = OutputPort(self.sim, f"{a.name}->{b.name}", queue_ab, rate_bps, delay_ps, b)
        port_ba = OutputPort(self.sim, f"{b.name}->{a.name}", queue_ba, rate_bps, delay_ps, a)
        a.attach_port(b.id, port_ab)
        b.attach_port(a.id, port_ba)
        self.adjacency[a.id].append(b.id)
        self.adjacency[b.id].append(a.id)
        self._edge_attrs[(a.id, b.id)] = (rate_bps, delay_ps)
        self._edge_attrs[(b.id, a.id)] = (rate_bps, delay_ps)
        self._delays_from.clear()
        self._forwarding = None

    def finalize(self, routing: str = "spray") -> None:
        """Build routing tables and install the chosen strategy on switches."""
        tables = build_next_hop_tables(self.adjacency, [h.id for h in self.hosts])
        if routing == "spray":
            strategy: SprayRouting | EcmpRouting = SprayRouting(tables)
        elif routing == "ecmp":
            strategy = EcmpRouting(tables)
        else:
            raise TopologyError(f"unknown routing strategy {routing!r}")
        for switch in self.switches:
            switch.routing = strategy
            switch.spray_rng = self.sim.rng.stream(f"spray:{switch.name}")
        self._set_direct_ports(tables)
        self._finalized = True

    def install_tables(self, tables) -> None:
        """Reinstall next-hop tables on every switch (control-plane hook).

        Updates each distinct routing strategy in place and rebuilds the
        switches' single-candidate ``direct_ports`` — arriving packets are
        forwarded through those without consulting the strategy, so skipping
        the rebuild would leave them forwarding along the stale tables
        forever.  A packet already on a wire is forwarded by the new tables:
        its arrival reads ``direct_ports`` when it lands.
        """
        if not self._finalized:
            raise TopologyError("install_tables() requires a finalized network")
        strategies: list = []
        for switch in self.switches:
            strategy = switch.routing
            if strategy is None:
                continue
            if all(s is not strategy for s in strategies):
                strategies.append(strategy)
                strategy.update_tables(tables)
        self._set_direct_ports(tables)

    def _set_direct_ports(self, tables) -> None:
        # Single-candidate destinations bypass the strategy entirely: an
        # arriving packet is offered to the port straight from
        # OutputPort._arrive, without Switch.receive.  With one equal-cost
        # hop, spray and ECMP both return it without consulting RNG or
        # hash, so the bypass is behavior-preserving.
        for switch in self.switches:
            ports = switch.ports
            switch.direct_ports = {
                dst: ports[hops[0]]
                for dst, hops in tables.get(switch.id, {}).items()
                if len(hops) == 1 and hops[0] in ports
            }

    # -- identifiers ----------------------------------------------------------

    def new_flow_id(self) -> int:
        """Allocate a network-unique flow id."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    # -- path queries ----------------------------------------------------------

    def min_delay_ps(self, src_id: int, dst_id: int) -> int:
        """Minimum one-way propagation delay between two nodes."""
        if src_id == dst_id:
            return 0
        adjacency = self.adjacency
        root, access = src_id, 0
        if len(adjacency[src_id]) == 1:
            root = adjacency[src_id][0]
            access = self._edge_attrs[(src_id, root)][1]
        reach = self._delays_from.get(root)
        if reach is None:
            forwarding = self._forwarding
            if forwarding is None:
                forwarding = self._forwarding = forwarding_view(adjacency)
            reach = self._delays_from[root] = (
                shortest_distances(forwarding, root, cost=self.edge_delay_ps)
                if root in forwarding else {root: 0}
            )
        if dst_id in reach:
            return access + reach[dst_id]
        neighbors = adjacency.get(dst_id, ())
        if len(neighbors) == 1 and neighbors[0] in reach:
            point = neighbors[0]
            return access + reach[point] + self._edge_attrs[(point, dst_id)][1]
        raise RoutingError(f"nodes {src_id} and {dst_id} are not connected")

    def path_rtt_ps(self, src_id: int, dst_id: int, via: Iterable[int] = ()) -> int:
        """Round-trip propagation delay along ``src -> via... -> dst -> via... -> src``."""
        stops = [src_id, *via, dst_id]
        one_way = sum(
            self.min_delay_ps(stops[i], stops[i + 1]) for i in range(len(stops) - 1)
        )
        return 2 * one_way

    def edge_delay_ps(self, a_id: int, b_id: int) -> int:
        """Propagation delay of the direct ``a -> b`` link."""
        try:
            return self._edge_attrs[(a_id, b_id)][1]
        except KeyError:
            raise TopologyError(f"no link between nodes {a_id} and {b_id}") from None

    def edge_rate_bps(self, a_id: int, b_id: int) -> float:
        """Rate of the direct ``a -> b`` link."""
        try:
            return self._edge_attrs[(a_id, b_id)][0]
        except KeyError:
            raise TopologyError(f"no link between nodes {a_id} and {b_id}") from None

    def bottleneck_rate_bps(self, src_id: int, dst_id: int) -> float:
        """Bottleneck (minimum) link rate on a minimum-delay path.

        In the uniform-rate fabrics this library builds, every path shares
        the same rate; we conservatively return the minimum edge rate
        adjacent to either endpoint.
        """
        rates = [self._edge_attrs[(src_id, n)][0] for n in self.adjacency[src_id]]
        rates += [self._edge_attrs[(dst_id, n)][0] for n in self.adjacency[dst_id]]
        if not rates:
            raise RoutingError(f"node {src_id} or {dst_id} has no links")
        return min(rates)

    # -- failure injection -------------------------------------------------------

    def subscribe_link_state(self, callback) -> None:
        """Register ``callback(a_id, b_id, up)``, called on actual changes.

        The feed a control plane (:class:`repro.control.Controller`)
        reconverges from; no-op transitions (setting an up link up) do not
        notify.
        """
        self._link_watchers.append(callback)

    def set_link_state(self, a_id: int, b_id: int, up: bool) -> None:
        """Bring both directions of the a<->b link up or down, immediately.

        Without a subscribed control plane, routing tables are static: a
        downed link models transient loss that transports must absorb
        (RTO/RACK).  Watchers registered with :meth:`subscribe_link_state`
        are notified of genuine state changes and may recompute and
        reinstall tables (see :mod:`repro.control`).  Timed failures are
        a :class:`~repro.faults.plan.FaultPlan`, armed with
        :func:`~repro.faults.injector.arm_faults`.
        """
        try:
            port_ab = self.nodes[a_id].ports[b_id]
            port_ba = self.nodes[b_id].ports[a_id]
        except KeyError:
            raise TopologyError(f"no link between nodes {a_id} and {b_id}") from None
        changed = port_ab.up != up or port_ba.up != up
        port_ab.set_up(up)
        port_ba.set_up(up)
        if changed:
            for callback in self._link_watchers:
                callback(a_id, b_id, up)

    def down_links(self) -> frozenset[tuple[int, int]]:
        """Directed links ``(a_id, b_id)`` whose ``a -> b`` port is down."""
        return frozenset(
            (node_id, neighbor)
            for node_id, node in self.nodes.items()
            for neighbor, port in node.ports.items()
            if not port.up
        )

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The view is derived from the adjacency: a checkpoint does not carry it.
        state = self.__dict__.copy()
        del state["_forwarding"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._forwarding = None

    # -- internals --------------------------------------------------------------

    def _allocate_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _register(self, node: Node) -> None:
        if self._finalized:
            raise TopologyError("cannot add nodes after finalize()")
        self.nodes[node.id] = node
        self.adjacency[node.id] = []
