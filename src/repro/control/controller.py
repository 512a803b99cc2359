"""The reactive route controller.

Mirrors the SDN split of the POX/Ryu-style controllers this module is
modelled on: the data plane (switches + routing strategies) forwards from
installed tables; the controller holds the topology graph, recomputes
paths under a pluggable weight model (:mod:`repro.control.weights`), and
reinstalls tables when the graph changes.

Event flow::

    Network.set_link_state ──▶ link-state watchers ──▶ Controller marks a
    recomputation pending ──▶ control_delay_ps later, tables are rebuilt
    from the surviving links and installed via Network.install_tables.

Changes arriving while a recomputation is pending coalesce into it, so an
event burst (e.g. ``LinkDown("backbone")`` downing many links at one
tick) costs one reconvergence.  Proxy crash/restart events are observed
through :meth:`FaultInjector.subscribe <repro.faults.injector.FaultInjector.subscribe>`
for bookkeeping only — migrating flows between proxies is the pool
manager's job (:mod:`repro.control.pool`), not a routing change.

Destinations a node can no longer reach keep their previous next hops:
traffic already addressed there drains toward the downed port and is
counted dropped there, exactly like the static-table behavior.  Deleting
the entry instead would raise ``RoutingError`` mid-run and kill the
simulation for what is a survivable data-plane condition.
"""

from __future__ import annotations

import heapq  # repro: allow[raw-heapq] plain-data Dijkstra frontier, not events
from typing import TYPE_CHECKING

from repro.control.config import ControlConfig
from repro.control.weights import WeightFn, resolve_weight_model
from repro.faults.plan import ProxyCrash, ProxyRestart
from repro.net.routing import NextHopTable, tables_by_attachment

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent
    from repro.net.network import Network
    from repro.sim.simulator import Simulator


def build_weighted_tables(
    net: "Network",
    weight: WeightFn,
    destination_ids: list[int] | None = None,
) -> NextHopTable:
    """Equal-cost next hops toward every destination under integer weights.

    Shaped exactly like :func:`repro.net.routing.build_next_hop_tables`
    (one walk per attachment point, same filler); a link is skipped while
    its forwarding-direction port is down, so a single-homed destination
    whose access link is down gets no rows at all.  Equal-cost sets
    preserve adjacency (wiring) order, so under the ``"hop"`` model with
    all links up the output is identical to the BFS builder's — the
    controller's initial install is behavior-preserving.
    """
    adjacency = net.adjacency
    nodes = net.nodes
    if destination_ids is None:
        destination_ids = [h.id for h in net.hosts]

    def link_up(a: int, b: int) -> bool:
        port = nodes[a].ports.get(b)
        return port is not None and port.up

    def walk(forwarding: dict[int, list[int]], root: int) -> dict[int, tuple[int, ...]]:
        # Dijkstra from the root over reversed edges: dist[n] is the cost of
        # reaching root from n, relaxed with the forwarding-direction weight
        # of each edge, so direction-dependent weights (live queue depth)
        # price the path packets actually take.
        dist = {root: 0}
        heap = [(0, root)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for neighbor in forwarding[node]:
                if not link_up(neighbor, node):
                    continue
                candidate = d + weight(net, neighbor, node)
                if candidate < dist.get(neighbor, candidate + 1):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        return {
            node: tuple(
                n for n in forwarding[node]
                if n in dist and link_up(node, n)
                and dist[n] + weight(net, node, n) == here
            )
            for node, here in dist.items()
            if node != root
        }

    def access_up(dst: int) -> bool:
        neighbors = adjacency[dst]
        return len(neighbors) != 1 or link_up(neighbors[0], dst)

    return tables_by_attachment(
        adjacency, [dst for dst in destination_ids if access_up(dst)], walk
    )


class Controller:
    """Recomputes and reinstalls routes when the topology graph changes.

    Counters:

    * ``reroutes``        — event-driven reconvergences (the robustness
      metric the recovery sweep reports);
    * ``refreshes``       — periodic recomputations (``refresh_interval_ps``);
    * ``installs``        — every table install, including the initial one;
    * ``proxy_events``    — applied ProxyCrash/ProxyRestart events observed;
    * ``event_installs``  — sim times of event-driven installs;
      ``event_installs[0]`` is the first post-failure convergence time.
    """

    def __init__(
        self,
        sim: "Simulator",
        net: "Network",
        cfg: ControlConfig | None = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.cfg = cfg or ControlConfig()
        self._weight = resolve_weight_model(self.cfg.weight_model)
        self.reroutes = 0
        self.refreshes = 0
        self.installs = 0
        self.proxy_events = 0
        self.event_installs: list[int] = []
        self._tables: NextHopTable | None = None
        self._pending = False
        self._started = False

    def start(self) -> "Controller":
        """Install initial weighted tables and begin watching (idempotent).

        With ``refresh_interval_ps > 0`` the refresh loop keeps the event
        queue non-empty, so runs must bound themselves with
        ``sim.run(until=...)`` or an explicit ``sim.stop()`` — exactly what
        :func:`~repro.experiments.runner.run_incast` does.
        """
        if self._started:
            return self
        self._started = True
        self._install()
        self.net.subscribe_link_state(self._on_link_state)
        if self.cfg.refresh_interval_ps > 0:
            self.sim.schedule(self.cfg.refresh_interval_ps, self._refresh)
        return self

    def observe(self, injector: "FaultInjector | None") -> "Controller":
        """Subscribe to a run's fault injector (None is a fault-free run)."""
        if injector is not None:
            injector.subscribe(self._on_fault_event)
        return self

    # -- event handling ----------------------------------------------------------

    def _on_fault_event(self, event: "FaultEvent", applied: bool) -> None:
        # Link events arrive through the network's link-state watchers
        # (covering direct set_link_state calls too, not just planned
        # faults); proxy lifecycle events are only counted here.
        if applied and isinstance(event, (ProxyCrash, ProxyRestart)):
            self.proxy_events += 1

    def _on_link_state(self, a_id: int, b_id: int, up: bool) -> None:
        if self._pending:
            return  # coalesce: one reconvergence covers every queued change
        self._pending = True
        self.sim.schedule(self.cfg.control_delay_ps, self._reconverge)

    def _reconverge(self) -> None:
        self._pending = False
        self._install()
        self.reroutes += 1
        self.event_installs.append(self.sim.now)
        self.sim.trace("control", "reroute", installs=self.installs)

    def _refresh(self) -> None:
        self._install()
        self.refreshes += 1
        self.sim.schedule(self.cfg.refresh_interval_ps, self._refresh)

    # -- table computation ---------------------------------------------------------

    def _install(self) -> None:
        fresh = build_weighted_tables(self.net, self._weight)
        if self._tables is not None:
            for node, old_entries in self._tables.items():
                entries = fresh.setdefault(node, {})
                for dst, hops in old_entries.items():
                    entries.setdefault(dst, hops)
        self.net.install_tables(fresh)
        self._tables = fresh
        self.installs += 1
