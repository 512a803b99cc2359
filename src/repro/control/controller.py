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

from functools import partial
from typing import TYPE_CHECKING

from repro.control.config import ControlConfig
from repro.control.weights import resolve_weight_model
from repro.faults.plan import ProxyCrash, ProxyRestart
from repro.net.routing import NextHopTable, build_next_hop_tables

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultEvent
    from repro.net.network import Network
    from repro.sim.simulator import Simulator


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
        probe = self.sim.probe
        if probe is not None:
            probe.on_reroute(self)

    def _refresh(self) -> None:
        self._install()
        self.refreshes += 1
        self.sim.schedule(self.cfg.refresh_interval_ps, self._refresh)

    # -- table computation ---------------------------------------------------------

    def _install(self) -> None:
        # Links whose forwarding-direction port is down are left out, so a
        # single-homed destination behind a downed access link gets no rows.
        net = self.net
        fresh = build_next_hop_tables(
            net.adjacency,
            [h.id for h in net.hosts],
            cost=partial(self._weight, net),
            down=net.down_links(),
        )
        if self._tables is not None:
            for node, old_entries in self._tables.items():
                entries = fresh.setdefault(node, {})
                for dst, hops in old_entries.items():
                    entries.setdefault(dst, hops)
        self.net.install_tables(fresh)
        self._tables = fresh
        self.installs += 1
