"""Proxy-pool failover: detection, migration, fail-back, degrade.

Generalizes the original one-shot primary/backup failover controller into
a preference-ordered *pool*.  The pool manager heartbeat-probes the
member currently carrying flows and keeps the incast alive through any
sequence of crashes and restarts:

* **detection** — the active member has been unresponsive for
  ``detection_timeout_ps`` of consecutive probes;
* **migration** — flows move to the live member whose access link has the
  shallowest queues right now (ties break by pool order), counted in
  ``failovers``;
* **degrade** — with no live member, flows are re-pointed *direct* at the
  receiver (``reroute_via(())``), counted in ``degrades``.  Trimming
  fabrics still complete: the receiver NACKs trimmed headers itself, so
  losing the proxy costs the long-haul loss-feedback latency, not the
  run;
* **fail-back** — whenever the preferred member (pool index 0) has been
  healthy for ``failback_stabilization_ps`` while flows are elsewhere
  (including direct), they migrate back, counted in ``failbacks``.  A
  non-preferred member returning from a total outage is re-adopted under
  the same stabilization rule.

Probes read only ``proxy.crashed`` flags and integer queue depths — no
RNG, no packets — so two runs with the same seed stay bit-identical for
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.errors import ConfigError
from repro.units import microseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.net.network import Network
    from repro.sim.simulator import Simulator
    from repro.transport.connection import Connection


class PoolMember(Protocol):
    """What the pool manager needs from a member: any proxy flavour fits.

    ``crashed`` is the health flag fault injection toggles; ``host`` is
    the node whose access-link queues the migration heuristic reads.
    """

    crashed: bool

    @property
    def host(self) -> "Host": ...


@dataclass(frozen=True)
class FailoverConfig:
    """Heartbeat failure-detection and fail-back parameters."""

    probe_interval_ps: int = microseconds(250)
    detection_timeout_ps: int = microseconds(500)
    #: consecutive healthy probe time a preferred (or returning) proxy
    #: must accumulate before flows are migrated (back) onto it.
    failback_stabilization_ps: int = microseconds(500)

    def __post_init__(self) -> None:
        if self.probe_interval_ps <= 0:
            raise ConfigError(
                f"probe_interval_ps must be positive, got {self.probe_interval_ps}"
            )
        if self.detection_timeout_ps < self.probe_interval_ps:
            raise ConfigError(
                f"detection_timeout_ps ({self.detection_timeout_ps}) must be >= "
                f"probe_interval_ps ({self.probe_interval_ps})"
            )
        if self.failback_stabilization_ps < self.probe_interval_ps:
            raise ConfigError(
                f"failback_stabilization_ps ({self.failback_stabilization_ps}) "
                f"must be >= probe_interval_ps ({self.probe_interval_ps})"
            )


class ProxyPoolManager:
    """Keeps a set of connections routed through the best live pool member.

    ``members`` is preference-ordered: index 0 is the primary.  Every
    member must already have each connection's flow attached
    (``member.attach(conn)``) — attachment only registers a handler on the
    member's host, so it is inert until packets are actually routed there.

    ``active_index`` is the member currently carrying flows, or ``None``
    while degraded to direct forwarding.  ``detected_at_ps`` records the
    first time the manager declared the active member dead (the detection
    lag the recovery sweep reports).
    """

    def __init__(
        self,
        sim: "Simulator",
        members: Sequence["PoolMember"],
        connections: Sequence["Connection"],
        cfg: FailoverConfig | None = None,
        *,
        net: "Network | None" = None,
    ) -> None:
        self.sim = sim
        self.members = list(members)
        if not self.members:
            raise ConfigError("proxy pool needs at least one member")
        self.connections = list(connections)
        self.cfg = cfg or FailoverConfig()
        self.net = net
        self.active_index: int | None = 0
        self.failovers = 0
        self.failbacks = 0
        self.degrades = 0
        self.detected_at_ps: int | None = None
        self._unresponsive_ps = 0
        self._alive_ps = [0] * len(self.members)
        self._started = False

    @property
    def migrated(self) -> bool:
        """True while flows are off the primary (legacy one-shot API)."""
        return self.active_index != 0

    def start(self) -> "ProxyPoolManager":
        """Begin heartbeat probing (idempotent)."""
        if not self._started:
            self._started = True
            self._schedule_probe()
        return self

    # -- internals ---------------------------------------------------------------

    def _schedule_probe(self) -> None:
        self.sim.schedule(self.cfg.probe_interval_ps, self._probe)

    def _probe(self) -> None:
        if all(c.completed or c.failed for c in self.connections):
            return  # job done; stop generating events
        cfg = self.cfg
        interval = cfg.probe_interval_ps
        for i, member in enumerate(self.members):
            self._alive_ps[i] = 0 if member.crashed else self._alive_ps[i] + interval
        active = self.active_index
        if active is not None and self.members[active].crashed:
            self._unresponsive_ps += interval
            if self._unresponsive_ps >= cfg.detection_timeout_ps:
                if self.detected_at_ps is None:
                    self.detected_at_ps = self.sim.now
                self._migrate(self._best_alive())
        else:
            self._unresponsive_ps = 0
            if active != 0 and self._alive_ps[0] >= cfg.failback_stabilization_ps:
                self._migrate(0)
            elif active is None:
                candidate = self._best_alive(
                    min_alive_ps=cfg.failback_stabilization_ps
                )
                if candidate is not None:
                    self._migrate(candidate)
        self._schedule_probe()

    def _best_alive(self, min_alive_ps: int = 0) -> int | None:
        """Live member with the shallowest access-link queues (ties: order)."""
        best: int | None = None
        best_key: tuple[int, int] | None = None
        for i, member in enumerate(self.members):
            if member.crashed:
                continue
            if min_alive_ps and self._alive_ps[i] < min_alive_ps:
                continue
            key = (self._queue_depth(member), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def _queue_depth(self, member: "PoolMember") -> int:
        """Current backlog (bytes) on the member host's access link.

        Covers both directions when the manager knows the network: the
        leaf->host downlink is where incast fan-in actually queues.
        """
        host = member.host
        depth = host.nic.backlog_bytes if host.nic is not None else 0
        if self.net is not None:
            for leaf_id in self.net.adjacency.get(host.id, ()):
                port = self.net.nodes[leaf_id].ports.get(host.id)
                if port is not None:
                    depth += port.backlog_bytes
        return depth

    def _migrate(self, index: int | None) -> None:
        if index == self.active_index:
            return
        self.active_index = index
        self._unresponsive_ps = 0
        target = self.members[index] if index is not None else None
        via = (target.host,) if target is not None else ()
        moved = 0
        for conn in self.connections:
            if conn.completed or conn.failed:
                continue
            conn.reroute_via(via)
            moved += 1
        if index is None:
            self.degrades += 1
            kind = "degrade"
        elif index == 0:
            self.failbacks += 1
            kind = "failback"
        else:
            self.failovers += 1
            kind = "migrate"
        probe = self.sim.probe
        if probe is not None:
            probe.on_failover(self, kind, moved)
