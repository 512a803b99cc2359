"""Compile a :class:`~repro.faults.plan.FaultPlan` onto the event scheduler.

The :class:`FaultInjector` translates declarative fault events into
scheduler callbacks against the *built* run: link state changes go through
:meth:`Network.set_link_state`, blackhole/corruption/buffer windows set
per-port fault state (see :class:`~repro.net.port.OutputPort`), and proxy
crashes call the proxy objects' ``crash()``/``restart()`` methods.

Determinism: probabilistic faults draw from per-port RNG substreams named
``fault:<port-name>`` (seeded by name, so creation order is irrelevant) and
never from any stream an unfaulted run uses — two runs with the same seed
and the same plan are bit-identical for any worker count.

Target grammar (validated when the injector is armed):

* ``"backbone"``            — every backbone router / its links;
* ``"backbone:<i>"``        — backbone router ``i`` (isolating one of the
  64 long-haul paths packet spraying uses);
* ``"backbone:<i>:<j>"``    — link ``j`` of backbone router ``i``, in the
  router's adjacency order (``0`` faces the left-hand datacenter);
* ``"proxy"`` / ``"primary"`` — the primary proxy host's access link;
* ``"backup"``              — the backup proxy host's access link;
* ``"sender:<i>"``          — incast sender ``i``'s access link;
* ``"receiver"``            — the receiver's access link;
* ``"all"``                 — every port / link in the network.

A *well-formed* target naming a role this run does not have (``"proxy"``
under the baseline scheme, ``"sender:7"`` at degree 4) is **skipped**, not
an error — the same plan stays comparable across schemes and degrees.  The
injector counts applied vs skipped events so results record the coverage.
"""

from __future__ import annotations

import re
import time as _time
from functools import partial
from typing import TYPE_CHECKING, Iterable

from repro.errors import FaultError, InjectedFaultError
from repro.faults.plan import (
    BufferDegrade,
    CrashRun,
    FaultEvent,
    FaultPlan,
    LinkDown,
    LinkUp,
    PacketBlackhole,
    PacketCorrupt,
    ProxyCrash,
    ProxyRestart,
    StallRun,
    _events_of,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Host, Switch
    from repro.net.port import OutputPort
    from repro.sim.simulator import Simulator

_ROLE_TARGETS = ("all", "backbone", "receiver", "proxy", "primary", "backup")
_INDEXED_TARGET = re.compile(r"backbone:[0-9]+(:[0-9]+)?|sender:[0-9]+")


def _validate_target(target: str) -> None:
    """Reject malformed target strings up front (arming time, not mid-run)."""
    if target in _ROLE_TARGETS or _INDEXED_TARGET.fullmatch(target):
        return
    if target.startswith(("backbone:", "sender:")):
        raise FaultError(f"target {target!r}: index must be a non-negative integer")
    raise FaultError(
        f"unknown fault target {target!r}; use one of {_ROLE_TARGETS} or "
        f"'backbone:<i>' / 'backbone:<i>:<j>' / 'sender:<i>'"
    )


class FaultContext:
    """Handles the injector resolves symbolic targets against.

    Every field is optional so a context can describe anything from a
    two-host unit-test pair to the full incast topology.  Proxies are keyed
    by role (``"primary"``, ``"backup"``) and must expose ``crash()`` /
    ``restart()``.
    """

    def __init__(
        self,
        net: "Network",
        *,
        sender_hosts: Iterable["Host"] = (),
        receiver_host: "Host | None" = None,
        proxies: dict[str, object] | None = None,
        proxy_hosts: dict[str, "Host"] | None = None,
        backbone: Iterable["Switch"] = (),
    ) -> None:
        self.net = net
        self.sender_hosts = tuple(sender_hosts)
        self.receiver_host = receiver_host
        self.proxies = dict(proxies or {})
        self.proxy_hosts = dict(proxy_hosts or {})
        self.backbone = tuple(backbone)

    # -- resolution helpers ----------------------------------------------------

    def _host_for_role(self, role: str) -> "Host | None":
        if role == "receiver":
            return self.receiver_host
        if role in ("proxy", "primary"):
            return self.proxy_hosts.get("primary")
        if role == "backup":
            return self.proxy_hosts.get("backup")
        if role.startswith("sender:"):
            index = int(role.split(":", 1)[1])
            if index < len(self.sender_hosts):
                return self.sender_hosts[index]
        return None

    def _access_link(self, host: "Host") -> tuple[int, int] | None:
        neighbors = self.net.adjacency.get(host.id, [])
        return (host.id, neighbors[0]) if neighbors else None

    def _router_links(self, router: "Switch") -> list[tuple[int, int]]:
        return [(router.id, peer) for peer in self.net.adjacency.get(router.id, [])]

    def resolve_links(self, target: str) -> list[tuple[int, int]]:
        """Node-id pairs of every link ``target`` names (may be empty)."""
        if target == "all":
            pairs = []
            for a, peers in self.net.adjacency.items():
                pairs.extend((a, b) for b in peers if a < b)
            return pairs
        if target == "backbone":
            return [pair for r in self.backbone for pair in self._router_links(r)]
        if target.startswith("backbone:"):
            index, *link = (int(i) for i in target.split(":")[1:])
            if index >= len(self.backbone):
                return []
            links = self._router_links(self.backbone[index])
            return links[link[0]:link[0] + 1] if link else links
        host = self._host_for_role(target)
        if host is None:
            return []
        link = self._access_link(host)
        return [link] if link is not None else []

    def resolve_ports(self, target: str) -> list["OutputPort"]:
        """Every output port on a link ``target`` names (both directions)."""
        ports: list[OutputPort] = []
        for a_id, b_id in self.resolve_links(target):
            port_ab = self.net.nodes[a_id].ports.get(b_id)
            port_ba = self.net.nodes[b_id].ports.get(a_id)
            ports.extend(p for p in (port_ab, port_ba) if p is not None)
        return ports


class FaultInjector:
    """Executes a fault plan against one run, deterministically."""

    def __init__(self, sim: "Simulator", plan: "FaultPlan | Iterable[FaultEvent]",
                 ctx: FaultContext) -> None:
        self.sim = sim
        self.events = _events_of(plan)
        self.ctx = ctx
        self.applied = 0
        self.skipped = 0
        self._armed = False
        self._subscribers: list = []
        # Active overlapping windows per port: lists of fractions/factors.
        self._blackholes: dict[OutputPort, list[float]] = {}
        self._corruptions: dict[OutputPort, list[float]] = {}
        self._degrades: dict[object, tuple[int, list[float]]] = {}  # queue -> (orig, factors)

    # -- arming ---------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Validate the plan and schedule every event; call once, before run."""
        if self._armed:
            raise FaultError("injector is already armed")
        self._armed = True
        for event in self.events:
            self._validate(event)
        for event in sorted(self.events, key=lambda e: e.at_ps):
            self.sim.schedule_at(event.at_ps, partial(self._fire, event))
        return self

    def _validate(self, event: FaultEvent) -> None:
        if isinstance(event, (LinkDown, LinkUp)):
            _validate_target(event.link)
        elif isinstance(event, (PacketBlackhole, PacketCorrupt, BufferDegrade)):
            _validate_target(event.target)
        # ProxyCrash/ProxyRestart roles and CrashRun/StallRun parameters are
        # validated by their own dataclass __post_init__.

    # -- subscription ---------------------------------------------------------

    def subscribe(self, callback) -> None:
        """Register ``callback(event, applied)``, invoked after each
        topology/proxy fault fires — the control plane's event feed.

        Engine-test faults (:class:`CrashRun`, :class:`StallRun`) do not
        notify: they model the simulation *process* failing, which no
        in-simulation controller could observe.
        """
        self._subscribers.append(callback)

    # -- firing ---------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        if isinstance(event, CrashRun):
            self.applied += 1
            raise InjectedFaultError(event.message)
        if isinstance(event, StallRun):
            self.applied += 1
            # A StallRun deliberately burns wall time to exercise the
            # engine's per-run deadline quarantine.
            # repro: allow[wall-clock] deliberate stall fault
            _time.sleep(event.wall_seconds)
            return
        if isinstance(event, LinkDown):
            applied = self._set_links(event.link, up=False)
        elif isinstance(event, LinkUp):
            applied = self._set_links(event.link, up=True)
        elif isinstance(event, ProxyCrash):
            applied = self._proxy_call(event.proxy, "crash")
        elif isinstance(event, ProxyRestart):
            applied = self._proxy_call(event.proxy, "restart")
        elif isinstance(event, PacketBlackhole):
            applied = self._open_window(
                event, self._blackholes, event.drop_fraction, "blackhole_fraction"
            )
        elif isinstance(event, PacketCorrupt):
            applied = self._open_window(
                event, self._corruptions, event.corrupt_fraction, "corrupt_fraction"
            )
        elif isinstance(event, BufferDegrade):
            applied = self._open_degrade(event)
        else:  # pragma: no cover - new event kinds must be wired here
            raise FaultError(f"injector cannot execute {type(event).__name__}")
        self._count(applied)
        for callback in self._subscribers:
            callback(event, applied)

    def _count(self, applied: bool) -> None:
        if applied:
            self.applied += 1
        else:
            self.skipped += 1

    # -- link state -----------------------------------------------------------

    def _set_links(self, target: str, up: bool) -> bool:
        links = self.ctx.resolve_links(target)
        for a_id, b_id in links:
            self.ctx.net.set_link_state(a_id, b_id, up)
        return bool(links)

    # -- proxies --------------------------------------------------------------

    def _proxy_call(self, role: str, method: str) -> bool:
        proxy = self.ctx.proxies.get(role)
        if proxy is None:
            return False
        getattr(proxy, method)()
        return True

    # -- blackhole / corruption windows ----------------------------------------

    def _open_window(
        self,
        event: "PacketBlackhole | PacketCorrupt",
        active: dict,
        fraction: float,
        attr: str,
    ) -> bool:
        ports = self.ctx.resolve_ports(event.target)
        if not ports:
            return False
        for port in ports:
            active.setdefault(port, []).append(fraction)
            setattr(port, attr, max(active[port]))
        self.sim.schedule_at(
            event.ends_at_ps, partial(self._close_window, ports, active, fraction, attr)
        )
        return True

    def _close_window(
        self, ports: list, active: dict, fraction: float, attr: str
    ) -> None:
        for port in ports:
            fractions = active.get(port, [])
            if fraction in fractions:
                fractions.remove(fraction)
            setattr(port, attr, max(fractions) if fractions else 0.0)

    # -- buffer degradation -----------------------------------------------------

    def _open_degrade(self, event: BufferDegrade) -> bool:
        ports = self.ctx.resolve_ports(event.target)
        if not ports:
            return False
        for port in ports:
            if not hasattr(port.queue, "capacity_bytes"):
                # DT admission sizes the port from the switch's pool.
                raise FaultError(
                    f"BufferDegrade: port {port.name} draws on a shared buffer "
                    "and has no per-port capacity to shrink"
                )
        queues = [port.queue for port in ports]
        for queue in queues:
            orig, factors = self._degrades.get(queue, (queue.capacity_bytes, []))
            factors.append(event.factor)
            self._degrades[queue] = (orig, factors)
            self._apply_degrade(queue)
        self.sim.schedule_at(
            event.ends_at_ps, partial(self._close_degrade, queues, event.factor)
        )
        return True

    def _close_degrade(self, queues: list, factor: float) -> None:
        for queue in queues:
            orig, factors = self._degrades[queue]
            if factor in factors:
                factors.remove(factor)
            self._apply_degrade(queue)

    def _apply_degrade(self, queue) -> None:
        orig, factors = self._degrades[queue]
        scale = 1.0
        for factor in factors:
            scale *= factor
        # Packets already queued beyond the shrunken capacity stay (the
        # memory they sit in is what degraded); only new arrivals see it.
        queue.capacity_bytes = max(1, round(orig * scale))


def arm_faults(
    sim: "Simulator",
    plan: "FaultPlan | Iterable[FaultEvent] | None",
    ctx: FaultContext,
) -> FaultInjector | None:
    """Arm ``plan`` on ``sim`` (convenience; returns None for empty plans)."""
    events = _events_of(plan)
    if not events:
        return None
    injector = FaultInjector(sim, events, ctx).arm()
    if sim.probe is not None:
        sim.probe.on_fault_injector(injector)
    return injector
