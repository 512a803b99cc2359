"""Nodes: switches and hosts.

A :class:`Switch` forwards packets using the routing strategy installed by
:meth:`repro.net.network.Network.finalize`.  A :class:`Host` terminates
packets, demultiplexing them to per-flow handlers (transport endpoints or
proxy applications) registered on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import RoutingError, TopologyError
from repro.net.packet import Packet
from repro.net.port import OutputPort
from repro.sim.rng import SimRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.routing import RoutingStrategy
    from repro.sim.simulator import Simulator

PacketHandler = Callable[[Packet], None]


class Node:
    """Common base: identity plus a set of output ports keyed by neighbor id."""

    #: Destination id -> output port for arrivals forwarded without
    #: receive() (see Switch).  None on a host, where every landing packet
    #: goes to receive(); a class attribute, so a host's pickled state
    #: does not carry it.
    direct_ports: dict[int, OutputPort] | None = None

    def __init__(self, sim: "Simulator", node_id: int, name: str, dc: int) -> None:
        self.sim = sim
        self.id = node_id
        self.name = name
        self.dc = dc
        self.ports: dict[int, OutputPort] = {}

    def attach_port(self, neighbor_id: int, port: OutputPort) -> None:
        """Install the output port leading to ``neighbor_id``."""
        if neighbor_id in self.ports:
            raise TopologyError(f"{self.name} already has a port to node {neighbor_id}")
        self.ports[neighbor_id] = port

    def receive(self, packet: Packet) -> None:
        """Handle an arriving packet."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, id={self.id}, dc={self.dc})"


class Switch(Node):
    """A store-and-forward switch with a pluggable routing strategy."""

    def __init__(self, sim: "Simulator", node_id: int, name: str, dc: int) -> None:
        super().__init__(sim, node_id, name, dc)
        self.routing: "RoutingStrategy | None" = None
        self.spray_rng: SimRandom | None = None
        #: Filled by Network.finalize(): destinations with exactly one
        #: equal-cost next hop map straight to the output port.  An arriving
        #: packet for one of them is forwarded by the port it lands from
        #: (OutputPort._arrive) without calling receive(); with one
        #: candidate every strategy returns it without touching an RNG or
        #: a hash, so skipping the strategy changes nothing.
        self.direct_ports: dict[int, OutputPort] = {}

    def receive(self, packet: Packet) -> None:
        """Forward toward ``packet.dst`` through the routing strategy.

        Arrivals reach this only for destinations missing from
        :attr:`direct_ports`: the multi-path ones, spread by spraying or
        ECMP.
        """
        routing = self.routing
        if routing is None:
            raise RoutingError(f"switch {self.name} has no routing installed")
        next_hop = routing.next_hop(self, packet)
        self.ports[next_hop].send(packet)


class Host(Node):
    """An end host: one NIC uplink, per-flow packet handlers."""

    def __init__(self, sim: "Simulator", node_id: int, name: str, dc: int) -> None:
        super().__init__(sim, node_id, name, dc)
        self.nic: OutputPort | None = None
        self.handlers: dict[int, PacketHandler] = {}
        self.stray_packets = 0
        self.corrupt_dropped = 0

    def attach_port(self, neighbor_id: int, port: OutputPort) -> None:
        if self.nic is not None:
            raise TopologyError(f"host {self.name} is single-homed; NIC already attached")
        super().attach_port(neighbor_id, port)
        self.nic = port

    def register_handler(self, flow_id: int, handler: PacketHandler) -> None:
        """Bind ``handler`` to packets of ``flow_id`` delivered to this host."""
        if flow_id in self.handlers:
            raise TopologyError(
                f"host {self.name} already has a handler for flow {flow_id}"
            )
        self.handlers[flow_id] = handler

    def unregister_handler(self, flow_id: int) -> None:
        """Remove the handler for ``flow_id`` (no-op if absent)."""
        self.handlers.pop(flow_id, None)

    def send(self, packet: Packet) -> None:
        """Transmit ``packet`` out of the NIC."""
        if self.nic is None:
            raise TopologyError(f"host {self.name} is not connected")
        probe = self.sim.probe
        if probe is not None:
            # Host NICs are the sole injection points: transport sends,
            # ACKs/NACKs, and proxy relays all pass through here.
            probe.on_inject(self, packet)
        self.nic.send(packet)

    def receive(self, packet: Packet) -> None:
        """Deliver to the flow's handler; count strays for diagnostics."""
        probe = self.sim.probe
        if packet.corrupted:
            # The NIC checksum catches a corrupted packet: it consumed
            # bandwidth and buffer space all the way here, but the stack
            # never sees it — strictly worse than a clean in-network drop.
            self.corrupt_dropped += 1
            if probe is not None:
                probe.on_corrupt_drop(self, packet)
            return
        handler = self.handlers.get(packet.flow_id)
        if handler is None:
            self.stray_packets += 1
            if probe is not None:
                probe.on_stray(self, packet)
            return
        if probe is not None:
            probe.on_deliver(self, packet)
        handler(packet)

    @property
    def nic_rate_bps(self) -> float:
        """Line rate of the host NIC."""
        if self.nic is None:
            raise TopologyError(f"host {self.name} is not connected")
        return self.nic.rate_bps
