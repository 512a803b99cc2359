"""Output ports: queue + serializing link.

A port owns one queue discipline and one unidirectional link (rate +
propagation delay).  Store-and-forward semantics: the head packet is
dequeued when transmission starts, finishes serializing after
``size * 8 / rate``, and arrives at the far node one propagation delay
after that.  The next packet may start serializing the instant the
previous one finishes.

Hot-path layout: serialization and wire propagation are the two most
frequent events in a run, so both are scheduled through the simulator's
``schedule_call`` fast path with prebound methods — no ``functools.partial``
(or Event handle) is allocated per packet.  The packet mid-serialization
sits in ``_serializing``; packets in flight sit in the ``_wire`` deque,
which is FIFO-correct because a port's propagation delay is constant, so
arrivals complete in transmission order.

A hop is three calls into this module and no others on the common path:
``send`` enqueues and, on an idle port, starts serializing inline;
``_tx_done`` puts the packet on the wire and starts the next one;
``_arrive`` lands it and, when the destination switch has a single
next hop for it (``Switch.direct_ports``), offers it straight to that
output port.  Only multi-path destinations (spray/ECMP) go through
:meth:`~repro.net.node.Switch.receive`, and packets for a host through
:meth:`~repro.net.node.Host.receive`.  ``_start_service`` starts a port
that comes back up (``set_up``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.queues import EnqueueOutcome
from repro.units import PS_PER_S

# Hoisted enum member: an attribute load off the enum class per offered
# packet is measurable at this call rate.
_DROPPED = EnqueueOutcome.DROPPED

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.simulator import Simulator


class OutputPort:
    """A serializing output port feeding one downstream node."""

    __slots__ = (
        "sim",
        "name",
        "queue",
        "rate_bps",
        "delay_ps",
        "dst_node",
        "busy",
        "up",
        "tx_packets",
        "tx_bytes",
        "dropped_while_down",
        "blackhole_fraction",
        "corrupt_fraction",
        "fault_rng",
        "blackholed_packets",
        "corrupted_packets",
        "_ps_per_byte",
        "_serializing",
        "_wire",
        "_tx_cache",
        "_sched_call",
        "_tx_cb",
        "_arrive_cb",
        "_qoffer",
        "_qpop",
    )

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        queue,
        rate_bps: float,
        delay_ps: int,
        dst_node: "Node",
    ) -> None:
        self.sim = sim
        self.name = name
        self.queue = queue
        self.rate_bps = rate_bps
        self.delay_ps = delay_ps
        self.dst_node = dst_node
        self.busy = False
        self.up = True
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_while_down = 0
        # Fault-injection state (repro.faults): a blackhole window silently
        # drops a fraction of offered packets, a corruption window flips bits
        # (the packet still burns bandwidth; the destination host drops it).
        self.blackhole_fraction = 0.0
        self.corrupt_fraction = 0.0
        self.fault_rng = None
        self.blackholed_packets = 0
        self.corrupted_packets = 0
        # Pre-computed serialization cost; exact (80 ps/B) at 100 Gb/s.
        self._ps_per_byte = 8 * PS_PER_S / rate_bps
        #: the packet currently serializing (None while idle or link-lost)
        self._serializing: Packet | None = None
        #: packets in flight toward dst_node, in transmission order
        self._wire: deque[Packet] = deque()
        #: size_bytes -> serialization ps; a run sees a handful of sizes,
        #: so this replaces a float multiply + round() per packet.
        self._tx_cache: dict[int, int] = {}
        # Prebound for the two schedules every transmitted packet performs:
        # the scheduler fast path is called directly (both delays are
        # non-negative by construction, so the Simulator wrapper's guard is
        # redundant here) and the bound methods are allocated once instead
        # of once per packet.
        self._sched_call = sim.scheduler.schedule_call
        self._tx_cb = self._tx_done
        self._arrive_cb = self._arrive
        self._qoffer = queue.offer
        self._qpop = queue.pop
        # Build-time registration with an observer; never on the data path.
        if sim.probe is not None:
            sim.probe.on_port(self)

    def send(self, packet: Packet) -> EnqueueOutcome:
        """Offer ``packet`` to the queue and kick the service loop."""
        sim = self.sim
        probe = sim.probe
        if not self.up:
            self.dropped_while_down += 1
            if probe is not None:
                probe.on_down_drop(self, packet)
            return _DROPPED
        if self.blackhole_fraction > 0 and self._fault_hits(self.blackhole_fraction):
            self.blackholed_packets += 1
            if probe is not None:
                probe.on_blackhole(self, packet)
            return _DROPPED
        if self.corrupt_fraction > 0 and self._fault_hits(self.corrupt_fraction):
            packet.corrupted = True
            self.corrupted_packets += 1
            if probe is not None:
                probe.on_corrupt_mark(self, packet)
        if probe is None:
            outcome = self._qoffer(packet)
        else:
            size_before = packet.size_bytes
            outcome = self._qoffer(packet)
            probe.on_offer(self, packet, outcome is _DROPPED, size_before)
        if outcome is _DROPPED or self.busy:
            return outcome
        # An idle port starts serializing at once; _start_service inlined,
        # because most offers find their port idle.
        nxt = self._qpop()
        if nxt is None:
            return outcome
        self.busy = True
        if probe is not None:
            probe.on_tx_start(self, nxt)
        size = nxt.size_bytes
        tx_delay = self._tx_cache.get(size)
        if tx_delay is None:
            tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
        self._serializing = nxt
        self._sched_call(sim.now + tx_delay, self._tx_cb)
        return outcome

    def _start_service(self) -> None:
        packet = self._qpop()
        if packet is None:
            self.busy = False
            return
        self.busy = True
        sim = self.sim
        if sim.probe is not None:
            sim.probe.on_tx_start(self, packet)
        size = packet.size_bytes
        tx_delay = self._tx_cache.get(size)
        if tx_delay is None:
            tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
        self._serializing = packet
        self._sched_call(sim.now + tx_delay, self._tx_cb)

    def _tx_done(self) -> None:
        packet = self._serializing
        self._serializing = None
        assert packet is not None
        sim = self.sim
        probe = sim.probe
        if not self.up:
            # The link died mid-flight: the packet is lost on the wire and
            # the port goes quiet until it comes back up.
            if probe is not None:
                probe.on_wire_lost(self, packet)
            self.busy = False
            return
        size = packet.size_bytes
        self.tx_packets += 1
        self.tx_bytes += size
        self._wire.append(packet)
        self._sched_call(sim.now + self.delay_ps, self._arrive_cb)
        # Back-to-back service: the next packet (if any) starts serializing
        # immediately; _start_service is inlined because this is where most
        # service starts happen under load.
        nxt = self._qpop()
        if nxt is None:
            self.busy = False
            return
        if probe is not None:
            probe.on_tx_start(self, nxt)
        size = nxt.size_bytes
        tx_delay = self._tx_cache.get(size)
        if tx_delay is None:
            tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
        self._serializing = nxt
        self._sched_call(sim.now + tx_delay, self._tx_cb)

    def _arrive(self) -> None:
        # Constant propagation delay + in-order scheduling means the oldest
        # wire packet is always the one landing now.
        packet = self._wire.popleft()
        node = self.dst_node
        probe = self.sim.probe
        if probe is not None:
            # Told before the node takes it, so an in-transit tally can
            # stay exact.
            probe.on_land(node, packet)
        # Read when the packet lands, not when it was sent, so tables a
        # control plane installs meanwhile apply to it.  A host's is None.
        direct = node.direct_ports
        if direct is not None:
            port = direct.get(packet.dst)
            if port is not None:
                port.send(packet)
                return
        # Looked up per arrival (not prebound): tests and fault hooks
        # legitimately swap a host's receive method.
        node.receive(packet)

    def _fault_hits(self, fraction: float) -> bool:
        """Bernoulli trial on the port's dedicated fault substream.

        Deterministic fractions (>= 1) never touch the RNG, so a 100%
        blackhole leaves every other stream's draw sequence untouched.
        """
        if fraction >= 1.0:
            return True
        rng = self.fault_rng
        if rng is None:
            rng = self.fault_rng = self.sim.rng.stream(f"fault:{self.name}")
        return rng.random() < fraction

    def set_up(self, up: bool) -> None:
        """Bring the port up or down (failure injection).

        While down, every offered packet is dropped and any packet mid-
        serialization is lost.  Bringing the port back up resumes service
        of whatever survived in the queue.
        """
        if self.up == up:
            return
        self.up = up
        if up and not self.busy and not self.queue.is_empty:
            self._start_service()

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting in this port's queue."""
        return self.queue.occupied_bytes
