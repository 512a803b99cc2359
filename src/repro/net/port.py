"""Output ports: queue + serializing link, one scheduler event per hop.

A port owns one queue discipline and one unidirectional link (rate +
propagation delay).  Store-and-forward semantics: a packet leaves the
queue when its transmission starts, finishes serializing after
``size * 8 / rate``, and arrives at the far node one propagation delay
after that.  The next packet starts serializing the instant the previous
one finishes.

**One event per hop.**  Serialization end is not an event.  When a
packet starts, the port appends it to ``_wire``, schedules its
``_arrive`` at ``start + tx + delay`` and advances ``_free_at``, the tick
its link falls idle.  A packet that waits in the queue starts at the tick
its predecessor's serialization ends, but it is popped *lazily*, by a
catch-up that starts every queued packet whose start tick has come
(``_free_at <= now``), each at its own virtual tick.  Three callers run
it: the next ``send``, the port's own ``_arrive`` and ``set_up``.  Packet
k lands at ``start_k + tx_k + delay``, at or after packet k+1's start
tick ``start_k + tx_k``, so the arrival of one packet always starts the
next and the chain never stalls, even on a zero-delay link.  The
``_wire`` deque is FIFO-correct because a port's propagation delay is
constant: arrivals complete in transmission order.

**The same-tick rule: dequeue first.**  At one tick, every packet whose
start tick is at or before that tick leaves the queue before an offer at
that tick reads the occupancy.  An offer at tick ``t`` therefore sees
exactly the accepted packets whose transmission starts after ``t``: the
store-and-forward queue at ``t``.  This matters because ECN marks and
trims read the occupancy at offer.  Every catch-up trigger applies the
rule the same way: ``send`` catches up before it offers, and
``_arrive`` and ``set_up`` catch up to their own tick.  The re-baseline
protocol (:mod:`repro.analysis.rebaseline`) chose this rule: in canonical
same-tick order it reproduces the two-event port's headline intervals
cell for cell.  A catch-up depends on nothing but virtual time, so it
commutes with every same-tick event of the port's own node.  That is why
the race detector can keep ``_arrive`` in the destination node's domain.

Readers never mutate a port: :attr:`OutputPort.backlog_bytes` returns the
virtual backlog by walking the queue's service order without popping.
A sampler that caught up would schedule arrivals in a different FIFO
position and change the run it observes.

A hop is, on the common path, two calls into this module and none into
the queue: ``send`` finds the link idle (so the queue empty), and when
the discipline's ``IDLE_PASS`` says the empty queue would admit the
packet unchanged (no drop, trim, mark or RNG draw; its size read against
``capacity_bytes`` at the offer), it counts what ``offer`` would have
counted (``enqueued``, ``max_occupied_bytes``) and starts the packet
inline.  Any other offer goes through ``queue.offer``, and on an idle
port ``queue.pop``.  A probed run always takes that full path (``offer``,
``on_offer``, ``pop``, ``on_tx_start``), so every hook reads the
occupancy the model defines, and a run with and without a probe must
give the same digest and counters (``tests/test_probe.py``).
``_arrive`` lands the packet, catches its own port up (inline), and when
the destination switch has a single next hop for it
(``Switch.direct_ports``), offers it straight to that output port.  Only
multi-path destinations (spray/ECMP) go through
:meth:`~repro.net.node.Switch.receive`, and packets for a host through
:meth:`~repro.net.node.Host.receive`.

A link that goes down loses the packet whose serialization spans that
tick (its slot on the wire holds None; its arrival reports it lost);
packets fully serialized before then still land.  Queued packets wait and
resume when the link comes back up.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.queues import EnqueueOutcome
from repro.units import PS_PER_S

# Hoisted enum members: an attribute load off the enum class per offered
# packet is measurable at this call rate.
_DROPPED = EnqueueOutcome.DROPPED
_ENQUEUED = EnqueueOutcome.ENQUEUED

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
        "_free_at",
        "_wire",
        "_lost",
        "_pool_ports",
        "_tx_cache",
        "_sched_call",
        "_arrive_cb",
        "_qoffer",
        "_qpop",
        "_idle_pass",
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
        self.up = True
        #: packets (bytes) that finished serializing or are serializing;
        #: a packet lost on the wire is taken back out.
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
        #: the tick the link finishes the last packet started on it; the
        #: next queued packet starts here
        self._free_at = 0
        #: packets started toward dst_node, in transmission order; None
        #: stands for one lost when the link went down mid-serialization
        self._wire: deque[Packet | None] = deque()
        #: the packets behind the wire's None slots, in the same order;
        #: made at the first loss (an empty deque is ~0.75 kB, per port)
        self._lost: deque[Packet] | None = None
        #: the ports sharing this port's buffer pool (shared-buffer switches):
        #: an offer here reads the pool, so all of them catch up first
        self._pool_ports: list[OutputPort] | None = None
        shared = getattr(queue, "shared", None)
        if shared is not None:
            self._pool_ports = shared.ports
            shared.ports.append(self)
        #: size_bytes -> serialization ps; a run sees a handful of sizes,
        #: so this replaces a float multiply + round() per packet.
        self._tx_cache: dict[int, int] = {}
        # Prebound for the one schedule every transmitted packet performs:
        # the scheduler fast path is called directly (arrival ticks are
        # never in the past by construction, so the Simulator wrapper's
        # guard is redundant here) and the bound method is allocated once
        # instead of once per packet.
        self._sched_call = sim.scheduler.schedule_call
        self._arrive_cb = self._arrive
        self._qoffer = queue.offer
        self._qpop = queue.pop
        #: which packets an idle port starts without the queue
        self._idle_pass = queue.IDLE_PASS
        # Build-time registration with an observer; never on the data path.
        if sim.probe is not None:
            sim.probe.on_port(self)

    def send(self, packet: Packet) -> EnqueueOutcome:
        """Offer ``packet`` to the queue; an idle port starts it at once."""
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
        now = sim.now
        queue = self.queue
        # Dequeue first: packets whose start tick has come leave the queue
        # before this offer reads its occupancy.
        if self._pool_ports is not None:
            for port in self._pool_ports:
                if port._free_at <= now and port.queue.occupied_bytes:
                    port._catch_up(now)
        elif self._free_at <= now and queue.occupied_bytes:
            self._catch_up(now)
        # After the catch-up, an idle link means an empty queue.
        idle = self._free_at <= now
        size = packet.size_bytes
        # IDLE_PASS levels are ordered so that one comparison is the rule:
        # PASS_ANY passes both kinds, PASS_DATA data only.  A probed run
        # takes the full path, so every hook sees the occupancy the model
        # defines: offer, on_offer, pop, on_tx_start.
        if (
            idle
            and probe is None
            and self._idle_pass > packet.is_control
            and size <= queue.capacity_bytes
        ):
            # The empty queue would admit the packet unchanged and pop it
            # at once, so only its counts move.
            stats = queue.stats
            stats.enqueued += 1
            if size > stats.max_occupied_bytes:
                stats.max_occupied_bytes = size
            nxt = packet
            outcome = _ENQUEUED
        else:
            outcome = self._qoffer(packet)
            if probe is not None:
                probe.on_offer(self, packet, outcome is _DROPPED, size)
            if outcome is _DROPPED or not idle:
                return outcome
            nxt = self._qpop()
            if probe is not None:
                probe.on_tx_start(self, nxt)
            size = nxt.size_bytes
        # The link is idle and the queue held nothing else: the packet (or
        # its trimmed header) starts now.  _catch_up inlined, because most
        # offers find their port idle.
        tx_delay = self._tx_cache.get(size)
        if tx_delay is None:
            tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
        self._free_at = now + tx_delay
        self.tx_packets += 1
        self.tx_bytes += size
        self._wire.append(nxt)
        self._sched_call(now + tx_delay + self.delay_ps, self._arrive_cb)
        return outcome

    def _catch_up(self, now: int) -> None:
        """Start every queued packet whose start tick is at or before ``now``."""
        if not self.up:
            return
        free = self._free_at
        queue = self.queue
        probe = self.sim.probe
        while free <= now and queue.occupied_bytes:
            packet = self._qpop()
            if probe is not None:
                probe.on_tx_start(self, packet)
            size = packet.size_bytes
            tx_delay = self._tx_cache.get(size)
            if tx_delay is None:
                tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
            free += tx_delay
            self.tx_packets += 1
            self.tx_bytes += size
            self._wire.append(packet)
            self._sched_call(free + self.delay_ps, self._arrive_cb)
        self._free_at = free

    def _arrive(self) -> None:
        # Constant propagation delay + in-order scheduling means the oldest
        # wire packet is always the one landing now.
        packet = self._wire.popleft()
        sim = self.sim
        now = sim.now
        # This landing is at or after the next queued packet's start tick:
        # catch the port up (inlined _catch_up; the busy port's common path).
        free = self._free_at
        if free <= now and self.queue.occupied_bytes and self.up:
            queue = self.queue
            probe = sim.probe
            while free <= now and queue.occupied_bytes:
                nxt = self._qpop()
                if probe is not None:
                    probe.on_tx_start(self, nxt)
                size = nxt.size_bytes
                tx_delay = self._tx_cache.get(size)
                if tx_delay is None:
                    tx_delay = self._tx_cache[size] = round(size * self._ps_per_byte)
                free += tx_delay
                self.tx_packets += 1
                self.tx_bytes += size
                self._wire.append(nxt)
                self._sched_call(free + self.delay_ps, self._arrive_cb)
            self._free_at = free
        probe = sim.probe
        if packet is None:
            # Its serialization was cut by the link going down.
            lost = self._lost.popleft()
            if probe is not None:
                probe.on_wire_lost(self, lost)
            return
        node = self.dst_node
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

        While down, every offered packet is dropped, and the packet whose
        serialization spans the tick the link goes down is lost: its
        arrival reports it to the probe's ``on_wire_lost`` and it leaves
        ``tx_packets``/``tx_bytes``.  Packets fully serialized before then
        still land.  Queued packets wait; bringing the port back up starts
        them from that tick.
        """
        if self.up == up:
            return
        now = self.sim.now
        if up:
            self.up = True
            if self._free_at < now:
                self._free_at = now
            self._catch_up(now)
            return
        self._catch_up(now)
        self.up = False
        if self._free_at > now:
            # The last packet started is mid-serialization: cut it.
            packet = self._wire[-1]
            self._wire[-1] = None
            if self._lost is None:
                self._lost = deque()
            self._lost.append(packet)
            self.tx_packets -= 1
            self.tx_bytes -= packet.size_bytes
            self._free_at = now

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting in this port's queue at ``now``.

        The virtual backlog: queued bytes minus those of packets whose
        start tick has come but which no catch-up has popped yet.  It walks
        the queue's service order and pops or schedules nothing.
        """
        backlog = self.queue.occupied_bytes
        free = self._free_at
        now = self.sim.now
        if free > now or not backlog or not self.up:
            return backlog
        for packet in self.queue.service_order():
            if free > now:
                break
            size = packet.size_bytes
            backlog -= size
            tx_delay = self._tx_cache.get(size)
            free += tx_delay if tx_delay is not None else round(size * self._ps_per_byte)
        return backlog
