"""Queue disciplines for output ports.

Four disciplines cover everything the paper's setups need:

* :class:`DropTailQueue` — plain FIFO with a byte limit.
* :class:`EcnQueue` — FIFO with RED-style ECN marking: packets are marked
  with linearly increasing probability between a low and a high occupancy
  threshold, and always above the high threshold (the paper's DCTCP-like
  setup: 33.2 KB / 136.95 KB at leaf and spine ports, 9.96 MB / 39.84 MB at
  backbone ports).
* :class:`TrimmingQueue` — EcnQueue behaviour for payloads plus NDP-style
  packet trimming: a data packet that would overflow is cut to its header
  and re-queued on a strict-priority control queue, alongside ACKs and
  NACKs.  Used by the *Streamlined* proxy scheme.
* :class:`HostQueue` — the NIC queue of an end host: a large FIFO with an
  optional strict-priority lane for control packets, so a busy proxy NIC
  does not bury its own ACKs/NACKs behind relayed payloads.

All disciplines share the ``offer``/``pop`` interface and count their own
statistics; ports translate outcomes into traces.  ``service_order()``
iterates the queued packets in the order ``pop`` would return them,
without popping: a port reads its virtual backlog through it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator
from enum import IntEnum
from itertools import chain

from repro.net.packet import Packet
from repro.sim.rng import SimRandom


class EnqueueOutcome(IntEnum):
    """What happened to a packet offered to a queue."""

    ENQUEUED = 0
    DROPPED = 1
    TRIMMED = 2


# Hoisted enum members for the offer hot paths: an attribute load off the
# enum class per offered packet is measurable at this call rate.
_ENQUEUED = EnqueueOutcome.ENQUEUED
_DROPPED = EnqueueOutcome.DROPPED
_TRIMMED = EnqueueOutcome.TRIMMED


class QueueStats:
    """Counters every queue maintains."""

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped",
        "trimmed",
        "marked",
        "dropped_bytes",
        "max_occupied_bytes",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.trimmed = 0
        self.marked = 0
        self.dropped_bytes = 0
        self.max_occupied_bytes = 0

    def as_dict(self) -> dict[str, int]:
        """Snapshot for reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class DropTailQueue:
    """FIFO with a byte-capacity limit."""

    __slots__ = ("capacity_bytes", "occupied_bytes", "stats", "_fifo")

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.occupied_bytes = 0
        self.stats = QueueStats()
        self._fifo: deque[Packet] = deque()

    def offer(self, packet: Packet) -> EnqueueOutcome:
        """Accept or drop ``packet``."""
        # The enqueue bookkeeping (_push) is inlined here and in the
        # EcnQueue/TrimmingQueue offers: one offer per forwarded packet makes
        # these the busiest queue methods in a run.
        size = packet.size_bytes
        occupied = self.occupied_bytes + size
        stats = self.stats
        if occupied > self.capacity_bytes:
            stats.dropped += 1
            stats.dropped_bytes += size
            return _DROPPED
        self._fifo.append(packet)
        self.occupied_bytes = occupied
        stats.enqueued += 1
        if occupied > stats.max_occupied_bytes:
            stats.max_occupied_bytes = occupied
        return _ENQUEUED

    def pop(self) -> Packet | None:
        """Remove and return the head packet, or None when empty."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self.occupied_bytes -= packet.size_bytes
        self.stats.dequeued += 1
        return packet

    def service_order(self) -> Iterator[Packet]:
        """The queued packets in pop order, left in place."""
        return iter(self._fifo)

    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def is_empty(self) -> bool:
        return not self._fifo


class EcnQueue(DropTailQueue):
    """Drop-tail FIFO with RED-style ECN marking of DATA packets.

    The marking decision happens at enqueue time against the instantaneous
    occupancy, which is how htsim's random-early-marking queues behave.

    ``rng_source`` is a zero-argument callable returning this queue's RNG
    stream.  It is called once, at the first draw — the first data packet
    offered while the occupancy sits strictly inside the ECN band — so a
    queue that never congests never seeds a stream.
    """

    __slots__ = ("ecn_low_bytes", "ecn_high_bytes", "_rng", "_rng_source")

    def __init__(
        self,
        capacity_bytes: int,
        ecn_low_bytes: int,
        ecn_high_bytes: int,
        rng_source: Callable[[], SimRandom],
    ) -> None:
        super().__init__(capacity_bytes)
        if not 0 <= ecn_low_bytes <= ecn_high_bytes:
            raise ValueError(
                f"ECN thresholds must satisfy 0 <= low <= high, got "
                f"{ecn_low_bytes}/{ecn_high_bytes}"
            )
        self.ecn_low_bytes = ecn_low_bytes
        self.ecn_high_bytes = ecn_high_bytes
        self._rng: SimRandom | None = None
        self._rng_source = rng_source

    def offer(self, packet: Packet) -> EnqueueOutcome:
        size = packet.size_bytes
        occupancy = self.occupied_bytes
        stats = self.stats
        if occupancy + size > self.capacity_bytes:
            stats.dropped += 1
            stats.dropped_bytes += size
            return _DROPPED
        # Inline of _maybe_mark against the pre-enqueue occupancy; the RNG is
        # consulted under exactly the same condition so draw order (and with
        # it every digest) is unchanged.  The stream is seeded here, at its
        # first draw: a stream depends on (master seed, name) only.
        if not packet.is_control and occupancy > self.ecn_low_bytes:
            if occupancy >= self.ecn_high_bytes:
                packet.ecn_ce = True
                stats.marked += 1
            else:
                rng = self._rng
                if rng is None:
                    rng = self._rng = self._rng_source()
                if rng.random() < (
                    (occupancy - self.ecn_low_bytes)
                    / (self.ecn_high_bytes - self.ecn_low_bytes)
                ):
                    packet.ecn_ce = True
                    stats.marked += 1
        self._fifo.append(packet)
        occupancy += size
        self.occupied_bytes = occupancy
        stats.enqueued += 1
        if occupancy > stats.max_occupied_bytes:
            stats.max_occupied_bytes = occupancy
        return _ENQUEUED


class TrimmingQueue:
    """ECN-marking data queue plus a strict-priority control queue with trimming.

    Control packets (ACKs, NACKs, already-trimmed headers) go straight to the
    control lane.  Data packets are ECN-marked against the data occupancy;
    a data packet that would overflow the data lane is trimmed to its header
    and re-offered to the control lane (NDP-style).  Only a full control lane
    actually drops.  ``rng_source`` is called once, at the first in-band
    draw, as in :class:`EcnQueue`.
    """

    __slots__ = ("capacity_bytes", "control_capacity_bytes", "ecn_low_bytes",
                 "ecn_high_bytes", "occupied_bytes", "data_bytes",
                 "control_bytes", "stats", "_rng", "_rng_source", "_data",
                 "_control")

    def __init__(
        self,
        capacity_bytes: int,
        ecn_low_bytes: int,
        ecn_high_bytes: int,
        rng_source: Callable[[], SimRandom],
        control_capacity_bytes: int = 2_000_000,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        if not 0 <= ecn_low_bytes <= ecn_high_bytes:
            raise ValueError(
                f"ECN thresholds must satisfy 0 <= low <= high, got "
                f"{ecn_low_bytes}/{ecn_high_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.control_capacity_bytes = control_capacity_bytes
        self.ecn_low_bytes = ecn_low_bytes
        self.ecn_high_bytes = ecn_high_bytes
        self.occupied_bytes = 0  # data + control, for port-level accounting
        self.data_bytes = 0
        self.control_bytes = 0
        self.stats = QueueStats()
        self._rng: SimRandom | None = None
        self._rng_source = rng_source
        self._data: deque[Packet] = deque()
        self._control: deque[Packet] = deque()

    def offer(self, packet: Packet) -> EnqueueOutcome:
        """Enqueue, trim, or drop ``packet``."""
        # Both lanes are inlined (no _offer_control/_maybe_mark/_account
        # calls): trimming schemes funnel every data packet *and* every
        # ACK/NACK through this method.  The trim path still delegates to
        # _offer_control — it is rare and re-checks the control budget.
        size = packet.size_bytes
        stats = self.stats
        if packet.is_control:
            if self.control_bytes + size > self.control_capacity_bytes:
                stats.dropped += 1
                stats.dropped_bytes += size
                return _DROPPED
            self._control.append(packet)
            self.control_bytes += size
        else:
            occupancy = self.data_bytes
            if occupancy + size > self.capacity_bytes:
                packet.trim()
                stats.trimmed += 1
                return self._offer_control(packet, _TRIMMED)
            # Inline ECN marking against the data-lane occupancy; the RNG is
            # consulted under exactly the same condition as before, so draw
            # order (and every digest) is unchanged.
            if occupancy > self.ecn_low_bytes:
                if occupancy >= self.ecn_high_bytes:
                    packet.ecn_ce = True
                    stats.marked += 1
                else:
                    rng = self._rng
                    if rng is None:
                        rng = self._rng = self._rng_source()
                    if rng.random() < (
                        (occupancy - self.ecn_low_bytes)
                        / (self.ecn_high_bytes - self.ecn_low_bytes)
                    ):
                        packet.ecn_ce = True
                        stats.marked += 1
            self._data.append(packet)
            self.data_bytes = occupancy + size
        occupied = self.occupied_bytes + size
        self.occupied_bytes = occupied
        stats.enqueued += 1
        if occupied > stats.max_occupied_bytes:
            stats.max_occupied_bytes = occupied
        return _ENQUEUED

    def pop(self) -> Packet | None:
        """Dequeue, control lane first."""
        if self._control:
            packet = self._control.popleft()
            self.control_bytes -= packet.size_bytes
        elif self._data:
            packet = self._data.popleft()
            self.data_bytes -= packet.size_bytes
        else:
            return None
        self.occupied_bytes -= packet.size_bytes
        self.stats.dequeued += 1
        return packet

    def service_order(self) -> Iterator[Packet]:
        """The queued packets in pop order (control lane first), left in place."""
        return chain(self._control, self._data)

    def _offer_control(self, packet: Packet, outcome: EnqueueOutcome) -> EnqueueOutcome:
        if self.control_bytes + packet.size_bytes > self.control_capacity_bytes:
            self.stats.dropped += 1
            self.stats.dropped_bytes += packet.size_bytes
            return _DROPPED
        self._control.append(packet)
        self.control_bytes += packet.size_bytes
        self._account_enqueue(packet)
        return outcome

    def _account_enqueue(self, packet: Packet) -> None:
        self.occupied_bytes += packet.size_bytes
        self.stats.enqueued += 1
        if self.occupied_bytes > self.stats.max_occupied_bytes:
            self.stats.max_occupied_bytes = self.occupied_bytes

    def __len__(self) -> int:
        return len(self._data) + len(self._control)

    @property
    def is_empty(self) -> bool:
        return not self._data and not self._control


class HostQueue:
    """An end-host NIC queue: big FIFO, optional control-priority lane."""

    __slots__ = ("capacity_bytes", "control_priority", "occupied_bytes",
                 "stats", "_data", "_control")

    def __init__(
        self,
        capacity_bytes: int = 1_000_000_000,
        control_priority: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.control_priority = control_priority
        self.occupied_bytes = 0
        self.stats = QueueStats()
        self._data: deque[Packet] = deque()
        self._control: deque[Packet] = deque()

    def offer(self, packet: Packet) -> EnqueueOutcome:
        """Accept or drop ``packet`` (hosts drop only when out of memory)."""
        if self.occupied_bytes + packet.size_bytes > self.capacity_bytes:
            self.stats.dropped += 1
            self.stats.dropped_bytes += packet.size_bytes
            return _DROPPED
        if self.control_priority and packet.is_control:
            self._control.append(packet)
        else:
            self._data.append(packet)
        self.occupied_bytes += packet.size_bytes
        self.stats.enqueued += 1
        if self.occupied_bytes > self.stats.max_occupied_bytes:
            self.stats.max_occupied_bytes = self.occupied_bytes
        return _ENQUEUED

    def pop(self) -> Packet | None:
        """Dequeue, control lane first when priority is enabled."""
        if self._control:
            packet = self._control.popleft()
        elif self._data:
            packet = self._data.popleft()
        else:
            return None
        self.occupied_bytes -= packet.size_bytes
        self.stats.dequeued += 1
        return packet

    def service_order(self) -> Iterator[Packet]:
        """The queued packets in pop order (control lane first), left in place."""
        return chain(self._control, self._data)

    def __len__(self) -> int:
        return len(self._data) + len(self._control)

    @property
    def is_empty(self) -> bool:
        return not self._data and not self._control
