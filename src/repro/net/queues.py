"""The output-port queue.

One class, :class:`EcnQueue`, covers every per-port queue the paper's
setups need.  It has one data lane with RED-style ECN marking and two
switches, ``control_lane`` and ``trim``; :meth:`repro.config.QueueSpec.build`
is the one place that maps a queue kind to them:

* ``"ecn"`` (off, off) — one FIFO.  Data packets are marked with linearly
  increasing probability between a low and a high occupancy threshold,
  and always above the high one (the paper's DCTCP-like setup: 33.2 KB /
  136.95 KB at leaf and spine ports, 9.96 MB / 39.84 MB at backbone
  ports).  A packet that would overflow ``capacity_bytes`` is dropped.
* ``"trimming"`` (on, on) — NDP-style trimming for the *Streamlined*
  proxy scheme: a data packet that would overflow the data lane is cut
  to its header and joins the strict-priority control lane, alongside
  ACKs and NACKs.  The lanes are bounded apart, the data lane by
  ``capacity_bytes`` and the control lane by ``control_capacity_bytes``;
  only a full control lane drops.
* ``"host"`` (on, off) — the NIC queue of an end host: control packets
  ride ahead of payloads, so a busy proxy NIC does not bury its own
  ACKs/NACKs behind relayed data.  Both lanes share ``capacity_bytes``.

Marking reads the data lane's occupancy before the enqueue.  Thresholds
at capacity never mark: that is how a queue without marking (the host's,
a plain drop-tail FIFO) is built.  The shared-buffer queue, whose
admission reads the switch's pool, is
:class:`repro.net.buffers.SharedEcnQueue`.

Queues share the ``offer``/``pop`` interface and count their own
statistics; ports translate outcomes into traces.  ``service_order()``
iterates the queued packets in the order ``pop`` would return them,
without popping: a port reads its virtual backlog through it.

Each queue also declares, in its ``IDLE_PASS`` attribute, which packets
it would admit unchanged while *empty*: no drop, no trim, no ECN mark and
no RNG draw.  An idle, unprobed port starts such a packet without
entering the queue (:meth:`repro.net.port.OutputPort.send`) and counts
only what ``offer`` would have counted: ``stats.enqueued`` and
``stats.max_occupied_bytes``.  The levels are ordered so that a packet
passes when ``IDLE_PASS > packet.is_control`` and its size is at most
``capacity_bytes``, read at the offer (a fault may shrink it mid-run).
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


# Hoisted enum members for the offer hot path: an attribute load off the
# enum class per offered packet is measurable at this call rate.
_ENQUEUED = EnqueueOutcome.ENQUEUED
_DROPPED = EnqueueOutcome.DROPPED
_TRIMMED = EnqueueOutcome.TRIMMED

#: ``IDLE_PASS`` levels.  No packet passes: every offer enters the queue.
PASS_NONE = 0
#: Data packets within ``capacity_bytes`` pass; control packets do not.
PASS_DATA = 1
#: Every packet within ``capacity_bytes`` passes.
PASS_ANY = 2


class QueueStats:
    """Counters every queue maintains."""

    __slots__ = (
        "enqueued",
        "dropped",
        "trimmed",
        "marked",
        "dropped_bytes",
        "max_occupied_bytes",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dropped = 0
        self.trimmed = 0
        self.marked = 0
        self.dropped_bytes = 0
        self.max_occupied_bytes = 0

    def as_dict(self) -> dict[str, int]:
        """Snapshot for reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class EcnQueue:
    """A data lane with RED-style ECN marking, an optional strict-priority
    control lane and optional trimming (which needs the control lane).

    With ``control_lane``, control packets (ACKs, NACKs, trimmed headers)
    queue ahead of data.  Without ``trim`` both lanes share
    ``capacity_bytes``; with it the data lane alone is bounded by
    ``capacity_bytes`` and the control lane by ``control_capacity_bytes``.

    The marking decision happens at enqueue time against the data lane's
    instantaneous occupancy, which is how htsim's random-early-marking
    queues behave.  ``rng_source`` is a zero-argument callable returning
    this queue's RNG stream.  It is called once, at the first draw — the
    first data packet offered while the occupancy sits strictly inside the
    ECN band — so a queue that never congests never seeds a stream.
    """

    __slots__ = ("capacity_bytes", "control_capacity_bytes", "ecn_low_bytes",
                 "ecn_high_bytes", "control_lane", "trim", "IDLE_PASS",
                 "occupied_bytes", "data_bytes", "stats", "_rng", "_rng_source",
                 "_data", "_control")

    def __init__(
        self,
        capacity_bytes: int,
        ecn_low_bytes: int,
        ecn_high_bytes: int,
        rng_source: Callable[[], SimRandom],
        *,
        control_lane: bool = False,
        trim: bool = False,
        control_capacity_bytes: int = 2_000_000,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity_bytes}")
        if not 0 <= ecn_low_bytes <= ecn_high_bytes:
            raise ValueError(
                f"ECN thresholds must satisfy 0 <= low <= high, got "
                f"{ecn_low_bytes}/{ecn_high_bytes}"
            )
        if trim and not control_lane:
            raise ValueError("trimming needs the control lane")
        self.capacity_bytes = capacity_bytes
        self.control_capacity_bytes = control_capacity_bytes
        self.ecn_low_bytes = ecn_low_bytes
        self.ecn_high_bytes = ecn_high_bytes
        self.control_lane = control_lane
        self.trim = trim
        #: An empty queue admits any packet that fits, unmarked.  With
        #: trimming, control packets go to a lane whose own cap the pass
        #: rule does not read, so only data packets pass.
        self.IDLE_PASS = PASS_DATA if trim else PASS_ANY
        self.occupied_bytes = 0  # both lanes, for port-level accounting
        self.data_bytes = 0
        self.stats = QueueStats()
        self._rng: SimRandom | None = None
        self._rng_source = rng_source
        self._data: deque[Packet] = deque()
        # A queue without the lane shares the empty tuple: a second deque
        # per port is measurable in a large fabric's resident memory.
        self._control: deque[Packet] | tuple[()] = deque() if control_lane else ()

    @property
    def control_bytes(self) -> int:
        """Bytes queued on the control lane."""
        return self.occupied_bytes - self.data_bytes

    def offer(self, packet: Packet) -> EnqueueOutcome:
        """Enqueue, trim or drop ``packet``."""
        # Lane choice, marking and accounting are inlined: every offer to a
        # busy port lands here.  A trimmed header re-enters once, as the
        # control packet it has become.
        size = packet.size_bytes
        stats = self.stats
        occupied = self.occupied_bytes + size
        if packet.is_control and self.control_lane:
            if (
                occupied - self.data_bytes > self.control_capacity_bytes
                if self.trim
                else occupied > self.capacity_bytes
            ):
                stats.dropped += 1
                stats.dropped_bytes += size
                return _DROPPED
            self._control.append(packet)
        else:
            occupancy = self.data_bytes
            if (occupancy + size if self.trim else occupied) > self.capacity_bytes:
                if self.trim:
                    packet.trim()
                    stats.trimmed += 1
                    return _TRIMMED if self.offer(packet) is _ENQUEUED else _DROPPED
                stats.dropped += 1
                stats.dropped_bytes += size
                return _DROPPED
            # The RNG is consulted under exactly this condition, so the draw
            # order (and with it every digest) depends on the data lane
            # alone.  The stream is seeded here, at its first draw.
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
            self._data.append(packet)
            self.data_bytes = occupancy + size
        self.occupied_bytes = occupied
        stats.enqueued += 1
        if occupied > stats.max_occupied_bytes:
            stats.max_occupied_bytes = occupied
        return _ENQUEUED

    def pop(self) -> Packet | None:
        """Dequeue, control lane first; None when empty."""
        if self._control:
            packet = self._control.popleft()
        elif self._data:
            packet = self._data.popleft()
            self.data_bytes -= packet.size_bytes
        else:
            return None
        self.occupied_bytes -= packet.size_bytes
        return packet

    def service_order(self) -> Iterator[Packet]:
        """The queued packets in pop order (control lane first), left in place."""
        return chain(self._control, self._data)

    def __len__(self) -> int:
        return len(self._data) + len(self._control)

    @property
    def is_empty(self) -> bool:
        return not self._data and not self._control
