"""Shared switch buffers with Dynamic Threshold (DT) admission.

The paper's intro argues deep buffers are not a viable answer to
inter-datacenter incast; to make that an *experiment* rather than a
citation, this module models the standard alternative to static per-port
buffers: one buffer pool per switch, with per-port admission controlled by
the classic Dynamic Threshold rule — a packet is admitted only while its
port's queue is shorter than ``alpha x (free shared bytes)`` (Choudhury &
Hahne; the scheme ABM/Reverie refine).  Ports hog less when the switch is
busy, and an incast port can borrow most of the pool when the rest of the
switch is idle.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.net.queues import EnqueueOutcome, QueueStats
from repro.sim.rng import SimRandom


class SharedBuffer:
    """One switch's buffer pool."""

    __slots__ = ("total_bytes", "occupied_bytes", "peak_bytes", "ports")

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise ConfigError("shared buffer must be positive")
        self.total_bytes = total_bytes
        self.occupied_bytes = 0
        self.peak_bytes = 0
        #: the output ports whose queues draw on this pool (they register
        #: themselves): each catches all of them up before it offers
        self.ports: list = []

    @property
    def free_bytes(self) -> int:
        """Unused pool bytes."""
        return self.total_bytes - self.occupied_bytes

    def acquire(self, nbytes: int) -> None:
        """Account an admitted packet."""
        self.occupied_bytes += nbytes
        if self.occupied_bytes > self.peak_bytes:
            self.peak_bytes = self.occupied_bytes

    def release(self, nbytes: int) -> None:
        """Account a departed packet."""
        self.occupied_bytes -= nbytes


class SharedEcnQueue:
    """A port queue drawing from a :class:`SharedBuffer` under DT admission.

    ECN marking uses the same RED-style low/high thresholds as
    :class:`~repro.net.queues.EcnQueue`, applied to the port's own
    occupancy, so DCTCP behaviour is unchanged — only the drop point moves
    with the switch-wide load.  As there, ``rng_source`` is called once, at
    the first in-band draw.
    """

    def __init__(
        self,
        shared: SharedBuffer,
        alpha: float,
        ecn_low_bytes: int,
        ecn_high_bytes: int,
        rng_source: Callable[[], SimRandom],
    ) -> None:
        if alpha <= 0:
            raise ConfigError("DT alpha must be positive")
        if not 0 <= ecn_low_bytes <= ecn_high_bytes:
            raise ConfigError("ECN thresholds must satisfy 0 <= low <= high")
        self.shared = shared
        self.alpha = alpha
        self.ecn_low_bytes = ecn_low_bytes
        self.ecn_high_bytes = ecn_high_bytes
        self.occupied_bytes = 0
        self.stats = QueueStats()
        self._rng: SimRandom | None = None
        self._rng_source = rng_source
        self._fifo: deque[Packet] = deque()

    # The dynamic limit this instant.
    def threshold_bytes(self) -> int:
        """Current DT admission limit for this port."""
        return round(self.alpha * self.shared.free_bytes)

    def offer(self, packet: Packet) -> EnqueueOutcome:
        """DT admission, then RED-style marking."""
        size = packet.size_bytes
        if (
            self.shared.occupied_bytes + size > self.shared.total_bytes
            or self.occupied_bytes + size > self.threshold_bytes()
        ):
            self.stats.dropped += 1
            self.stats.dropped_bytes += size
            return EnqueueOutcome.DROPPED
        if not packet.is_control:
            self._maybe_mark(packet)
        self._fifo.append(packet)
        self.occupied_bytes += size
        self.shared.acquire(size)
        self.stats.enqueued += 1
        if self.occupied_bytes > self.stats.max_occupied_bytes:
            self.stats.max_occupied_bytes = self.occupied_bytes
        return EnqueueOutcome.ENQUEUED

    def _maybe_mark(self, packet: Packet) -> None:
        occupancy = self.occupied_bytes
        if occupancy <= self.ecn_low_bytes:
            return
        if occupancy >= self.ecn_high_bytes:
            packet.ecn_ce = True
            self.stats.marked += 1
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_source()
        span = self.ecn_high_bytes - self.ecn_low_bytes
        if rng.random() < (occupancy - self.ecn_low_bytes) / span:
            packet.ecn_ce = True
            self.stats.marked += 1

    def pop(self) -> Packet | None:
        """Dequeue and return shared bytes to the pool."""
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self.occupied_bytes -= packet.size_bytes
        self.shared.release(packet.size_bytes)
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
