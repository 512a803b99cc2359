"""Configuration dataclasses and the paper's parameter presets.

Everything tunable lives here as frozen dataclasses, so experiment sweeps
can derive variants with ``dataclasses.replace`` and a config in a result
record unambiguously describes the run that produced it.

``paper_interdc_config()`` encodes §4.1 of the paper verbatim: two
leaf–spine datacenters (8 spines × 8 leaves × 8 servers, 100 Gb/s / 1 µs
links), 64 backbone routers with 100 Gb/s / 1 ms links, 17.015 MB
leaf/spine port buffers with 33.2 KB / 136.95 KB ECN thresholds, and
49.8 MB backbone buffers with 9.96 MB / 39.84 MB thresholds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.net.queues import EcnQueue
from repro.sim.rng import SimRandom
from repro.units import gbps, kilobytes, megabytes, microseconds, milliseconds


# ---------------------------------------------------------------------------
# Queues
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueueSpec:
    """Recipe for one output-port queue: an
    :class:`~repro.net.queues.EcnQueue` with the switches ``kind`` names."""

    kind: str  # "ecn" | "trimming" | "host"
    capacity_bytes: int
    ecn_low_bytes: int = 0
    ecn_high_bytes: int = 0
    control_capacity_bytes: int = 2_000_000

    def __post_init__(self) -> None:
        if self.kind not in ("ecn", "trimming", "host"):
            raise ConfigError(f"unknown queue kind {self.kind!r}")
        if self.capacity_bytes <= 0:
            raise ConfigError(f"queue capacity must be positive, got {self.capacity_bytes}")
        if self.kind in ("ecn", "trimming") and not (
            0 <= self.ecn_low_bytes <= self.ecn_high_bytes <= self.capacity_bytes
        ):
            raise ConfigError(
                "ECN thresholds must satisfy 0 <= low <= high <= capacity, got "
                f"{self.ecn_low_bytes}/{self.ecn_high_bytes}/{self.capacity_bytes}"
            )
        if self.kind == "trimming" and self.control_capacity_bytes <= 0:
            raise ConfigError(
                f"control lane capacity must be positive, got {self.control_capacity_bytes}"
            )

    def build(self, rng_source: Callable[[], SimRandom]) -> EcnQueue:
        """Instantiate the queue: ``ecn`` is (control lane off, trim off),
        ``trimming`` (on, on) and ``host`` (on, off), unmarked.

        ``rng_source`` returns the queue's RNG stream when called.  A queue
        calls it once, at its first in-band draw; a host queue's thresholds
        sit at its capacity, so it never draws.
        """
        if self.kind == "host":
            cap = self.capacity_bytes
            return EcnQueue(cap, cap, cap, rng_source, control_lane=True)
        trim = self.kind == "trimming"
        return EcnQueue(
            self.capacity_bytes,
            self.ecn_low_bytes,
            self.ecn_high_bytes,
            rng_source,
            control_lane=trim,
            trim=trim,
            control_capacity_bytes=self.control_capacity_bytes,
        )

    def with_trimming(self, enabled: bool) -> "QueueSpec":
        """The same spec with trimming switched on or off."""
        if self.kind not in ("ecn", "trimming"):
            return self
        return replace(self, kind="trimming" if enabled else "ecn")


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the DCTCP-like transport (paper §4.1).

    ``initial_window_bdp`` scales the initial congestion window to the
    connection's own path BDP (the paper sets 1 BDP, following Homa/UEC
    practice, which is what makes the first inter-DC RTT so destructive).
    ``min_rto_ps=None`` derives the RTO floor from the path RTT
    (``rto_floor_rtt_multiple`` x base RTT), so intra-DC legs get
    microsecond-level timeouts and inter-DC legs millisecond-level ones.
    """

    payload_bytes: int = 4096
    header_bytes: int = 64
    cc: str = "dctcp"  # "dctcp" | "aimd" | "bbr"
    initial_window_bdp: float = 1.0
    min_cwnd_packets: float = 1.0
    dctcp_gain: float = 0.0625
    nack_cut_factor: float = 0.5
    rack_window_min_ps: int = microseconds(4)
    rack_window_rtt_fraction: float = 0.25
    min_rto_ps: int | None = None
    rto_floor_rtt_multiple: float = 3.0
    rto_absolute_floor_ps: int = microseconds(20)
    max_rto_ps: int = milliseconds(400)
    ack_bytes: int = 64
    #: cumulative-ACK coalescing: acknowledge every Nth in-order packet
    #: (out-of-order arrivals and trimmed headers are signalled immediately,
    #: and a delayed-ACK timer bounds the wait, as in TCP).
    ack_every: int = 1
    delack_timeout_ps: int = microseconds(50)
    #: Give up on a flow after this many back-to-back RTOs with no forward
    #: progress (the sender reports failure instead of backing off forever).
    #: ``None`` — the default — keeps the pre-fault-injection behaviour of
    #: retrying until the simulation horizon.
    max_consecutive_timeouts: int | None = None

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ConfigError(f"payload_bytes must be positive, got {self.payload_bytes}")
        if self.header_bytes <= 0:
            raise ConfigError(f"header_bytes must be positive, got {self.header_bytes}")
        if self.cc not in ("dctcp", "aimd", "bbr"):
            raise ConfigError(f"unknown congestion control {self.cc!r}")
        if self.initial_window_bdp <= 0:
            raise ConfigError("initial_window_bdp must be positive")
        if self.min_cwnd_packets <= 0:
            raise ConfigError(f"min_cwnd_packets must be positive, got {self.min_cwnd_packets}")
        if not 0 < self.dctcp_gain <= 1:
            raise ConfigError("dctcp_gain must be in (0, 1]")
        if not 0 < self.nack_cut_factor < 1:
            raise ConfigError("nack_cut_factor must be in (0, 1)")
        if self.rack_window_min_ps <= 0:
            raise ConfigError("rack_window_min_ps must be positive")
        if self.rack_window_rtt_fraction <= 0:
            raise ConfigError("rack_window_rtt_fraction must be positive")
        if self.min_rto_ps is not None and self.min_rto_ps <= 0:
            raise ConfigError(f"min_rto_ps must be positive, got {self.min_rto_ps}")
        if self.rto_floor_rtt_multiple <= 0:
            raise ConfigError("rto_floor_rtt_multiple must be positive")
        if self.rto_absolute_floor_ps <= 0:
            raise ConfigError("rto_absolute_floor_ps must be positive")
        if self.max_rto_ps <= 0:
            raise ConfigError(f"max_rto_ps must be positive, got {self.max_rto_ps}")
        if self.min_rto_ps is not None and self.max_rto_ps < self.min_rto_ps:
            raise ConfigError(
                f"max_rto_ps ({self.max_rto_ps}) must be >= min_rto_ps ({self.min_rto_ps})"
            )
        if self.ack_bytes <= 0:
            raise ConfigError(f"ack_bytes must be positive, got {self.ack_bytes}")
        if self.ack_every < 1:
            raise ConfigError("ack_every must be at least 1")
        if self.delack_timeout_ps <= 0:
            raise ConfigError("delack_timeout_ps must be positive")
        if self.max_consecutive_timeouts is not None and self.max_consecutive_timeouts < 1:
            raise ConfigError(
                f"max_consecutive_timeouts must be at least 1 (or None), got "
                f"{self.max_consecutive_timeouts}"
            )


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FabricConfig:
    """One leaf–spine datacenter fabric."""

    spines: int = 8
    leaves: int = 8
    servers_per_leaf: int = 8
    link_rate_bps: float = gbps(100)
    link_delay_ps: int = microseconds(1)
    switch_queue: QueueSpec = field(
        default_factory=lambda: QueueSpec(
            kind="ecn",
            capacity_bytes=megabytes(17.015),
            ecn_low_bytes=kilobytes(33.2),
            ecn_high_bytes=kilobytes(136.95),
        )
    )
    host_queue: QueueSpec = field(
        default_factory=lambda: QueueSpec(kind="host", capacity_bytes=2_000_000_000)
    )
    #: When set, each switch shares one buffer pool (of switch_queue.capacity
    #: bytes) across its ports under Dynamic Threshold admission with this
    #: alpha, instead of static per-port buffers.  Incompatible with trimming.
    shared_buffer_alpha: float | None = None

    def __post_init__(self) -> None:
        if min(self.spines, self.leaves, self.servers_per_leaf) < 1:
            raise ConfigError("fabric dimensions must be at least 1")
        if self.link_rate_bps <= 0:
            raise ConfigError(f"link_rate_bps must be positive, got {self.link_rate_bps}")
        if self.link_delay_ps < 0:
            raise ConfigError(f"link_delay_ps must be non-negative, got {self.link_delay_ps}")
        if self.shared_buffer_alpha is not None and self.shared_buffer_alpha <= 0:
            raise ConfigError("shared_buffer_alpha must be positive")

    @property
    def servers(self) -> int:
        """Servers per datacenter."""
        return self.leaves * self.servers_per_leaf


def _backbone_queue() -> QueueSpec:
    """The paper's deep backbone-router buffers."""
    return QueueSpec(
        kind="ecn",
        capacity_bytes=megabytes(49.8),
        ecn_low_bytes=megabytes(9.96),
        ecn_high_bytes=megabytes(39.84),
    )


@dataclass(frozen=True)
class InterDcConfig:
    """Leaf–spine datacenters in a line, each segment bridged by
    ``fabric.spines * backbone_per_spine`` backbone routers.  The paper's
    topology (§4.1) is the one-segment line; longer ones (metro DC →
    regional hub → remote region) carry the cascaded-proxy extension."""

    fabric: FabricConfig = field(default_factory=FabricConfig)
    #: long-haul latency of each segment; len + 1 datacenters are built.
    segment_delays_ps: tuple[int, ...] = (milliseconds(1),)
    backbone_per_spine: int = 8
    backbone_rate_bps: float = gbps(100)
    backbone_queue: QueueSpec = field(default_factory=_backbone_queue)
    trimming: bool = False

    def __post_init__(self) -> None:
        delays = self.segment_delays_ps
        if not isinstance(delays, tuple) or not delays or min(delays) < 0:
            raise ConfigError(
                f"segment_delays_ps must be a non-empty tuple of non-negative "
                f"delays, got {delays!r}"
            )
        if self.backbone_per_spine < 1:
            raise ConfigError("backbone_per_spine must be at least 1")
        if self.backbone_rate_bps <= 0:
            raise ConfigError(
                f"backbone_rate_bps must be positive, got {self.backbone_rate_bps}"
            )

    def with_trimming(self, enabled: bool) -> "InterDcConfig":
        """The same config with packet trimming toggled on every switch."""
        return replace(self, trimming=enabled)

    def with_backbone_delay(self, delay_ps: int) -> "InterDcConfig":
        """The same two-DC config with a different long-haul latency (Fig. 3);
        a longer line has no single backbone delay and is refused."""
        if len(self.segment_delays_ps) != 1:
            raise ConfigError(
                f"with_backbone_delay needs a one-segment line, not {self.segment_delays_ps}"
            )
        return replace(self, segment_delays_ps=(delay_ps,))

    def with_shared_buffers(self, alpha: float) -> "InterDcConfig":
        """The same config with DT shared buffers on every fabric switch."""
        return replace(self, fabric=replace(self.fabric, shared_buffer_alpha=alpha))


def paper_interdc_config() -> InterDcConfig:
    """The exact setup of paper §4.1."""
    return InterDcConfig()


def small_interdc_config() -> InterDcConfig:
    """A shrunken two-DC fabric for tests and quick demos.

    2 spines x 2 leaves x 4 servers per DC, 4 backbone routers, 1 ms
    long-haul latency, proportionally smaller buffers.
    """
    fabric = FabricConfig(
        spines=2,
        leaves=2,
        servers_per_leaf=4,
        switch_queue=QueueSpec(
            kind="ecn",
            capacity_bytes=megabytes(4),
            ecn_low_bytes=kilobytes(33.2),
            ecn_high_bytes=kilobytes(136.95),
        ),
    )
    return InterDcConfig(
        fabric=fabric,
        backbone_per_spine=2,
        backbone_queue=QueueSpec(
            kind="ecn",
            capacity_bytes=megabytes(12),
            ecn_low_bytes=megabytes(2.5),
            ecn_high_bytes=megabytes(10),
        ),
    )
