"""Bounded-memory gap-based loss detection.

A :class:`FlowTracker` watches one flow's data packets arrive (possibly
heavily reordered by packet spraying) and infers losses from sequence
gaps.  A gap is declared **lost** only when *both* hold:

* at least ``packet_threshold`` packets of the flow arrived after the gap
  was noticed (the dupACK idea, applied at the observation point), and
* at least ``reorder_window_ps`` elapsed since it was noticed (the RACK
  idea) — so a burst arriving over one RTT of path skew is not misread.

Memory is bounded: at most ``max_tracked_gaps`` gaps are tracked per flow.
On overflow the eviction policy applies — ``"lost"`` declares the oldest
gap lost immediately (risking false positives), ``"forget"`` silently
drops it (risking false negatives: the sender's RTO becomes the backstop).
This is exactly the false-positive/false-negative trade-off the paper's
Future Work #1 asks about, made into a measurable knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.units import microseconds

LossCallback = Callable[[int, int], None]  # (seq, approx_send_ts)


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of the gap detector."""

    max_tracked_gaps: int = 256
    packet_threshold: int = 16
    reorder_window_ps: int = microseconds(20)
    evict_policy: str = "lost"  # "lost" | "forget"

    def __post_init__(self) -> None:
        if self.max_tracked_gaps < 1:
            raise ConfigError("max_tracked_gaps must be at least 1")
        if self.packet_threshold < 1:
            raise ConfigError("packet_threshold must be at least 1")
        if self.reorder_window_ps < 0:
            raise ConfigError("reorder_window_ps must be non-negative")
        if self.evict_policy not in ("lost", "forget"):
            raise ConfigError(f"unknown evict_policy {self.evict_policy!r}")


class _Gap:
    """One missing sequence number under observation."""

    __slots__ = ("seq", "noticed_at", "arrivals_at_notice", "approx_ts")

    def __init__(self, seq: int, noticed_at: int, arrivals: int, approx_ts: int) -> None:
        self.seq = seq
        self.noticed_at = noticed_at
        self.arrivals_at_notice = arrivals
        self.approx_ts = approx_ts


class FlowTracker:
    """Gap tracking for a single flow."""

    __slots__ = (
        "cfg",
        "on_loss",
        "highest_seen",
        "arrivals",
        "declared",
        "false_positives",
        "evicted",
        "_gaps",
    )

    def __init__(self, cfg: DetectorConfig, on_loss: LossCallback) -> None:
        self.cfg = cfg
        self.on_loss = on_loss
        self.highest_seen = -1
        self.arrivals = 0
        self.declared = 0
        self.false_positives = 0
        self.evicted = 0
        # Insertion-ordered: oldest gap first (dicts preserve order).
        self._gaps: dict[int, _Gap] = {}

    def on_data(self, seq: int, now: int, packet_ts: int, is_retransmit: bool) -> None:
        """Observe one data packet; may fire loss callbacks."""
        self.arrivals += 1
        # A tracked gap filled by a (possibly reordered) arrival stops being
        # a loss candidate.  An original copy of a seq we already declared
        # lost would be a false positive; distinguishing it from a NACK-paid
        # retransmission needs ground truth, which the evaluation harness
        # supplies out of band (the in-band ``is_retransmit`` flag stands in
        # for the DSN/timestamp heuristics a real eBPF proxy would use).
        if self._gaps.pop(seq, None) is None and seq <= self.highest_seen and not is_retransmit:
            self.false_positives += 1
        if seq > self.highest_seen:
            for missing in range(self.highest_seen + 1, seq):
                self._notice_gap(missing, now, packet_ts)
            self.highest_seen = seq
        self._sweep(now)

    def pending_gaps(self) -> int:
        """Gaps currently under observation."""
        return len(self._gaps)

    def flush(self, now: int) -> None:
        """Time-based sweep (call from a periodic timer to catch quiet tails)."""
        self._sweep(now, ignore_packet_threshold=True)

    # -- internals ---------------------------------------------------------------

    def _notice_gap(self, seq: int, now: int, neighbor_ts: int) -> None:
        if len(self._gaps) >= self.cfg.max_tracked_gaps:
            oldest_seq, oldest = next(iter(self._gaps.items()))
            del self._gaps[oldest_seq]
            self.evicted += 1
            if self.cfg.evict_policy == "lost":
                self.declared += 1
                self.on_loss(oldest_seq, oldest.approx_ts)
        self._gaps[seq] = _Gap(seq, now, self.arrivals, neighbor_ts)

    def _sweep(self, now: int, ignore_packet_threshold: bool = False) -> None:
        cfg = self.cfg
        gaps = self._gaps
        while gaps:
            seq, gap = next(iter(gaps.items()))
            aged = now - gap.noticed_at >= cfg.reorder_window_ps
            deep = self.arrivals - gap.arrivals_at_notice >= cfg.packet_threshold
            if aged and (deep or ignore_packet_threshold):
                del gaps[seq]
                self.declared += 1
                self.on_loss(seq, gap.approx_ts)
            else:
                break


class GapLossDetector:
    """Per-flow tracker registry, as a proxy would keep in an eBPF map."""

    def __init__(self, cfg: DetectorConfig | None = None) -> None:
        self.cfg = cfg if cfg is not None else DetectorConfig()
        self._trackers: dict[int, FlowTracker] = {}

    def tracker(self, flow_id: int, on_loss: LossCallback) -> FlowTracker:
        """Get (or create) the tracker for ``flow_id``."""
        tracker = self._trackers.get(flow_id)
        if tracker is None:
            tracker = FlowTracker(self.cfg, on_loss)
            self._trackers[flow_id] = tracker
        return tracker

    def get(self, flow_id: int) -> FlowTracker | None:
        """The tracker for ``flow_id``, if it has one."""
        return self._trackers.get(flow_id)

    def remove(self, flow_id: int) -> None:
        """Forget a finished flow."""
        self._trackers.pop(flow_id, None)

    def flush(self, now: int) -> bool:
        """Time-sweep every tracker; whether any gap is still pending."""
        pending = False
        for tracker in self._trackers.values():
            if tracker.pending_gaps():
                tracker.flush(now)
                if tracker.pending_gaps():
                    pending = True
        return pending

    def __len__(self) -> int:
        return len(self._trackers)
