"""A pattern-aware rerouting controller (paper §6, second research direction).

Closes the loop the paper sketches: the operator cannot see application
annotations, but periodic jobs (ML training) betray themselves.  The
controller watches incast *arrivals* per destination, learns the period
with :class:`~repro.patterns.predictor.PeriodicIncastPredictor`, and once
confident, pre-stages a proxy for the predicted next burst — so that
burst, unlike the ones observed while learning, runs proxy-assisted from
its first packet.

The controller is deliberately observation-driven and simulator-agnostic:
feed it ``(time, destination, total_bytes)`` arrivals and ask it, per
burst, whether a proxy is staged.  The orchestration runner wires it to
real jobs in :func:`run_pattern_aware`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.patterns.predictor import PeriodicIncastPredictor
from repro.units import milliseconds


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of the pattern learner."""

    bin_ps: int = milliseconds(1)  # time-bin width of the traffic series
    min_bursts: int = 4  # bursts to observe before trusting a prediction
    confidence: float = 0.3  # autocorrelation confidence threshold
    tolerance_bins: int = 2  # prediction window half-width, in bins

    def __post_init__(self) -> None:
        if self.bin_ps <= 0:
            raise ConfigError("bin_ps must be positive")
        if self.min_bursts < 2:
            raise ConfigError("min_bursts must be at least 2")
        if not 0 < self.confidence <= 1:
            raise ConfigError("confidence must be in (0, 1]")
        if self.tolerance_bins < 0:
            raise ConfigError("tolerance_bins must be non-negative")


@dataclass
class DestinationState:
    """Learning state for one destination."""

    bins: dict[int, float] = field(default_factory=dict)
    bursts_seen: int = 0
    period_bins: int | None = None
    next_predicted_bin: int | None = None


class PatternAwareController:
    """Learns per-destination periodicity and pre-stages proxies."""

    def __init__(
        self,
        cfg: ControllerConfig | None = None,
        predictor: PeriodicIncastPredictor | None = None,
    ) -> None:
        self.cfg = cfg if cfg is not None else ControllerConfig()
        self.predictor = predictor if predictor is not None else PeriodicIncastPredictor()
        self._state: dict[int, DestinationState] = {}
        self.predictions_made = 0
        self.predictions_hit = 0

    # -- observation ---------------------------------------------------------

    def observe_burst(self, time_ps: int, dst: int, total_bytes: int) -> None:
        """Record one incast arrival at ``dst`` and re-learn its rhythm."""
        state = self._state.setdefault(dst, DestinationState())
        bin_index = time_ps // self.cfg.bin_ps
        state.bins[bin_index] = state.bins.get(bin_index, 0.0) + total_bytes
        state.bursts_seen += 1
        if state.bursts_seen >= self.cfg.min_bursts:
            self._relearn(state)

    # -- decisions --------------------------------------------------------------

    def proxy_staged_for(self, time_ps: int, dst: int) -> bool:
        """Was a proxy pre-staged for a burst arriving at ``time_ps``?

        True when the destination's learned rhythm predicted a burst within
        ``tolerance_bins`` of this time, *before* observing it.
        """
        state = self._state.get(dst)
        if state is None or state.next_predicted_bin is None:
            return False
        bin_index = time_ps // self.cfg.bin_ps
        hit = abs(bin_index - state.next_predicted_bin) <= self.cfg.tolerance_bins
        if hit:
            self.predictions_hit += 1
        return hit

    def predicted_period_ps(self, dst: int) -> int | None:
        """The learned period of ``dst`` (None while unlearned)."""
        state = self._state.get(dst)
        if state is None or state.period_bins is None:
            return None
        return state.period_bins * self.cfg.bin_ps

    # -- internals ----------------------------------------------------------------

    def _relearn(self, state: DestinationState) -> None:
        last_bin = max(state.bins)
        length = last_bin + 1
        if length < 4 * self.predictor.min_period:
            return
        import numpy as np

        series = np.zeros(length)
        for bin_index, volume in state.bins.items():
            series[bin_index] = volume
        estimate = self.predictor.estimate(series)
        if estimate.confidence < self.cfg.confidence:
            state.period_bins = None
            state.next_predicted_bin = None
            return
        state.period_bins = estimate.period_samples
        state.next_predicted_bin = estimate.next_burst_index
        self.predictions_made += 1
