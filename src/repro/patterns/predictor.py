"""Proactive burst prediction for periodic traffic.

ML training alternates compute and synchronization in a regular rhythm
(the paper cites the burstiness of distributed-ML traffic); this predictor
estimates the period of a sampled traffic series by autocorrelation and
extrapolates the next burst window, which is what a pattern-aware
rerouting controller needs to stage a proxy *before* the incast hits the
long-haul link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclass(frozen=True)
class PeriodEstimate:
    """Estimated periodicity of a traffic series."""

    period_samples: int
    confidence: float  # autocorrelation peak height in [0, 1]
    next_burst_index: int

    @property
    def is_periodic(self) -> bool:
        """True when the autocorrelation peak is decisive."""
        return self.confidence >= 0.3


class PeriodicIncastPredictor:
    """Autocorrelation-based period estimation and burst extrapolation."""

    def __init__(self, min_period: int = 2, max_period: int | None = None) -> None:
        if min_period < 2:
            raise ConfigError("min_period must be at least 2")
        self.min_period = min_period
        self.max_period = max_period

    def estimate(self, series: "np.ndarray | list[float]") -> PeriodEstimate:
        """Estimate the dominant period of ``series`` (traffic per time bin)."""
        import numpy as np

        x = np.asarray(series, dtype=float)
        if x.size < 4 * self.min_period:
            raise ConfigError(
                f"series too short ({x.size} samples) to estimate a period "
                f">= {self.min_period}"
            )
        x = x - x.mean()
        denominator = float(np.dot(x, x))
        if denominator == 0.0:  # repro: allow[float-eq] exact zero: constant series
            return PeriodEstimate(period_samples=0, confidence=0.0, next_burst_index=0)
        # Full autocorrelation via FFT, normalized to rho(0) = 1.
        n = int(2 ** np.ceil(np.log2(2 * x.size)))
        spectrum = np.fft.rfft(x, n)
        acf = np.fft.irfft(spectrum * np.conj(spectrum), n)[: x.size] / denominator
        hi = self.max_period if self.max_period is not None else x.size // 2
        hi = min(hi, x.size - 1)
        if hi < self.min_period:
            raise ConfigError("max_period below min_period for this series length")
        lags = np.arange(self.min_period, hi + 1)
        window = acf[self.min_period : hi + 1]
        best = int(lags[int(np.argmax(window))])
        confidence = float(np.clip(window.max(), 0.0, 1.0))

        next_burst = self._extrapolate_burst(np.asarray(series, dtype=float), best)
        return PeriodEstimate(
            period_samples=best, confidence=confidence, next_burst_index=next_burst
        )

    @staticmethod
    def _extrapolate_burst(series: np.ndarray, period: int) -> int:
        """Index (>= len(series)) where the next burst should land."""
        if period <= 0:
            return len(series)
        tail = series[-3 * period :] if series.size >= 3 * period else series
        offset = int(tail.argmax()) + (series.size - tail.size)
        next_burst = offset
        while next_burst < series.size:
            next_burst += period
        return next_burst
