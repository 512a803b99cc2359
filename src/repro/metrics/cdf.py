"""Empirical cumulative distribution functions.

Used by the host-stack measurement harness (paper Figures 4 and 5 report
per-packet latency CDFs) and generally handy for queue/completion-time
distributions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ReproError


class EmpiricalCdf:
    """CDF over a fixed sample set."""

    def __init__(self, samples: Iterable[float]) -> None:
        import numpy as np

        values = np.asarray(sorted(samples), dtype=float)
        if values.size == 0:
            raise ReproError("cannot build a CDF from zero samples")
        self._values = values

    @property
    def n(self) -> int:
        """Number of samples."""
        return int(self._values.size)

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100), linearly interpolated."""
        import numpy as np

        if not 0 <= p <= 100:
            raise ReproError(f"percentile must be in [0, 100], got {p}")
        return float(np.percentile(self._values, p))

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(50)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(self._values.mean())

    def prob_le(self, x: float) -> float:
        """P(X <= x)."""
        return float(self._values.searchsorted(x, side="right")) / self.n

    def points(self, count: int = 100) -> list[tuple[float, float]]:
        """(value, cumulative probability) pairs for plotting/tables."""
        import numpy as np

        if count < 2:
            raise ReproError("need at least 2 CDF points")
        probs = np.linspace(0.0, 100.0, count)
        return [(float(np.percentile(self._values, p)), p / 100.0) for p in probs]

    def percentile_table(self, percentiles: Sequence[float] = (50, 90, 95, 99, 99.9)) -> dict[float, float]:
        """Common percentiles in one dict."""
        return {p: self.percentile(p) for p in percentiles}
