"""Summary statistics across repetitions.

The paper runs each setup 5 times and reports average, minimum, and
maximum incast completion time; :func:`summarize` produces exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class SummaryStat:
    """Mean / min / max / stdev of a sample set."""

    mean: float
    minimum: float
    maximum: float
    stdev: float
    count: int

    def reduction_vs(self, baseline: "SummaryStat") -> float:
        """Fractional mean reduction relative to ``baseline`` (positive = faster)."""
        if baseline.mean == 0:
            return 0.0
        return (baseline.mean - self.mean) / baseline.mean


def jain_fairness(values: Iterable[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one flow hogs all.

    Used on per-flow completion times or throughputs to check that a scheme
    does not buy its mean ICT by starving some senders.
    """
    data = list(values)
    if not data:
        raise ValueError("cannot compute fairness of zero values")
    if any(v < 0 for v in data):
        raise ValueError("fairness is defined for non-negative values")
    total = sum(data)
    squares = sum(v * v for v in data)
    if squares == 0:
        return 1.0
    return total * total / (len(data) * squares)


def empty_summary() -> SummaryStat:
    """The all-NaN summary of zero samples (count 0).

    Used by the sweeps when every repetition of a point was quarantined:
    the point renders as failed instead of crashing the report, and NaN
    poisons any arithmetic that forgets to check ``count``.
    """
    nan = float("nan")
    return SummaryStat(mean=nan, minimum=nan, maximum=nan, stdev=nan, count=0)


def summarize(values: Iterable[float]) -> SummaryStat:
    """Summarize a non-empty collection of values."""
    data = list(values)
    if not data:
        raise ValueError("cannot summarize zero values")
    mean = sum(data) / len(data)
    if len(data) > 1:
        variance = sum((v - mean) ** 2 for v in data) / (len(data) - 1)
    else:
        variance = 0.0
    return SummaryStat(
        mean=mean,
        minimum=min(data),
        maximum=max(data),
        stdev=math.sqrt(variance),
        count=len(data),
    )
