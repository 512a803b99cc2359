"""Measurement utilities: empirical CDFs, summary statistics, streaming sketches.

Storage is mode-selected by :class:`MetricsConfig`: ``"exact"`` keeps the
reference per-sample lists, ``"sketch"`` bounds memory with reservoir /
quantile sketches behind the same sink protocol (:mod:`repro.metrics.sink`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.cdf import EmpiricalCdf
    from repro.metrics.collector import NetworkCounters, collect_network_counters
    from repro.metrics.config import DEFAULT_METRICS, MetricsConfig
    from repro.metrics.export import write_sweep_csv
    from repro.metrics.sink import (
        DistributionDigest,
        DistributionSink,
        SeriesSink,
        make_distribution_sink,
        make_series_sink,
        rank_hottest,
    )
    from repro.metrics.sketches import GKQuantileSketch, ReservoirSample, StreamingMoments
    from repro.metrics.summary import SummaryStat, jain_fairness, summarize
    from repro.metrics.timeseries import Sampler, TimeSeries

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.cdf": ["EmpiricalCdf"],
    "repro.metrics.collector": ["NetworkCounters", "collect_network_counters"],
    "repro.metrics.config": ["DEFAULT_METRICS", "MetricsConfig"],
    "repro.metrics.export": ["write_sweep_csv"],
    "repro.metrics.sink": [
        "DistributionDigest", "DistributionSink", "SeriesSink",
        "make_distribution_sink", "make_series_sink", "rank_hottest",
    ],
    "repro.metrics.sketches": [
        "GKQuantileSketch", "ReservoirSample", "StreamingMoments",
    ],
    "repro.metrics.summary": ["SummaryStat", "jain_fairness", "summarize"],
    "repro.metrics.timeseries": ["Sampler", "TimeSeries"],
})

__all__ = [
    "DEFAULT_METRICS",
    "DistributionDigest",
    "DistributionSink",
    "EmpiricalCdf",
    "GKQuantileSketch",
    "MetricsConfig",
    "NetworkCounters",
    "ReservoirSample",
    "Sampler",
    "SeriesSink",
    "StreamingMoments",
    "SummaryStat",
    "TimeSeries",
    "collect_network_counters",
    "jain_fairness",
    "make_distribution_sink",
    "make_series_sink",
    "rank_hottest",
    "summarize",
    "write_sweep_csv",
]
