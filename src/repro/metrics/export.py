"""Export experiment results as CSV/JSON artifacts.

Sweep points, CDFs, and time series all flatten to rows so downstream
tooling (pandas, gnuplot, spreadsheets) can re-plot the paper's figures
without re-running simulations.  Writers take a path and return it, so
call sites compose into pipelines:

    write_sweep_csv(points, out / "fig2_left.csv")
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.sweeps import SweepPoint
    from repro.hoststack.measurement import LatencyMeasurement
    from repro.metrics.timeseries import TimeSeries


def write_sweep_csv(points: "Sequence[SweepPoint]", path: str | Path) -> Path:
    """One row per (sweep point, scheme): ICT stats + reduction."""
    if not points:
        raise ExperimentError("nothing to export: empty sweep")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "x", "label", "scheme", "ict_mean_ms", "ict_min_ms", "ict_max_ms",
            "ict_stdev_ms", "reduction_vs_baseline", "retransmissions",
            "timeouts", "trims", "drops", "all_completed", "failures",
        ])
        for point in points:
            for scheme, summary in point.schemes.items():
                writer.writerow([
                    point.x,
                    point.label,
                    scheme,
                    summary.ict.mean / 1e9,
                    summary.ict.minimum / 1e9,
                    summary.ict.maximum / 1e9,
                    summary.ict.stdev / 1e9,
                    ("" if summary.reduction_vs_baseline is None
                     else summary.reduction_vs_baseline),
                    summary.retransmissions,
                    summary.timeouts,
                    summary.trims,
                    summary.drops,
                    summary.all_completed,
                    summary.failures,
                ])
    return path


def write_cdf_csv(
    measurement: "LatencyMeasurement", path: str | Path, points: int = 200
) -> Path:
    """(latency_us, cumulative_probability) rows for one latency CDF."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["latency_us", "cumulative_probability"])
        for value_ps, probability in measurement.cdf.points(points):
            writer.writerow([value_ps / 1e6, probability])
    return path


def write_timeseries_csv(series: "TimeSeries", path: str | Path) -> Path:
    """(time_ms, value) rows for one sampled series."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ms", series.name])
        for t, v in zip(series.times, series.values):
            writer.writerow([t / 1e9, v])
    return path


def write_sweep_json(points: "Sequence[SweepPoint]", path: str | Path) -> Path:
    """The full sweep as a JSON document (one object per point)."""
    if not points:
        raise ExperimentError("nothing to export: empty sweep")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = [
        {
            "x": point.x,
            "label": point.label,
            "schemes": {
                scheme: {
                    "ict_mean_ms": summary.ict.mean / 1e9,
                    "ict_min_ms": summary.ict.minimum / 1e9,
                    "ict_max_ms": summary.ict.maximum / 1e9,
                    "reduction_vs_baseline": summary.reduction_vs_baseline,
                    "all_completed": summary.all_completed,
                    "failures": summary.failures,
                }
                for scheme, summary in point.schemes.items()
            },
        }
        for point in points
    ]
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
