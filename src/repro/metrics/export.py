"""Export sweep results as CSV artifacts.

Sweep points flatten to rows so downstream tooling (pandas, gnuplot,
spreadsheets) can re-plot the paper's figures without re-running
simulations.  The writer takes a path and returns it, so call sites
compose into pipelines:

    write_sweep_csv(points, out / "fig2_left.csv")
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.sweeps import SweepPoint


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
