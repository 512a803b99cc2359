"""The re-baseline protocol: multi-seed intervals on the headline cells.

A change that moves same-tick event order moves every digest, so digest
pins cannot tell a faster core from a different model.  This asks what
the paper's figures ask: did any headline result leave its seed spread?

    python -m repro rebaseline record PATH   # on the reference commit
    python -m repro rebaseline check PATH    # on the change

Both run the reduced Fig. 2-left, Fig. 2-right and Fig. 3 points x
{baseline, naive, streamlined} x seeds 0-4 (27 cells, 135 sanitized
runs) through :func:`~repro.experiments.grid.run_grid`, and reduce each
cell to its mean ICT and 95 % Student-t interval (from its
:class:`~repro.metrics.summary.SummaryStat` ``stdev`` and ``count``).
``record`` writes them to ``PATH``; ``check`` passes only when:

* every cell's interval overlaps the recorded one;
* the claim scorecard reproduces every claim, reduced and ``--full``;
* every run completes under the sanitizer (ICT floor, conservation).

Every run executes its same-tick events in the race detector's canonical
order (:mod:`repro.analysis.races`, normalization with no shuffle).  The
scheduler's FIFO order among same-tick events is scheduling history: a
change to when events are scheduled moves it without moving the model,
and several headline cells are deterministic across seeds, so their
intervals are nanoseconds wide and a tie-order echo would read as a moved
result.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Sequence

from repro.metrics.summary import SummaryStat

#: Seeds 0..SEEDS-1 per cell, as the paper's five repetitions per point.
SEEDS = 5

#: cell -> mean_ms, low_ms, high_ms, count, ok (every run completed sanitized)
Cells = dict[str, dict[str, float]]

#: Two-sided 95 % Student-t quantiles by degrees of freedom.
_T975 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447}


def t_interval(stat: SummaryStat) -> tuple[float, float]:
    """The 95 % t-interval of the mean of ``stat``'s samples."""
    half = _T975[stat.count - 1] * stat.stdev / math.sqrt(stat.count)
    return stat.mean - half, stat.mean + half


def headline_cells(workers: int = 0) -> Cells:
    """Run the 27 cells and reduce each to its :data:`Cells` entry."""
    from repro.experiments.figures import SCHEMES, SWEEP_FIGURES
    from repro.experiments.parallel import ExperimentEngine
    from repro.telemetry import RunOptions

    options = RunOptions(sanitize=True, tie_break_seed=0, tie_break_limit=0)
    engine = ExperimentEngine(workers=workers, options=options)
    cells: Cells = {}
    for key, (_name, sweep) in SWEEP_FIGURES.items():
        for point in sweep(False, SEEDS, engine=engine, seed0=0):
            for scheme in SCHEMES:
                summary = point.schemes[scheme]
                ok = summary.all_completed and summary.ict.count == SEEDS
                low, high = t_interval(summary.ict) if ok else (math.nan, math.nan)
                cells[f"{key} {point.label} {scheme}"] = {
                    "mean_ms": summary.ict.mean / 1e9,
                    "low_ms": low / 1e9,
                    "high_ms": high / 1e9,
                    "count": summary.ict.count,
                    "ok": ok,
                }
    return cells


def compare(recorded: Cells, current: Cells) -> tuple[list[str], list[str]]:
    """Table lines (recorded vs current) and the failures among them."""
    lines: list[str] = []
    failures: list[str] = []
    for name, ref in recorded.items():
        cell = current.get(name)
        if cell is None or not cell["ok"]:
            failures.append(f"{name}: missing, incomplete or sanitizer-quarantined")
            continue
        overlap = cell["low_ms"] <= ref["high_ms"] and ref["low_ms"] <= cell["high_ms"]
        lines.append(
            f"{name:40s} {_fmt(ref)}  {_fmt(cell)}  {'ok' if overlap else 'MOVED'}"
        )
        if not overlap:
            failures.append(f"{name}: interval moved")
    return lines, failures


def _fmt(cell: dict[str, float]) -> str:
    return f"{cell['mean_ms']:9.3f} [{cell['low_ms']:.3f}, {cell['high_ms']:.3f}]"


def _scorecards() -> list[str]:
    """Failures of the reduced and the full claim scorecard."""
    from repro.experiments.verdicts import evaluate

    failures: list[str] = []
    for full in (False, True):
        card = evaluate(full=full)
        if card.passed != len(card.verdicts):
            label = "verdicts --full" if full else "verdicts"
            failures.append(f"{label}: {card.passed}/{len(card.verdicts)} claims")
    return failures


def main(argv: Sequence[str] | None = None) -> None:
    """``python -m repro rebaseline {record,check} PATH``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro rebaseline",
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("path", type=Path)
    args = parser.parse_args(argv)

    if args.action == "check":  # read the reference before two minutes of runs
        try:
            recorded = json.loads(args.path.read_text())["cells"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"rebaseline: cannot read {args.path}: {exc!r}") from exc
    cells = headline_cells()
    if args.action == "record":
        broken = [name for name, cell in cells.items() if not cell["ok"]]
        if broken:
            raise SystemExit(f"rebaseline: not recorded, incomplete cells: {broken}")
        document = {"seeds": list(range(SEEDS)), "interval": "95% Student-t",
                    "cells": cells}
        args.path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(cells)} cells to {args.path}")
        return
    lines, failures = compare(recorded, cells)
    print(f"{'cell':40s} {'recorded ICT ms [95% CI]':>29s}  {'this tree':>29s}")
    print("\n".join(lines))
    failures += _scorecards()
    for failure in failures:
        print(f"FAILED: {failure}")
    if failures:
        raise SystemExit(1)
    print(f"rebaseline ok: {len(lines)} cells overlap, every claim reproduced")
