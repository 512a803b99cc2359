"""The scheme bake-off: every registered scheme on one grid, ranked.

ROADMAP item 3: now that schemes are registry plug-ins, pit the proxy
family against the outside contenders (``repro.competitors``) on equal
terms.  The bake-off runs **all** registered schemes — built-ins plus
anything third parties installed — over a degree × RTT × buffer grid
through the :class:`~repro.experiments.parallel.ExperimentEngine`
(cache, workers, telemetry all apply), folds in a fault-sensitivity
column from the existing blackhole sweep, and emits a ranked summary
(text table + ASCII figure, CSV/JSON with ``--export``).

Run ``python -m repro bakeoff`` (or ``--smoke`` for the CI-sized grid,
which prints a ``sweep_digest:`` line that must be bit-identical across
worker counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.experiments.faultsweep import blackhole_rate_sweep_spec, fault_base_scenario
from repro.experiments.grid import GridSpec, axis, run_grid, sweep_spec
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.report import average_reductions, export_rows, render_table
from repro.experiments.runner import IncastScenario
from repro.experiments.sweeps import SweepPoint, sweep_digest
from repro.schemes import SCHEME_REGISTRY
from repro.units import kilobytes, microseconds, milliseconds

#: Default grid axes: incast degree, one-way long-haul delay, and the
#: factor every congestion-point buffer (and its ECN thresholds) scales by.
BAKEOFF_DEGREES = (4, 8)
BAKEOFF_DELAYS_PS = (microseconds(100), milliseconds(1))
BAKEOFF_BUFFER_SCALES = (0.5, 1.0)

#: Drop fraction of the fault-sensitivity column (vs a healthy control).
FAULT_SENSITIVITY_RATE = 0.02


#: The shared scenario under the bake-off grid: the fault sweeps' small
#: fabric and bounded give-up point keep the full grid × schemes × reps
#: batch tractable.
bakeoff_base_scenario = fault_base_scenario


def bakeoff_grid_spec(
    base: IncastScenario | None = None,
    degrees: Sequence[int] = BAKEOFF_DEGREES,
    delays_ps: Sequence[int] = BAKEOFF_DELAYS_PS,
    buffer_scales: Sequence[float] = BAKEOFF_BUFFER_SCALES,
    schemes: Sequence[str] | None = None,
    reps: int = 3,
    seed0: int = 0,
) -> GridSpec:
    """The bake-off as a grid; schemes default to the whole registry.

    The point axis enumerates the degree × delay × buffer combinations
    (the ``bakeoff_point`` applier turns each combination document into
    the degree + backbone-delay + :func:`~repro.experiments.grid.
    scale_buffers` transformation).
    """
    base = base or bakeoff_base_scenario()
    names = tuple(schemes) if schemes is not None else SCHEME_REGISTRY.names()
    values: list[dict[str, int | float]] = []
    labels: list[str] = []
    for degree in degrees:
        for delay_ps in delays_ps:
            for scale in buffer_scales:
                values.append({
                    "degree": int(degree),
                    "delay_ps": int(delay_ps),
                    "buffer_scale": float(scale),
                })
                labels.append(
                    f"deg={degree} owd={delay_ps / 1e6:g}us buf={scale:g}x"
                )
    point = axis(
        "point", "bakeoff_point", values, labels=labels,
        xs=[float(i) for i in range(len(values))],
    )
    return sweep_spec(base, point, names, reps, seed0)


def fault_sensitivity(
    schemes: Sequence[str],
    reps: int = 2,
    *,
    rate: float = FAULT_SENSITIVITY_RATE,
    base: IncastScenario | None = None,
    engine: ExperimentEngine | None = None,
    seed0: int = 0,
) -> tuple[list[SweepPoint], dict[str, float | None]]:
    """Blackhole sweep at one drop rate, reduced to an ICT blow-up ratio.

    Reuses :func:`~repro.experiments.faultsweep.blackhole_rate_sweep_spec`
    with a healthy control, returning both the raw points (they feed the
    digest) and ``scheme -> ict(faulty) / ict(healthy)``; ``None`` when
    either side produced no successful repetitions.
    """
    points = run_grid(
        blackhole_rate_sweep_spec(
            base, rates=(0.0, rate), schemes=schemes, reps=reps, seed0=seed0
        ),
        engine=engine,
    )
    healthy, faulty = points[0], points[1]
    ratios: dict[str, float | None] = {}
    for name in schemes:
        h = healthy.schemes[name].ict.mean
        f = faulty.schemes[name].ict.mean
        ok = h > 0 and not (math.isnan(h) or math.isnan(f))
        ratios[name] = (f / h) if ok else None
    return points, ratios


@dataclass
class BakeoffRow:
    """One scheme's aggregate standing across the whole grid."""

    rank: int
    scheme: str
    display_name: str
    mean_ict_ps: float
    mean_reduction: float | None
    retransmissions: float
    timeouts: float
    trims: float
    drops: float
    failures: int
    all_completed: bool
    fault_ratio: float | None


def rank_bakeoff(
    points: Sequence[SweepPoint],
    schemes: Sequence[str],
    fault_ratios: dict[str, float | None] | None = None,
) -> list[BakeoffRow]:
    """Fold grid points into one row per scheme, best mean ICT first."""
    rows = []
    for name in schemes:
        summaries = [p.schemes[name] for p in points]
        with_data = [s for s in summaries if s.ict.count > 0]
        mean_ict = (
            sum(s.ict.mean for s in with_data) / len(with_data)
            if with_data
            else float("nan")
        )
        reduction = average_reductions(list(points), name) if name != "baseline" else None
        spec = SCHEME_REGISTRY.get(name)
        rows.append(BakeoffRow(
            rank=0,
            scheme=name,
            display_name=spec.display_name,
            mean_ict_ps=mean_ict,
            mean_reduction=reduction,
            retransmissions=sum(s.retransmissions for s in summaries),
            timeouts=sum(s.timeouts for s in summaries),
            trims=sum(s.trims for s in summaries),
            drops=sum(s.drops for s in summaries),
            failures=sum(s.failures for s in summaries),
            all_completed=all(s.all_completed for s in with_data) if with_data else False,
            fault_ratio=(fault_ratios or {}).get(name),
        ))
    rows.sort(key=lambda r: (math.isnan(r.mean_ict_ps), r.mean_ict_ps))
    for position, row in enumerate(rows, start=1):
        row.rank = position
    return rows


def bakeoff_table(rows: Sequence[BakeoffRow]) -> str:
    """The ranked summary as an aligned text table."""
    headers = ["#", "scheme", "mean ICT (ms)", "vs base", "retx", "timeouts",
               "trims", "fails", "fault x"]
    body = []
    for row in rows:
        body.append([
            str(row.rank),
            row.scheme,
            "n/a" if math.isnan(row.mean_ict_ps) else f"{row.mean_ict_ps / 1e9:.3f}",
            "—" if row.mean_reduction is None else f"{row.mean_reduction:+.1%}",
            f"{row.retransmissions:.0f}",
            f"{row.timeouts:.0f}",
            f"{row.trims:.0f}",
            str(row.failures),
            "n/a" if row.fault_ratio is None else f"{row.fault_ratio:.2f}",
        ])
    return render_table(headers, body)


def bakeoff_figure(rows: Sequence[BakeoffRow], width: int = 48) -> str:
    """ASCII bar figure: mean ICT per scheme, shorter bar is better."""
    finite = [r.mean_ict_ps for r in rows if not math.isnan(r.mean_ict_ps)]
    worst = max(finite) if finite else 1.0
    lines = ["Bake-off — mean ICT across the grid (shorter is better)"]
    name_width = max((len(r.scheme) for r in rows), default=6)
    for row in rows:
        if math.isnan(row.mean_ict_ps):
            bar, value = "?", "n/a"
        else:
            bar = "#" * max(1, round(width * row.mean_ict_ps / worst))
            value = f"{row.mean_ict_ps / 1e9:.3f} ms"
        lines.append(f"{row.scheme.ljust(name_width)} |{bar} {value}")
    return "\n".join(lines)


def export_bakeoff(
    rows: Sequence[BakeoffRow],
    points: Sequence[SweepPoint],
    directory: Path,
    digest: str,
) -> list[Path]:
    """Write the ranked summary as CSV + JSON (+ the raw grid CSV)."""
    from repro.metrics.export import write_sweep_csv

    written = export_rows(rows, directory, "bakeoff_summary", digest=digest)
    written.append(write_sweep_csv(list(points), directory / "bakeoff_grid.csv"))

    figure_txt = directory / "bakeoff_figure.txt"
    figure_txt.write_text(bakeoff_figure(rows) + "\n")
    written.append(figure_txt)
    return written


# ---------------------------------------------------------------------------
# CLI: python -m repro bakeoff
# ---------------------------------------------------------------------------

def _run_bakeoff(
    engine: ExperimentEngine,
    *,
    smoke: bool,
    reps: int,
    seed0: int,
    export_dir: Path | None,
) -> None:
    schemes = SCHEME_REGISTRY.names()

    base = bakeoff_base_scenario(
        total_bytes=kilobytes(200) if smoke else kilobytes(400)
    )
    if smoke:
        grid_kwargs = dict(
            degrees=(4,), delays_ps=(milliseconds(1),), buffer_scales=(1.0,),
            reps=min(reps, 2),
        )
        fault_reps = 1
    else:
        grid_kwargs = dict(reps=reps)
        fault_reps = max(2, reps - 1)

    points = run_grid(
        bakeoff_grid_spec(base, schemes=schemes, seed0=seed0, **grid_kwargs),
        engine=engine,
    )
    fault_points, ratios = fault_sensitivity(
        schemes, reps=fault_reps, base=base, engine=engine, seed0=seed0,
    )
    rows = rank_bakeoff(points, schemes, ratios)
    digest = sweep_digest(list(points) + list(fault_points))

    print(f"\n=== Scheme bake-off ({len(schemes)} schemes, "
          f"{len(points)} grid points) ===")
    print(bakeoff_table(rows))
    print()
    print(bakeoff_figure(rows))
    print(f"sweep_digest: {digest}")

    if export_dir is not None:
        for path in export_bakeoff(rows, points, export_dir, digest):
            print(f"exported {path}")

    if len(rows) < 8:
        print(f"BAKEOFF FAILED: only {len(rows)} schemes ranked (expected >= 8)")
        raise SystemExit(1)


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the bake-off (``python -m repro bakeoff``)."""
    import repro.competitors as competitors
    from repro.__main__ import driver_parser, run_driver

    parser = driver_parser(
        "python -m repro bakeoff",
        "rank every registered scheme on a degree x RTT x buffer grid",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions per grid cell")
    parser.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="write ranked summary CSV/JSON, grid CSV, and the figure into DIR",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized grid; digest must match across --workers values",
    )

    def body(args, engine: ExperimentEngine) -> None:
        if args.reps < 1:
            parser.error(f"--reps must be at least 1, got {args.reps}")
        with competitors.installed():
            _run_bakeoff(
                engine,
                smoke=args.smoke,
                reps=args.reps,
                seed0=args.seed,
                export_dir=args.export,
            )

    run_driver(parser, argv, body)
