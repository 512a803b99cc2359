"""The open-loop workload sweep: ``python -m repro workload``.

Runs the :mod:`repro.workloads.engine` production-traffic engine and
lands the headline open-loop figure: **per-scheme ICT SLO attainment vs
offered load**, with proxy orchestration active and (optionally) the
pattern-aware predictor gating proxy use.

Two shapes:

* the default sweep — scheme × load-factor grid, one open-loop run per
  cell, rendered as a table plus an ASCII attainment figure and exported
  via :func:`~repro.experiments.report.export_rows`;
* ``--smoke`` — one multi-minute sketch-mode run with the bounded-memory
  contract asserted (:func:`~repro.workloads.engine.rss_plateau_ok`),
  printing ``workload_digest:`` for CI to diff.  Combined with
  ``--checkpoint-dir`` / ``--kill-at`` / ``--resume`` it is the CI
  preemption drill: SIGKILL at half-horizon, restore, and the resumed
  digest must be bit-identical to the uninterrupted one.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.metrics.config import MODE_SKETCH, MetricsConfig
from repro.units import seconds
from repro.workloads.engine import (
    OpenLoopEngine,
    WorkloadEngineConfig,
    WorkloadResult,
    rss_plateau_ok,
)

#: Built-in schemes the default sweep covers (plug-ins join via --schemes).
DEFAULT_SCHEMES = ("baseline", "naive", "streamlined")
DEFAULT_LOADS = (0.5, 1.0, 2.0, 4.0)

_CHECKPOINT_NAME = "workload.ckpt"


@dataclass
class WorkloadRow:
    """One sweep cell, report-ready."""

    scheme: str
    predictor: bool
    load_factor: float
    horizon_ps: int
    tenants: int
    jobs_launched: int
    jobs_completed: int
    jobs_proxied: int
    jobs_direct: int
    attainment: float
    completion: float
    ict_p50_ps: float
    ict_p99_ps: float
    digest: str

    @property
    def label(self) -> str:
        """Scheme label with the predictor marked."""
        return f"{self.scheme}+pred" if self.predictor else self.scheme


def row_from_result(result: WorkloadResult, *, predictor: bool) -> WorkloadRow:
    """Fold one engine result into its sweep row."""
    ict = result.ict
    empty = ict.count == 0
    return WorkloadRow(
        scheme=result.scheme,
        predictor=predictor,
        load_factor=result.load_factor,
        horizon_ps=result.horizon_ps,
        tenants=result.tenants,
        jobs_launched=result.jobs_launched,
        jobs_completed=result.jobs_completed,
        jobs_proxied=result.jobs_proxied,
        jobs_direct=result.jobs_direct,
        attainment=result.attainment,
        completion=result.completion,
        ict_p50_ps=0.0 if empty else ict.percentile(50.0),
        ict_p99_ps=0.0 if empty else ict.percentile(99.0),
        digest=result.digest,
    )


def workload_digest(rows: Sequence[WorkloadRow]) -> str:
    """Identity of a whole sweep: the ordered per-run digests, hashed."""
    return hashlib.sha256(
        "\n".join(f"{r.label}|{r.load_factor!r}|{r.digest}" for r in rows).encode()
    ).hexdigest()


def workload_sweep(
    base: WorkloadEngineConfig,
    *,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    loads: Sequence[float] = DEFAULT_LOADS,
    predictor_schemes: Sequence[str] = (),
) -> list[WorkloadRow]:
    """Run the scheme × load grid (serially: each run owns one fabric).

    ``predictor_schemes`` adds extra rows for those schemes with the
    pattern-aware gate enabled, on top of their always-proxy rows.
    """
    rows = []
    cells = [(s, False) for s in schemes] + [(s, True) for s in predictor_schemes]
    for load in loads:
        for scheme, predictor in cells:
            config = replace(
                base, scheme=scheme, load_factor=load, pattern_predictor=predictor
            )
            result = OpenLoopEngine(config).run()
            rows.append(row_from_result(result, predictor=predictor))
    return rows


# ---------------------------------------------------------------------------
# Presentation & export
# ---------------------------------------------------------------------------

_HEADERS = (
    "scheme", "load", "tenants", "incasts", "proxied", "attain",
    "complete", "p50", "p99",
)


def workload_table(rows: Sequence[WorkloadRow]) -> str:
    """Render the sweep as the aligned text table the CLI prints."""
    from repro.experiments.report import render_table

    body = [
        [
            r.label,
            f"{r.load_factor:g}x",
            f"{r.tenants}",
            f"{r.jobs_completed}/{r.jobs_launched}",
            f"{r.jobs_proxied}",
            f"{r.attainment:.3f}",
            f"{r.completion:.3f}",
            f"{r.ict_p50_ps / 1e9:.2f}ms",
            f"{r.ict_p99_ps / 1e9:.2f}ms",
        ]
        for r in rows
    ]
    return render_table(_HEADERS, body)


def attainment_figure(rows: Sequence[WorkloadRow], *, width: int = 40) -> str:
    """ASCII headline figure: SLO attainment vs offered load, per scheme."""
    lines = ["SLO attainment vs offered load"]
    loads = sorted({r.load_factor for r in rows})
    for load in loads:
        lines.append(f"  load {load:g}x")
        for r in rows:
            if r.load_factor != load:
                continue
            bar = "#" * max(0, round(r.attainment * width))
            lines.append(f"    {r.label:<20} {bar:<{width}} {r.attainment:.3f}")
    return "\n".join(lines)


def export_workload(rows: Sequence[WorkloadRow], directory: Path) -> list[Path]:
    """Write ``workload_slo.csv`` and ``workload_slo.json`` under ``directory``."""
    from repro.experiments.report import export_rows

    fields = (
        "scheme", "predictor", "load_factor", "horizon_ps", "tenants",
        "jobs_launched", "jobs_completed", "jobs_proxied", "jobs_direct",
        "attainment", "completion", "ict_p50_ps", "ict_p99_ps", "digest",
    )
    return export_rows(
        rows, directory, "workload_slo",
        fields=fields, digest=workload_digest(rows), schema=1,
    )


# ---------------------------------------------------------------------------
# CLI: python -m repro workload
# ---------------------------------------------------------------------------

def _parse_loads(text: str) -> tuple[float, ...]:
    try:
        loads = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad load list {text!r}") from None
    if not loads or any(load <= 0 for load in loads):
        raise argparse.ArgumentTypeError("loads must be positive numbers")
    return loads


def _smoke(
    config: WorkloadEngineConfig,
    *,
    checkpoint: Path | None,
    resume: bool,
    kill_at_ps: int | None,
) -> None:
    """One sketch-mode run with the memory and durability contracts checked."""
    from repro.sim.checkpoint import load_checkpoint

    if resume:
        if checkpoint is None:
            raise SystemExit("--resume requires --checkpoint-dir")
        engine = load_checkpoint(checkpoint / _CHECKPOINT_NAME)
        if not isinstance(engine, OpenLoopEngine):
            raise SystemExit(f"{checkpoint / _CHECKPOINT_NAME} is not an engine checkpoint")
        print(f"resumed at t={engine.sim.now / 1e12:.1f}s "
              f"({engine.segments_done} segments done)")
    else:
        engine = OpenLoopEngine(config)
    result = engine.run(
        checkpoint_path=None if checkpoint is None else checkpoint / _CHECKPOINT_NAME,
        kill_at_ps=kill_at_ps,
    )
    row = row_from_result(result, predictor=config.pattern_predictor)
    print(workload_table([row]))
    print(f"workload_digest: {result.digest}")
    problems = []
    if result.jobs_completed == 0:
        problems.append("no incast completed")
    if result.completion < 0.9:
        problems.append(f"completion {result.completion:.3f} < 0.9")
    # A resumed run's RSS track mixes two processes' high-water marks, so
    # the plateau contract is only judged on uninterrupted runs (and it
    # needs enough segments to separate warmup from steady state).
    if not resume and config.metrics.bounded and len(result.rss_track) >= 8:
        if not rss_plateau_ok(result.rss_track):
            track = [kb for _, kb in result.rss_track]
            problems.append(f"RSS kept growing: {track[0]} .. {track[-1]} kB")
        else:
            print(f"rss plateau: ok ({result.rss_track[-1][1]} kB peak, "
                  f"{len(result.rss_track)} segments)")
    if problems:
        for problem in problems:
            print(f"SMOKE FAILED: {problem}")
        raise SystemExit(1)
    print(f"workload: ok ({result.jobs_completed} incasts, "
          f"{result.horizon_ps / 1e12:.0f}s simulated)")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the open-loop workload engine."""
    from repro import competitors
    from repro.__main__ import run_parser

    parser = argparse.ArgumentParser(
        prog="python -m repro workload",
        description="open-loop production traffic: seeded tenant arrivals, "
                    "heavy-tailed incasts, diurnal load, streaming metrics, "
                    "checkpoint/restore",
        parents=[run_parser()],
    )
    parser.add_argument(
        "--schemes", type=str, default=",".join(DEFAULT_SCHEMES),
        help=f"comma-separated schemes to sweep "
             f"(default {','.join(DEFAULT_SCHEMES)})",
    )
    parser.add_argument(
        "--loads", type=_parse_loads, default=DEFAULT_LOADS, metavar="L1,L2,..",
        help="offered-load factors to sweep (default "
             + ",".join(f"{load:g}" for load in DEFAULT_LOADS) + ")",
    )
    parser.add_argument(
        "--horizon", type=float, default=None, metavar="S",
        help="simulated horizon per run in seconds (default 30; "
             "--smoke defaults to 120)",
    )
    parser.add_argument(
        "--segment", type=float, default=5.0, metavar="S",
        help="checkpoint/RSS segment length in simulated seconds (default 5)",
    )
    parser.add_argument(
        "--rate", type=float, default=20.0, metavar="N",
        help="peak tenant arrivals per simulated second, before the "
             "load factor (default 20)",
    )
    parser.add_argument(
        "--slo", type=float, default=10.0, metavar="MS",
        help="per-incast completion-time SLO in milliseconds (default 10: "
             "loose enough for any uncongested transfer, tight enough to "
             "fail first-RTT-overflow RTO recoveries)",
    )
    parser.add_argument(
        "--strategy", type=str, default="central",
        help="proxy-selection strategy for proxy schemes (default central)",
    )
    parser.add_argument(
        "--predictor", action="store_true",
        help="also sweep each proxy scheme with the pattern-aware "
             "predictor gating proxy use (smoke: gate the single run)",
    )
    parser.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write workload_slo.csv and workload_slo.json into DIR",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one sketch-mode run with memory/durability contracts (CI)",
    )
    parser.add_argument(
        "--checkpoint-dir", type=Path, default=None, metavar="DIR",
        help="write a checkpoint after every segment into DIR (smoke mode)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore from --checkpoint-dir and continue instead of "
             "starting fresh",
    )
    parser.add_argument(
        "--kill-at", type=float, default=None, metavar="S",
        help="SIGKILL this process at the first segment boundary at or "
             "past S simulated seconds, after checkpointing (CI drill)",
    )
    args = parser.parse_args(argv)
    if args.horizon is not None and args.horizon <= 0:
        parser.error(f"--horizon must be positive, got {args.horizon}")
    if args.segment <= 0:
        parser.error(f"--segment must be positive, got {args.segment}")
    if args.rate <= 0:
        parser.error(f"--rate must be positive, got {args.rate}")
    if args.slo <= 0:
        parser.error(f"--slo must be positive, got {args.slo}")
    if args.kill_at is not None and args.checkpoint_dir is None:
        parser.error("--kill-at requires --checkpoint-dir (nothing to resume from)")
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")

    # Plug-in schemes are sweepable by name, same as the bake-off.
    with competitors.installed():
        _run(parser, args)


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The smoke drill or the sweep ``args`` asks for."""
    # Open-loop runs default to bounded sketch sinks; --metrics exact
    # opts back into the reference per-packet paths.
    metrics = (
        MetricsConfig(mode=args.metrics) if args.metrics is not None
        else MetricsConfig(mode=MODE_SKETCH)
    )
    horizon_s = args.horizon if args.horizon is not None else (120.0 if args.smoke else 30.0)
    base = WorkloadEngineConfig(
        strategy=args.strategy,
        horizon_ps=max(1, int(round(seconds(horizon_s)))),
        segment_ps=max(1, int(round(seconds(args.segment)))),
        peak_arrivals_per_s=args.rate,
        slo_ps=max(1, int(round(args.slo * 1e9))),
        pattern_predictor=args.predictor,
        metrics=metrics,
        seed=args.seed,
    )

    if args.smoke:
        _smoke(
            replace(base, scheme="streamlined"),
            checkpoint=args.checkpoint_dir,
            resume=args.resume,
            kill_at_ps=None if args.kill_at is None
            else max(1, int(round(seconds(args.kill_at)))),
        )
        return

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if not schemes:
        parser.error("--schemes named no schemes")
    from repro.schemes import SCHEME_REGISTRY

    predictor_schemes = ()
    if args.predictor:
        predictor_schemes = tuple(
            s for s in schemes if SCHEME_REGISTRY.get(s).make_proxy is not None
        )
    rows = workload_sweep(
        replace(base, pattern_predictor=False),
        schemes=schemes,
        loads=args.loads,
        predictor_schemes=predictor_schemes,
    )
    print("\n=== Open-loop workload sweep ===")
    print(workload_table(rows))
    print()
    print(attainment_figure(rows))
    print(f"workload_digest: {workload_digest(rows)}")
    if args.export is not None:
        for path in export_workload(rows, args.export):
            print(f"exported: {path}")

