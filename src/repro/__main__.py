"""Top-level CLI: ``python -m repro <command>``.

Commands:

* ``figures``  — regenerate the paper's figures as text tables
  (see ``python -m repro figures --help``);
* ``verdicts`` — the automated claim-by-claim scorecard;
* ``quickstart`` — the headline comparison, one table;
* ``faults``   — fault-injection sweeps: ICT vs fault severity per scheme
  (see ``python -m repro faults --help``);
* ``bakeoff``  — rank every registered scheme (built-ins plus the
  ``repro.competitors`` plug-ins) on a degree × RTT × buffer grid
  (see ``python -m repro bakeoff --help``);
* ``recovery`` — the reactive-control-plane sweep: fault detection time,
  reroute convergence time, and post-failure ICT inflation per scheme
  across a link-failure × proxy-crash grid
  (see ``python -m repro recovery --help``);
* ``lint``     — the determinism linter over ``src`` and ``benchmarks``
  (see ``python -m repro lint --help``); exits non-zero on violations;
* ``races``    — the dynamic race detector: re-run scenarios under
  perturbed same-tick event orders, diff digests, and bisect divergences
  (see ``python -m repro races --help``);
* ``rebaseline`` — the re-baseline protocol: record or check multi-seed
  ICT intervals on the headline figure cells
  (see ``python -m repro rebaseline --help``);
* ``service``  — the sweep service: declare a grid, run it as a
  journaled, killable, resumable campaign, or inspect its progress
  (see ``python -m repro service --help``);
* ``workload`` — the open-loop production-traffic engine: seeded tenant
  arrivals, heavy-tailed incast sizes, a diurnal load curve, streaming
  metric sketches, and checkpoint/restore; lands the per-scheme ICT SLO
  attainment vs offered load figure
  (see ``python -m repro workload --help``).

``python -m repro --version`` prints the library version.

Each command has exactly one entry point — this dispatcher.  The flags
are shared through two argparse *parent* parsers: :func:`run_parser`
holds what any simulation run reads (``--seed`` / ``--metrics``) and is
all ``workload`` takes; :func:`common_parser` adds the engine flags
(``--workers`` / ``--no-cache`` / ``--cache-dir`` / ``--run-timeout`` /
``--sanitize``) and the telemetry flags (``--telemetry``
/ ``--telemetry-dir`` / ``--sample-interval``) for the commands that run
an :class:`~repro.experiments.parallel.ExperimentEngine`.  The five sweep
drivers (``quickstart``, ``figures``, ``faults``, ``bakeoff``,
``recovery``) run under one harness, :func:`run_driver`: parse → validate
→ :func:`build_engine` → the driver's body → telemetry export → the
``[engine]`` footer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ExperimentEngine
    from repro.telemetry import RunOptions

#: Where ``--telemetry`` writes its JSON/CSV unless ``--telemetry-dir``
#: points elsewhere.
DEFAULT_TELEMETRY_DIR = Path("results/telemetry")


def run_parser() -> argparse.ArgumentParser:
    """The parent parser for the flags every simulation run reads."""
    parser = argparse.ArgumentParser(add_help=False)
    run = parser.add_argument_group("run")
    run.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="base seed: repetition r of a sweep point runs with seed N+r "
             "(default 0)",
    )
    run.add_argument(
        "--metrics", choices=("exact", "sketch"), default=None,
        help="metric sink mode: 'exact' keeps full per-packet series "
             "(reference); 'sketch' folds them into bounded-memory "
             "reservoir/quantile sketches (default: exact, except the "
             "open-loop workload engine which defaults to sketch)",
    )
    return parser


def common_parser() -> argparse.ArgumentParser:
    """The shared parent parser for every engine-running subcommand.

    :func:`run_parser` plus the engine and telemetry flags.  Use as
    ``argparse.ArgumentParser(parents=[common_parser()], ...)``; validate
    the result with :func:`check_common_args`.
    """
    parser = argparse.ArgumentParser(add_help=False, parents=[run_parser()])
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="simulation processes to fan runs over (0 = one per CPU; "
             "default serial)",
    )
    execution.add_argument(
        "--no-cache", action="store_true",
        help="always re-simulate; skip the on-disk sweep result cache",
    )
    execution.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="sweep result cache location (default results/.sweep-cache)",
    )
    execution.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock deadline in seconds (overruns are quarantined)",
    )
    execution.add_argument(
        "--sanitize", action="store_true",
        help="run every simulation under the invariant sanitizer "
             "(packet/byte conservation, queue bounds; bypasses the cache)",
    )
    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument(
        "--telemetry", action="store_true",
        help="record per-run time-series/profiles and sweep-level progress "
             "and cache accounting; exports versioned JSON + CSV "
             "(bypasses the result cache; simulation results are unchanged)",
    )
    telemetry.add_argument(
        "--telemetry-dir", type=Path, default=DEFAULT_TELEMETRY_DIR,
        metavar="DIR",
        help=f"where --telemetry writes telemetry.json and "
             f"telemetry_runs.csv (default {DEFAULT_TELEMETRY_DIR})",
    )
    telemetry.add_argument(
        "--sample-interval", type=float, default=10.0, metavar="US",
        help="telemetry sampling cadence in microseconds of simulated time "
             "(default 10)",
    )
    return parser


def check_common_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Validate the shared flags; calls ``parser.error`` on bad values."""
    if args.workers < 0:
        parser.error(f"--workers must be non-negative, got {args.workers}")
    if args.run_timeout is not None and args.run_timeout <= 0:
        parser.error(f"--run-timeout must be positive, got {args.run_timeout}")
    if args.sample_interval <= 0:
        parser.error(
            f"--sample-interval must be positive, got {args.sample_interval}"
        )


def options_from_args(args: argparse.Namespace) -> "RunOptions":
    """Build the :class:`~repro.telemetry.RunOptions` the shared flags ask for."""
    from repro.metrics.config import DEFAULT_METRICS, MetricsConfig
    from repro.telemetry import RunOptions

    metrics = (
        DEFAULT_METRICS if args.metrics is None
        else MetricsConfig(mode=args.metrics)
    )
    return RunOptions(
        sanitize=args.sanitize,
        telemetry=args.telemetry,
        sample_interval_ps=max(1, int(round(args.sample_interval * 1_000_000))),
        metrics=metrics,
    )


def build_engine(args: argparse.Namespace) -> "ExperimentEngine":
    """The engine the shared flags ask for (the one CLI construction site)."""
    from repro.experiments.parallel import (
        DEFAULT_CACHE_DIR,
        ExperimentEngine,
        ResultCache,
    )
    from repro.telemetry import SweepTelemetry

    return ExperimentEngine(
        workers=args.workers or None,  # 0 = one per CPU
        cache=None if args.no_cache
        else ResultCache(args.cache_dir or DEFAULT_CACHE_DIR),
        run_timeout_s=args.run_timeout,
        options=options_from_args(args),
        telemetry=SweepTelemetry() if args.telemetry else None,
        on_fallback=lambda reason: print(f"[parallel] {reason}"),
    )


def driver_parser(prog: str, description: str | None) -> argparse.ArgumentParser:
    """A sweep driver's parser: the shared flags, ready for its own."""
    return argparse.ArgumentParser(
        prog=prog, description=description, parents=[common_parser()]
    )


def run_driver(
    parser: argparse.ArgumentParser,
    argv: Sequence[str] | None,
    body: Callable[[argparse.Namespace, "ExperimentEngine"], None],
) -> None:
    """The one CLI harness every sweep driver runs under.

    Parses and validates the flags, builds the engine, runs
    ``body(args, engine)``, then exports the sweep telemetry (with
    ``--telemetry``) and prints the engine's accounting footer.
    """
    args = parser.parse_args(argv)
    check_common_args(parser, args)
    engine = build_engine(args)
    body(args, engine)
    stats = engine.stats
    if engine.telemetry is not None:
        json_path, csv_path = engine.telemetry.write(args.telemetry_dir, stats)
        print(f"telemetry exported: {json_path} {csv_path}")
    if stats.tasks:
        line = (
            f"\n[engine] {stats.tasks} runs, {stats.cache_hits} cached, "
            f"{stats.cache_misses} simulated, {stats.failures} quarantined, "
            f"{stats.retries} retries, workers={stats.workers}, "
            f"wall {stats.wall_seconds:.2f}s"
        )
        if stats.cache_misses:
            line += (
                f" (serial-equivalent {stats.sim_wall_seconds:.2f}s, "
                f"speedup {stats.speedup:.2f}x)"
            )
        print(line)


def _quickstart(args: argparse.Namespace, engine: "ExperimentEngine") -> None:
    from dataclasses import replace

    from repro.config import TransportConfig, small_interdc_config
    from repro.experiments.runner import SCHEMES, IncastScenario
    from repro.units import format_duration, megabytes

    scenario = IncastScenario(
        degree=4,
        total_bytes=megabytes(40),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
        seed=args.seed,
    )
    results = engine.run_incasts(
        [replace(scenario, scheme=scheme) for scheme in SCHEMES]
    )
    if args.sanitize:
        print(f"{'scheme':<14} {'ICT':>12} {'conservation':>16}")
        for scheme, result in zip(SCHEMES, results):
            tally = result.conservation or {}
            status = f"{tally.get('injected_packets', 0)} pkts ok"
            print(f"{scheme:<14} {format_duration(result.ict_ps):>12} {status:>16}")
    else:
        print(f"{'scheme':<14} {'ICT':>12}")
        for scheme, result in zip(SCHEMES, results):
            print(f"{scheme:<14} {format_duration(result.ict_ps):>12}")
    for result in results:
        snap = result.telemetry
        if snap is None:
            continue
        queue = snap.get("net.queue_bytes")
        peak = queue.peak() if queue is not None else 0.0
        profile = snap.profile
        print(
            f"[telemetry] {result.scenario.scheme}: "
            f"{profile.events_executed} events "
            f"({profile.events_per_second:,.0f}/s), "
            f"peak net queue {peak:,.0f}B, "
            f"rss {profile.peak_rss_kb} kB"
        )


def main(argv: list[str] | None = None) -> None:
    """Dispatch to a subcommand."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] in ("--version", "-V"):
        from repro import __version__

        print(f"repro {__version__}")
        return
    command = args.pop(0) if args and not args[0].startswith("-") else "quickstart"
    if command == "figures":
        from repro.experiments.figures import main as figures_main

        figures_main(args)
    elif command == "verdicts":
        from repro.experiments.verdicts import main as verdicts_main

        verdicts_main(args)
    elif command == "faults":
        from repro.experiments.faultsweep import main as faults_main

        faults_main(args)
    elif command == "bakeoff":
        from repro.experiments.bakeoff import main as bakeoff_main

        bakeoff_main(args)
    elif command == "recovery":
        from repro.experiments.recovery import main as recovery_main

        recovery_main(args)
    elif command == "lint":
        from repro.analysis.lint import main as lint_main

        raise SystemExit(lint_main(args))
    elif command == "races":
        from repro.analysis.races import main as races_main

        races_main(args)
    elif command == "rebaseline":
        from repro.analysis.rebaseline import main as rebaseline_main

        rebaseline_main(args)
    elif command == "service":
        from repro.experiments.service import main as service_main

        service_main(args)
    elif command == "workload":
        from repro.experiments.workload import main as workload_main

        workload_main(args)
    elif command == "quickstart":
        run_driver(
            driver_parser(
                "python -m repro quickstart",
                "the headline comparison of the five built-in schemes",
            ),
            args,
            _quickstart,
        )
    else:
        print(f"unknown command {command!r}; "
              "try: figures, verdicts, quickstart, faults, bakeoff, "
              "recovery, lint, races, rebaseline, service, workload",
              file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    main()
