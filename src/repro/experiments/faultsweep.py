"""Fault sweeps: ICT (and failure counts) vs fault severity per scheme.

The paper's evaluation assumes a healthy network; this module asks what
each scheme pays when the network misbehaves.  Two stock sweeps, each
declared as a grid and run by :func:`~repro.experiments.grid.run_grid`:

* :func:`blackhole_rate_sweep_spec` — a silent-drop window covers the run
  while the drop fraction sweeps the x-axis.  Schemes with µs-scale loss
  feedback (the proxy family) should recover cheaply; the baseline pays a
  long-haul RTO per loss burst.
* :func:`proxy_crash_sweep_spec` — the primary proxy crashes mid-incast at a
  swept time.  The naive proxy loses split-connection state and its flows
  fail; the streamlined proxy without a backup strands its flows until
  their senders give up; ``proxy-failover`` detects the crash and
  migrates onto the backup, completing within detection time plus one
  recovery round.

Both reuse the generic sweep machinery, so quarantined runs surface as
per-scheme ``failures`` and the digest stays worker-count independent.

Timing note: with windowed transports the incast traffic crosses the
proxy in short bursts (first burst within tens of µs; subsequent bursts
one long-haul RTT apart), so crash times are swept inside the first burst
and blackhole windows span the whole run.
"""

from __future__ import annotations

import signal
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.grid import (
    GridSpec,
    axis,
    run_grid,
    scenario_to_doc,
    sweep_spec,
)
from repro.experiments.parallel import ExperimentEngine, RunFailure
from repro.experiments.runner import IncastResult, IncastScenario
from repro.experiments.sweeps import SweepPoint, sweep_digest
from repro.faults.plan import CrashRun, FaultPlan, StallRun, blackhole_plan, proxy_crash_plan
from repro.units import kilobytes, microseconds, milliseconds, seconds

#: The schemes the fault figures compare.  ``trimless`` is omitted: its
#: fault behavior matches ``streamlined`` (same forwarding, same crash
#: semantics) and the fault story is about recovery strategies.
FAULT_SCHEMES = ("baseline", "naive", "streamlined", "proxy-failover")

#: Default drop fractions for the blackhole sweep (0 = healthy control).
DEFAULT_BLACKHOLE_RATES = (0.0, 0.01, 0.02, 0.05)

#: Default crash times: inside the first transmission burst through the
#: proxy, where a crash actually intersects traffic.
DEFAULT_CRASH_TIMES_PS = (microseconds(5), microseconds(10), microseconds(20))


def fault_base_scenario(
    *,
    degree: int = 4,
    total_bytes: int = kilobytes(400),
    horizon_ps: int = seconds(2),
    max_consecutive_timeouts: int = 8,
) -> IncastScenario:
    """The shared scenario under the fault sweeps.

    Small fabric, small incast (runs in well under a second each), and a
    bounded give-up point so a stranded flow fails in bounded time
    instead of pinning the run to the horizon.
    """
    return IncastScenario(
        degree=degree,
        total_bytes=total_bytes,
        interdc=small_interdc_config(),
        transport=TransportConfig(max_consecutive_timeouts=max_consecutive_timeouts),
        horizon_ps=horizon_ps,
    )


def blackhole_rate_sweep_spec(
    base: IncastScenario | None = None,
    rates: Sequence[float] = DEFAULT_BLACKHOLE_RATES,
    schemes: Sequence[str] = FAULT_SCHEMES,
    reps: int = 3,
    *,
    window_ps: int = milliseconds(50),
    target: str = "backbone",
    seed0: int = 0,
) -> GridSpec:
    """ICT vs silent-drop fraction on ``target``, as a grid.

    The fault axis carries canonical plan documents.
    """
    base = base or fault_base_scenario()
    plans = [
        FaultPlan()
        if rate <= 0
        else blackhole_plan(
            at_ps=0, duration_ps=window_ps, drop_fraction=rate, target=target
        )
        for rate in rates
    ]
    point = axis(
        "point", "faults", [scenario_to_doc(plan) for plan in plans],
        labels=[f"drop={rate * 100:g}%" for rate in rates],
        xs=[float(rate) for rate in rates],
    )
    return sweep_spec(base, point, schemes, reps, seed0)


def proxy_crash_sweep_spec(
    base: IncastScenario | None = None,
    crash_times_ps: Sequence[int] = DEFAULT_CRASH_TIMES_PS,
    schemes: Sequence[str] = FAULT_SCHEMES,
    reps: int = 3,
    seed0: int = 0,
) -> GridSpec:
    """ICT vs crash time of the primary proxy, as a grid.

    The crash targets the ``primary`` role, so the baseline (no proxy)
    records the event as skipped and serves as the unaffected control.
    """
    base = base or fault_base_scenario()
    point = axis(
        "point", "faults",
        [scenario_to_doc(proxy_crash_plan(at_ps=t)) for t in crash_times_ps],
        labels=[f"crash@{t / 1e6:g}us" for t in crash_times_ps],
        xs=[t / 1e6 for t in crash_times_ps],
    )
    return sweep_spec(base, point, schemes, reps, seed0)


def fault_plan_spec(
    plan: FaultPlan,
    base: IncastScenario | None = None,
    schemes: Sequence[str] = FAULT_SCHEMES,
    reps: int = 3,
    *,
    label: str = "plan",
    seed0: int = 0,
) -> GridSpec:
    """One user-supplied fault plan across every scheme (a one-point grid)."""
    if not isinstance(plan, FaultPlan):
        raise ExperimentError(f"expected a FaultPlan, got {type(plan).__name__}")
    base = base or fault_base_scenario()
    point = axis(
        "point", "faults", [scenario_to_doc(plan)], labels=[label], xs=[0.0]
    )
    return sweep_spec(base, point, schemes, reps, seed0)


# ---------------------------------------------------------------------------
# CLI: python -m repro faults
# ---------------------------------------------------------------------------

def _print_points(name: str, points: list[SweepPoint], schemes: Sequence[str],
                  export_dir: Path | None) -> None:
    from repro.experiments.report import sweep_table

    print(f"\n=== {name} ===")
    print(sweep_table(points, schemes))
    if export_dir is not None:
        from repro.metrics.export import write_sweep_csv

        stem = name.lower().replace(" ", "_")
        path = write_sweep_csv(points, export_dir / f"{stem}.csv")
        print(f"exported {path}")


def _smoke(engine: ExperimentEngine, run_timeout: float | None) -> None:
    """CI smoke: a tiny crash sweep (digest printed) + quarantine demo."""
    points = run_grid(
        proxy_crash_sweep_spec(crash_times_ps=(microseconds(10),), reps=2),
        engine=engine,
    )
    _print_points("Fault smoke (proxy crash @10us)", points, FAULT_SCHEMES, None)
    print(f"sweep_digest: {sweep_digest(points)}")

    # Quarantine demonstration: two healthy runs bracket a deliberately
    # raising run and a deliberately stalling run; the engine must return
    # results for the healthy pair and structured failures for the rest.
    base = fault_base_scenario()
    batch = [
        replace(base, scheme="baseline", seed=101),
        replace(base, scheme="baseline", seed=102, faults=FaultPlan(
            (CrashRun(at_ps=0, message="smoke: deliberate failure"),)
        )),
        replace(base, scheme="streamlined", seed=103),
    ]
    timeout = run_timeout or 10.0
    if hasattr(signal, "SIGALRM"):
        batch.insert(2, replace(base, scheme="baseline", seed=104, faults=FaultPlan(
            (StallRun(at_ps=0, wall_seconds=max(60.0, timeout * 10)),)
        )))
    quarantine_engine = ExperimentEngine(
        workers=engine.workers, run_timeout_s=timeout,
        max_attempts=2, retry_backoff_s=0.01,
    )
    detailed = quarantine_engine.run_incasts_detailed(batch)
    ok = [r for r in detailed if isinstance(r, IncastResult)]
    failed = [r for r in detailed if isinstance(r, RunFailure)]
    for entry in detailed:
        if isinstance(entry, RunFailure):
            print(f"quarantined: {entry.kind} — {entry.message}")
    expect_failures = len(batch) - 2
    if len(ok) != 2 or len(failed) != expect_failures:
        print(f"SMOKE FAILED: {len(ok)} ok / {len(failed)} quarantined "
              f"(expected 2 / {expect_failures})")
        raise SystemExit(1)
    print(f"quarantine: ok ({len(ok)} results, {len(failed)} structured failures)")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the fault sweeps (``python -m repro faults``)."""
    from repro.__main__ import driver_parser, run_driver

    parser = driver_parser(
        "python -m repro faults",
        "fault-injection sweeps: ICT vs fault severity per scheme",
    )
    parser.add_argument(
        "--fault-plan", type=Path, default=None, metavar="FILE",
        help="run a JSON fault plan across every scheme instead of the stock sweeps",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions per sweep point")
    parser.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write each sweep's data as CSV into DIR",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny deterministic sweep + engine quarantine check (CI)",
    )

    def body(args, engine: ExperimentEngine) -> None:
        if args.reps < 1:
            parser.error(f"--reps must be at least 1, got {args.reps}")
        if args.smoke:
            _smoke(engine, args.run_timeout)
        elif args.fault_plan is not None:
            try:
                plan = FaultPlan.from_json(args.fault_plan.read_text())
            except OSError as exc:
                parser.error(f"cannot read {args.fault_plan}: {exc}")
            points = run_grid(
                fault_plan_spec(plan, reps=args.reps,
                                label=args.fault_plan.stem, seed0=args.seed),
                engine=engine,
            )
            _print_points(f"Fault plan {args.fault_plan.name}", points,
                          FAULT_SCHEMES, args.export)
            print(f"sweep_digest: {sweep_digest(points)}")
        else:
            bh = run_grid(
                blackhole_rate_sweep_spec(reps=args.reps, seed0=args.seed),
                engine=engine,
            )
            _print_points("Blackhole rate sweep", bh, FAULT_SCHEMES, args.export)
            cr = run_grid(
                proxy_crash_sweep_spec(reps=args.reps, seed0=args.seed),
                engine=engine,
            )
            _print_points("Proxy crash sweep", cr, FAULT_SCHEMES, args.export)
            print(f"sweep_digest: {sweep_digest(bh + cr)}")

    run_driver(parser, argv, body)
