"""Recovery-time sweep: what a failure actually costs each scheme.

``python -m repro faults`` asks how badly faults hurt; this sweep asks how
fast the *reactive* machinery repairs them.  Every run executes with the
control plane enabled (:class:`~repro.control.ControlConfig` on the
scenario), so three recovery mechanisms are on the clock at once:

* the :class:`~repro.control.Controller` recomputing routes after a
  ``LinkDown`` (reroute convergence time);
* the proxy pool manager detecting a crashed proxy and migrating flows
  (detection time), then failing back after the restart;
* the transports recovering the packets lost in between (post-failure
  ICT inflation vs the same scheme's no-fault control row).

The grid is a cases × schemes × reps :class:`~repro.experiments.grid.GridSpec`
(:func:`recovery_spec`), run by :func:`~repro.experiments.grid.run_grid`
into the streaming :class:`RecoveryFold`:

* a **control** case (no faults) — the inflation denominator, and the CI
  guard that an idle control plane never reroutes;
* **link** cases — one backbone router's links go down mid-incast and
  *stay* down, so completion requires the controller to steer the
  survivors around the hole;
* **crash** cases — the primary proxy crashes and restarts, so the pool
  manager must detect, migrate, and fail back.

Timings are tighter than the stock :data:`FailoverConfig` defaults
(:data:`RECOVERY_FAILOVER`) so detection, migration, *and* fail-back all
land inside one small incast; the restart comes after the detection
timeout, otherwise the crash heals before anyone notices.

Like every sweep, the fold is input-order deterministic: the printed
``sweep_digest`` is bit-identical for any worker count or cache state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.control import ControlConfig
from repro.control.pool import FailoverConfig
from repro.errors import ExperimentError
from repro.experiments.faultsweep import fault_base_scenario
from repro.experiments.grid import (
    GridFold,
    GridSpec,
    RunSample,
    axis,
    run_grid,
    scenario_to_doc,
    sweep_spec,
)
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastScenario
from repro.faults.plan import FaultPlan, LinkDown, proxy_crash_plan
from repro.schemes import SCHEME_REGISTRY
from repro.units import microseconds, to_microseconds

#: Link-failure onsets: inside the first burst, and after a long-haul RTT.
DEFAULT_LINK_TIMES_PS = (microseconds(5), microseconds(20))

#: Proxy-crash onsets.
DEFAULT_CRASH_TIMES_PS = (microseconds(10),)

#: Primary restart lag for the crash cases.  Must exceed the detection
#: timeout: an earlier restart heals before the heartbeat trips and the
#: case degenerates into the control row.
DEFAULT_RESTART_AFTER_PS = microseconds(300)

#: Tight heartbeat/fail-back timings so one small incast exercises the
#: full detect -> migrate -> restart -> fail-back cycle.
RECOVERY_FAILOVER = FailoverConfig(
    probe_interval_ps=microseconds(50),
    detection_timeout_ps=microseconds(100),
    failback_stabilization_ps=microseconds(100),
)


def recovery_base_scenario(**overrides) -> IncastScenario:
    """The shared scenario under the recovery sweep (small and fast)."""
    return replace(fault_base_scenario(), failover=RECOVERY_FAILOVER, **overrides)


@dataclass(frozen=True)
class RecoveryCase:
    """One fault timeline the sweep runs every scheme through."""

    kind: str  # "control" | "link" | "crash"
    label: str
    fault_at_ps: int
    plan: FaultPlan


def build_cases(
    link_times_ps: Sequence[int] = DEFAULT_LINK_TIMES_PS,
    crash_times_ps: Sequence[int] = DEFAULT_CRASH_TIMES_PS,
    restart_after_ps: int = DEFAULT_RESTART_AFTER_PS,
    link_target: str = "backbone:0",
) -> list[RecoveryCase]:
    """The control row, the permanent link failures, the crash+restart."""
    cases = [RecoveryCase("control", "no-fault", 0, FaultPlan())]
    for t in link_times_ps:
        cases.append(RecoveryCase(
            "link", f"linkdown@{to_microseconds(t):g}us", t,
            FaultPlan((LinkDown(t, link=link_target),)),
        ))
    for t in crash_times_ps:
        cases.append(RecoveryCase(
            "crash", f"crash@{to_microseconds(t):g}us+restart", t,
            proxy_crash_plan(at_ps=t, restart_after_ps=restart_after_ps),
        ))
    return cases


@dataclass
class RecoveryRow:
    """One (case, scheme) cell: means over the successful repetitions."""

    kind: str
    label: str
    scheme: str
    fault_at_ps: int
    #: mean ICT (horizon when every repetition was quarantined).
    ict_ps: float
    #: ICT relative to this scheme's control row (None on the control row).
    inflation: float | None
    #: mean (detected_at - fault_at); None when nothing was detected.
    detect_lag_ps: float | None
    #: mean (first reinstall - fault_at); None when nothing reconverged.
    converge_lag_ps: float | None
    reroutes: float
    failovers: float
    failbacks: float
    degrades: float
    completed: bool
    failures: int


def recovery_spec(
    base: IncastScenario,
    cases: Sequence[RecoveryCase],
    schemes: Sequence[str],
    reps: int = 3,
    seed0: int = 0,
) -> GridSpec:
    """The recovery grid declared: cases × schemes × reps over ``base``.

    Each case-axis value is a JSON document carrying the case metadata
    (kind, label, fault onset) next to the canonical fault-plan document;
    only the plan touches the scenario (the ``recovery_case`` applier),
    the rest rides along for the fold.
    """
    point = axis(
        "case", "recovery_case",
        [
            {
                "kind": c.kind,
                "label": c.label,
                "fault_at_ps": c.fault_at_ps,
                "faults": scenario_to_doc(c.plan),
            }
            for c in cases
        ],
        labels=[c.label for c in cases],
    )
    return sweep_spec(base, point, schemes, reps, seed0)


def _fold_samples(
    case: dict, scheme: str, samples: Sequence[RunSample], horizon_ps: int
) -> RecoveryRow:
    ok = [s for s in samples if s.ok]
    failures = len(samples) - len(ok)

    def mean(values) -> float | None:
        collected = list(values)
        return sum(collected) / len(collected) if collected else None

    fault_at_ps = int(case["fault_at_ps"])
    ict = mean(s.ict_ps for s in ok)
    detect = mean(
        s.detected_at_ps - fault_at_ps
        for s in ok if s.detected_at_ps is not None
    )
    converge = mean(
        s.converged_at_ps - fault_at_ps
        for s in ok if s.converged_at_ps is not None
    )
    return RecoveryRow(
        kind=case["kind"],
        label=case["label"],
        scheme=scheme,
        fault_at_ps=fault_at_ps,
        ict_ps=ict if ict is not None else float(horizon_ps),
        inflation=None,
        detect_lag_ps=detect,
        converge_lag_ps=converge,
        reroutes=mean(s.reroutes for s in ok) or 0.0,
        failovers=mean(s.failovers for s in ok) or 0.0,
        failbacks=mean(s.failbacks for s in ok) or 0.0,
        degrades=mean(s.degrades for s in ok) or 0.0,
        completed=failures == 0 and bool(ok) and all(s.completed for s in ok),
        failures=failures,
    )


class RecoveryFold(GridFold):
    """Streaming fold producing the per-(case, scheme) recovery rows.

    Groups close in any order; :meth:`finish` walks the grid case-major so
    each scheme's control row (the first case) resolves the inflation
    denominator for its fault rows, exactly as the cursor fold did.
    """

    def _finalize_group(self, point_i: int, scheme_i: int,
                        samples: list[RunSample]) -> RecoveryRow:
        return _fold_samples(
            self.points[point_i].value,
            self.schemes[scheme_i],
            samples,
            self.spec.base.horizon_ps,
        )

    def finish(self) -> list[RecoveryRow]:
        rows: list[RecoveryRow] = []
        control_ict: dict[str, float] = {}
        for point_i in range(len(self.points)):
            for scheme_i, scheme in enumerate(self.schemes):
                row = self._group(point_i, scheme_i)
                if row.kind == "control":
                    control_ict[scheme] = row.ict_ps
                else:
                    denominator = control_ict.get(scheme)
                    if denominator:
                        row.inflation = row.ict_ps / denominator
                rows.append(row)
        return rows


def recovery_sweep(
    base: IncastScenario | None = None,
    *,
    cases: Sequence[RecoveryCase] | None = None,
    schemes: Sequence[str] | None = None,
    reps: int = 3,
    engine: ExperimentEngine | None = None,
    seed0: int = 0,
    control: ControlConfig | None = None,
) -> list[RecoveryRow]:
    """Run the recovery grid and fold it into per-(case, scheme) rows.

    ``schemes`` defaults to every *currently registered* scheme — install
    :mod:`repro.competitors` first to cover the plug-ins too.  ``control``
    defaults to the hop-count model with the stock control-loop delay.
    """
    if reps < 1:
        raise ExperimentError("reps must be at least 1")
    base = base if base is not None else recovery_base_scenario()
    cases = list(cases) if cases is not None else build_cases()
    schemes = tuple(schemes) if schemes is not None else SCHEME_REGISTRY.names()
    base = replace(base, control=control if control is not None else ControlConfig())
    spec = recovery_spec(base, cases, schemes, reps, seed0)
    return run_grid(spec, RecoveryFold(spec), engine=engine)


def recovery_digest(rows: Sequence[RecoveryRow]) -> str:
    """Stable SHA-256 over every folded field (worker-invariance check)."""
    parts = []
    for r in rows:
        parts.append(
            f"{r.kind}|{r.label}|{r.scheme}|{r.fault_at_ps}|{r.ict_ps!r}"
            f"|{r.inflation!r}|{r.detect_lag_ps!r}|{r.converge_lag_ps!r}"
            f"|{r.reroutes!r}|{r.failovers!r}|{r.failbacks!r}|{r.degrades!r}"
            f"|{r.completed}|{r.failures}"
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def check_recovery(rows: Sequence[RecoveryRow]) -> list[str]:
    """The sweep's acceptance invariants; empty list means all hold.

    * control rows complete with **zero** reroutes (an idle control plane
      must not churn tables);
    * every scheme survives every link case: the run completes (finite
      post-recovery ICT) and the controller reconverged at least once;
    * the ``proxy-failover`` crash cases complete with at least one
      migration *and* one fail-back counted.
    """
    problems = []
    for r in rows:
        where = f"{r.label}/{r.scheme}"
        if r.kind == "control":
            if not r.completed:
                problems.append(f"{where}: control run did not complete")
            if r.reroutes:
                problems.append(f"{where}: {r.reroutes:g} reroutes with no fault")
        elif r.kind == "link":
            if not r.completed:
                problems.append(f"{where}: did not recover from the link failure")
            if r.reroutes < 1:
                problems.append(f"{where}: controller never rerouted")
            if r.converge_lag_ps is None:
                problems.append(f"{where}: no convergence time recorded")
        elif r.kind == "crash" and r.scheme == "proxy-failover":
            if not r.completed:
                problems.append(f"{where}: crash+restart run did not complete")
            if r.failovers < 1:
                problems.append(f"{where}: no migration counted")
            if r.failbacks < 1:
                problems.append(f"{where}: no fail-back counted")
            if r.detect_lag_ps is None:
                problems.append(f"{where}: no detection time recorded")
    return problems


# ---------------------------------------------------------------------------
# Presentation & export
# ---------------------------------------------------------------------------

_HEADERS = (
    "case", "scheme", "ict", "x ctrl", "detect", "converge",
    "reroutes", "failover", "failback", "degrade", "ok",
)


def _format_row(r: RecoveryRow) -> list[str]:
    def us(value: float | None) -> str:
        return "-" if value is None else f"{value / 1e6:.1f}us"

    return [
        r.label,
        r.scheme,
        f"{r.ict_ps / 1e9:.3f}ms",
        "-" if r.inflation is None else f"{r.inflation:.2f}x",
        us(r.detect_lag_ps),
        us(r.converge_lag_ps),
        f"{r.reroutes:g}",
        f"{r.failovers:g}",
        f"{r.failbacks:g}",
        f"{r.degrades:g}",
        ("yes" if r.completed else "NO") + (f" ({r.failures}q)" if r.failures else ""),
    ]


def recovery_table(rows: Sequence[RecoveryRow]) -> str:
    """Render the sweep as the aligned text table the CLI prints."""
    from repro.experiments.report import render_table

    return render_table(_HEADERS, [_format_row(r) for r in rows])


def export_recovery(rows: Sequence[RecoveryRow], directory: Path) -> list[Path]:
    """Write ``recovery.csv`` and ``recovery.json`` under ``directory``."""
    from repro.experiments.report import export_rows

    fields = (
        "kind", "label", "scheme", "fault_at_ps", "ict_ps", "inflation",
        "detect_lag_ps", "converge_lag_ps", "reroutes", "failovers",
        "failbacks", "degrades", "completed", "failures",
    )
    return export_rows(
        rows, directory, "recovery",
        fields=fields, digest=recovery_digest(rows), schema=1,
    )


# ---------------------------------------------------------------------------
# CLI: python -m repro recovery
# ---------------------------------------------------------------------------

def _smoke(engine: ExperimentEngine, control: ControlConfig) -> None:
    """CI smoke: tiny grid over all registered schemes, digest printed,
    acceptance invariants enforced (exit 1 on violation)."""
    rows = recovery_sweep(
        cases=build_cases(link_times_ps=(microseconds(10),)),
        reps=2,
        engine=engine,
        control=control,
    )
    print(recovery_table(rows))
    print(f"sweep_digest: {recovery_digest(rows)}")
    problems = check_recovery(rows)
    if problems:
        for problem in problems:
            print(f"SMOKE FAILED: {problem}")
        raise SystemExit(1)
    distinct_schemes = len({r.scheme for r in rows})
    print(f"recovery: ok ({len(rows)} rows, {distinct_schemes} schemes)")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the recovery sweep (``python -m repro recovery``)."""
    from repro import competitors
    from repro.__main__ import driver_parser, run_driver
    from repro.control.weights import WEIGHT_MODELS

    parser = driver_parser(
        "python -m repro recovery",
        "recovery-time sweep: detection, reroute convergence, "
        "and post-failure ICT inflation per scheme",
    )
    parser.add_argument(
        "--reps", type=int, default=3, help="repetitions per grid cell")
    parser.add_argument(
        "--weight", choices=tuple(WEIGHT_MODELS), default="hop",
        help="controller weight model for recomputed routes (default hop)",
    )
    parser.add_argument(
        "--control-delay", type=float, default=50.0, metavar="US",
        help="control-loop delay in microseconds between a topology event "
             "and the reinstall (default 50)",
    )
    parser.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write recovery.csv and recovery.json into DIR",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny deterministic grid + acceptance invariants (CI)",
    )

    def body(args, engine: ExperimentEngine) -> None:
        if args.reps < 1:
            parser.error(f"--reps must be at least 1, got {args.reps}")
        if args.control_delay < 0:
            parser.error(f"--control-delay must be >= 0, got {args.control_delay}")
        # The sweep covers every registered scheme, plug-ins included.
        with competitors.installed():
            control = ControlConfig(
                weight_model=args.weight,
                control_delay_ps=max(0, int(round(args.control_delay * 1_000_000))),
            )
            if args.smoke:
                _smoke(engine, control)
                return
            rows = recovery_sweep(reps=args.reps, engine=engine, seed0=args.seed,
                                  control=control)
            print("\n=== Recovery sweep ===")
            print(recovery_table(rows))
            print(f"sweep_digest: {recovery_digest(rows)}")
            if args.export is not None:
                for path in export_recovery(rows, args.export):
                    print(f"exported {path}")

    run_driver(parser, argv, body)
