"""The paper's parameter sweeps (§4.2).

Each sweep point runs every scheme ``reps`` times with distinct seeds and
summarizes incast completion time as average / minimum / maximum — exactly
what Figures 2 and 3 plot — plus the reduction relative to the baseline.

Every sweep is declared as a :class:`~repro.experiments.grid.GridSpec` —
a (point × scheme × rep) product of axes over a base scenario — and run
by :func:`~repro.experiments.grid.run_grid`, which streams the cells
through an :class:`~repro.experiments.parallel.ExperimentEngine` into the
order-independent :class:`~repro.experiments.grid.SweepFold`.  A sweep's
summaries are therefore bit-identical for any worker count, cache state,
or journaled resume.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ExperimentError
from repro.experiments.grid import GridSpec, RunSample, axis, sweep_spec
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastResult, IncastScenario
from repro.metrics.summary import SummaryStat, empty_summary, summarize


@dataclass
class SchemeSummary:
    """One scheme's ICT summary at one sweep point.

    ``failures`` counts repetitions the engine quarantined (exception,
    deadline overrun, worker crash); the remaining stats summarize only
    the successful repetitions, and ``ict`` is the all-NaN
    :func:`~repro.metrics.summary.empty_summary` when none succeeded.
    """

    scheme: str
    ict: SummaryStat
    reduction_vs_baseline: float | None
    retransmissions: float
    timeouts: float
    trims: float
    drops: float
    all_completed: bool
    failures: int = 0

    @property
    def ict_ms(self) -> float:
        """Mean ICT in milliseconds."""
        return self.ict.mean / 1e9


@dataclass
class SweepPoint:
    """All schemes' summaries at one x-axis value."""

    x: float
    label: str
    schemes: dict[str, SchemeSummary]

    def reduction(self, scheme: str) -> float | None:
        """Fractional ICT reduction of ``scheme`` vs the baseline here."""
        return self.schemes[scheme].reduction_vs_baseline


def summarize_samples(
    scheme: str, samples: Sequence[RunSample]
) -> SchemeSummary:
    """Fold one scheme's repetitions into the stats the figures plot.

    Operates on the reduced per-run :class:`RunSample` scalars so a
    streaming aggregator (the distributed coordinator) can discard full
    results immediately; quarantined repetitions (``ok=False``) are
    counted, excluded from the averages, and force ``all_completed``
    False.
    """
    ok = [s for s in samples if s.ok]
    failures = len(samples) - len(ok)
    if not ok:
        return SchemeSummary(
            scheme=scheme,
            ict=empty_summary(),
            reduction_vs_baseline=None,
            retransmissions=0.0,
            timeouts=0.0,
            trims=0.0,
            drops=0.0,
            all_completed=False,
            failures=failures,
        )
    reps = len(ok)
    return SchemeSummary(
        scheme=scheme,
        ict=summarize([s.ict_ps for s in ok]),
        reduction_vs_baseline=None,
        retransmissions=sum(s.retransmissions for s in ok) / reps,
        timeouts=sum(s.timeouts for s in ok) / reps,
        trims=sum(s.trims for s in ok) / reps,
        drops=sum(s.drops for s in ok) / reps,
        all_completed=failures == 0 and all(s.completed for s in ok),
        failures=failures,
    )


def run_scheme_summary(
    scenario: IncastScenario,
    reps: int,
    seed0: int = 0,
    *,
    engine: ExperimentEngine | None = None,
) -> tuple[SchemeSummary, list[IncastResult]]:
    """Run ``scenario`` ``reps`` times (seeds ``seed0..``) and summarize."""
    if reps < 1:
        raise ExperimentError("reps must be at least 1")
    engine = engine if engine is not None else ExperimentEngine()
    results = engine.run_incasts(
        [replace(scenario, seed=seed0 + r) for r in range(reps)]
    )
    summary = summarize_samples(
        scenario.scheme, [RunSample.from_result(result) for result in results]
    )
    return summary, results


def sweep_digest(points: Sequence[SweepPoint]) -> str:
    """Stable SHA-256 digest of a sweep's summaries.

    Covers every field that feeds the figures (x, label, per-scheme ICT
    stats, counters, reductions) — used by the determinism tests, the
    scaling benchmark, and the CI smoke job to assert that two runs
    produced bit-identical summaries.
    """
    parts: list[str] = []
    for point in points:
        parts.append(f"{point.x!r}|{point.label}")
        for scheme, s in point.schemes.items():
            parts.append(
                f"{scheme}|{s.ict.mean!r}|{s.ict.minimum!r}|{s.ict.maximum!r}"
                f"|{s.ict.stdev!r}|{s.ict.count}|{s.reduction_vs_baseline!r}"
                f"|{s.retransmissions!r}|{s.timeouts!r}|{s.trims!r}"
                f"|{s.drops!r}|{s.all_completed}|{s.failures}"
            )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The stock sweeps, declared as grids
# ---------------------------------------------------------------------------

def degree_sweep_spec(
    base: IncastScenario,
    degrees: Sequence[int],
    schemes: Sequence[str] = ("baseline", "naive", "streamlined"),
    reps: int = 5,
    seed0: int = 0,
) -> GridSpec:
    """Figure 2 (Left) as a grid: fixed total size, varying incast degree."""
    point = axis(
        "point", "degree", [int(d) for d in degrees],
        labels=[f"degree={d}" for d in degrees],
        xs=[float(d) for d in degrees],
    )
    return sweep_spec(base, point, schemes, reps, seed0)


def size_sweep_spec(
    base: IncastScenario,
    sizes_bytes: Sequence[int],
    schemes: Sequence[str] = ("baseline", "naive", "streamlined"),
    reps: int = 5,
    seed0: int = 0,
) -> GridSpec:
    """Figure 2 (Right) as a grid: fixed degree, varying total incast size."""
    point = axis(
        "point", "total_bytes", [int(s) for s in sizes_bytes],
        labels=[f"size={s / 1e6:g}MB" for s in sizes_bytes],
        xs=[float(s) for s in sizes_bytes],
    )
    return sweep_spec(base, point, schemes, reps, seed0)


def latency_sweep_spec(
    base: IncastScenario,
    backbone_delays_ps: Sequence[int],
    schemes: Sequence[str] = ("baseline", "naive", "streamlined"),
    reps: int = 5,
    seed0: int = 0,
) -> GridSpec:
    """Figure 3 as a grid: fixed degree and size, varying long-haul latency."""
    point = axis(
        "point", "backbone_delay_ps", [int(d) for d in backbone_delays_ps],
        labels=[f"link={d / 1e6:g}us" for d in backbone_delays_ps],
        xs=[float(d) for d in backbone_delays_ps],
    )
    return sweep_spec(base, point, schemes, reps, seed0)
