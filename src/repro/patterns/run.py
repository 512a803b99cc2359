"""End-to-end pattern-aware rerouting (paper §6, second research direction).

Runs a periodic incast train through the two-DC fabric with the
:class:`~repro.patterns.controller.PatternAwareController` in the loop:
each burst is proxied only if the controller had *predicted* it from the
bursts observed so far.  Early bursts therefore run direct (the learning
cost the paper worries about — "detection lag" made concrete); once the
period is learned, every later burst gets the proxy from its first packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import InterDcConfig, TransportConfig
from repro.errors import OrchestrationError
from repro.orchestration.run import MultiIncastResult
from repro.patterns.controller import PatternAwareController
from repro.units import seconds
from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig
from repro.workloads.incast import IncastJob


@dataclass
class PatternAwareResult:
    """The multi-incast result plus the controller's learning trace."""

    runs: MultiIncastResult
    proxied_jobs: list[str] = field(default_factory=list)
    direct_jobs: list[str] = field(default_factory=list)
    learned_period_ps: int | None = None

    @property
    def learning_bursts(self) -> int:
        """Bursts that ran direct before the rhythm was learned."""
        return len(self.direct_jobs)

    def mean_ict_ps(self, names: list[str]) -> float:
        """Mean ICT over a subset of jobs."""
        values = [self.runs.ict_ps[name] for name in names if name in self.runs.ict_ps]
        return sum(values) / len(values) if values else 0.0


def run_pattern_aware(
    jobs: list[IncastJob],
    interdc: InterDcConfig,
    transport: TransportConfig | None = None,
    controller: PatternAwareController | None = None,
    scheme: str = "streamlined",
    seed: int = 0,
    horizon_ps: int = seconds(300),
) -> PatternAwareResult:
    """Execute ``jobs`` with the controller deciding proxy use per burst."""
    if not jobs:
        raise OrchestrationError("need at least one incast job")
    controller = controller if controller is not None else PatternAwareController()
    engine = OpenLoopEngine(WorkloadEngineConfig(
        scheme=scheme, interdc=interdc, transport=transport, seed=seed,
        horizon_ps=horizon_ps, segment_ps=horizon_ps,
        pattern_predictor=True, jobs=tuple(jobs),
    ))
    engine.controller = controller
    engine.run()
    runs = engine.multi_incast_result()
    return PatternAwareResult(
        runs=runs,
        proxied_jobs=[job.name for job in jobs if job.name in runs.proxy_assignments],
        direct_jobs=[job.name for job in jobs if job.name not in runs.proxy_assignments],
        learned_period_ps=controller.predicted_period_ps(jobs[0].receiver_index),
    )
