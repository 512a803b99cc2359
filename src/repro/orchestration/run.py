"""Run many concurrent incasts under a proxy-selection strategy.

This is the experimental harness for Future Work #3: several incast jobs
(from any :mod:`repro.workloads` generator) run simultaneously in the
two-DC topology, each routed through a proxy chosen by the configured
strategy.  Strategies:

* ``"none"``          — no proxies (baseline forwarding);
* ``"shared"``        — every incast through one fixed proxy (contention);
* ``"central"``       — global least-loaded orchestrator;
* ``"round-robin"``   — central orchestrator, load-blind rotation;
* ``"queue-depth"``   — central orchestrator placing each incast on the
  proxy host with the shallowest queues at selection time (the live
  telemetry signal the control plane's proxy pool also uses);
* ``"decentralized"`` — per-incast random probing with retries.

The runner is a thin front end: the job list is one arrival source of
the open-loop :class:`~repro.workloads.engine.OpenLoopEngine`, which owns
the one launch path (fabric, proxy pool, selector, gate, teardown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import InterDcConfig, TransportConfig, paper_interdc_config
from repro.errors import OrchestrationError
from repro.metrics.collector import NetworkCounters
from repro.orchestration.admission import AdmissionDecision, ProxyAdmissionPolicy
from repro.orchestration.central import CentralOrchestrator
from repro.orchestration.decentralized import DecentralizedSelector
from repro.orchestration.policies import least_loaded, make_queue_depth, make_round_robin
from repro.orchestration.state import ProxyRegistry
from repro.sim.rng import SimRandom
from repro.units import seconds
from repro.workloads.incast import IncastJob

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Host

STRATEGIES = ("none", "shared", "central", "round-robin", "queue-depth",
              "decentralized")


def make_selector(
    strategy: str, hosts: list["Host"], net: "Network", rng: SimRandom
) -> CentralOrchestrator | DecentralizedSelector | None:
    """The selector ``strategy`` runs over a registry of ``hosts``.

    ``"shared"`` registers only the first host; ``"none"`` has no selector.
    ``rng`` drives the decentralized strategy's probing.
    """
    if strategy == "none":
        return None
    if strategy == "shared":
        hosts = hosts[:1]
    registry = ProxyRegistry()
    for host in hosts:
        registry.register(host.id)
    if strategy == "decentralized":
        return DecentralizedSelector(registry, rng)
    if strategy == "round-robin":
        return CentralOrchestrator(registry, make_round_robin())
    if strategy == "queue-depth":
        hosts_by_id = {h.id: h for h in hosts}
        return CentralOrchestrator(registry, make_queue_depth(hosts_by_id, net))
    return CentralOrchestrator(registry, least_loaded)  # central, shared


@dataclass
class MultiIncastResult:
    """Outcome of one concurrent-incast run."""

    strategy: str
    scheme: str
    ict_ps: dict[str, int]
    completed: bool
    makespan_ps: int
    probes: int
    fallbacks: int
    proxy_assignments: dict[str, int]
    counters: NetworkCounters
    per_proxy_peak_load: dict[int, int] = field(default_factory=dict)
    admission_decisions: dict[str, AdmissionDecision] = field(default_factory=dict)

    @property
    def mean_ict_ps(self) -> float:
        """Mean ICT across completed jobs."""
        return sum(self.ict_ps.values()) / len(self.ict_ps) if self.ict_ps else 0.0


def run_concurrent_incasts(
    jobs: list[IncastJob],
    scheme: str = "streamlined",
    strategy: str = "central",
    interdc: InterDcConfig | None = None,
    transport: TransportConfig | None = None,
    seed: int = 0,
    horizon_ps: int = seconds(300),
    admission: ProxyAdmissionPolicy | None = None,
) -> MultiIncastResult:
    """Execute ``jobs`` concurrently and measure per-incast completion.

    With ``admission`` set, each incast is first tested against the
    crossover policy (FW#3): incasts it rejects run direct, without a
    proxy, and the decision is recorded in the result.
    """
    from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig

    if strategy not in STRATEGIES:
        raise OrchestrationError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    if not jobs:
        raise OrchestrationError("need at least one incast job")
    engine = OpenLoopEngine(WorkloadEngineConfig(
        scheme=scheme, strategy=strategy, transport=transport, seed=seed,
        interdc=interdc if interdc is not None else paper_interdc_config(),
        horizon_ps=horizon_ps, segment_ps=horizon_ps,
        admission=admission, jobs=tuple(jobs),
    ))
    engine.run()
    return engine.multi_incast_result()
