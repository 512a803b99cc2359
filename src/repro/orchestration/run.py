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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.config import InterDcConfig, TransportConfig, paper_interdc_config
from repro.errors import OrchestrationError
from repro.metrics.collector import NetworkCounters, collect_network_counters
from repro.orchestration.admission import AdmissionDecision, ProxyAdmissionPolicy
from repro.orchestration.central import CentralOrchestrator
from repro.orchestration.decentralized import DecentralizedSelector
from repro.orchestration.policies import least_loaded, make_queue_depth, make_round_robin
from repro.orchestration.state import ProxyRegistry
from repro.schemes import SCHEME_REGISTRY
from repro.sim.rng import SimRandom, derive_stream
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import seconds
from repro.workloads.incast import IncastJob

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Host

STRATEGIES = ("none", "shared", "central", "round-robin", "queue-depth",
              "decentralized")


def make_selector(
    strategy: str, hosts: list["Host"], net: "Network", rng: SimRandom
) -> tuple[ProxyRegistry, CentralOrchestrator | DecentralizedSelector | None]:
    """The proxy registry over ``hosts`` and the selector ``strategy`` runs.

    ``"shared"`` registers only the first host; ``"none"`` has no selector.
    ``rng`` drives the decentralized strategy's probing.
    """
    if strategy == "shared":
        hosts = hosts[:1]
    registry = ProxyRegistry()
    for host in hosts:
        registry.register(host.id)
    selector: CentralOrchestrator | DecentralizedSelector | None
    if strategy == "none":
        selector = None
    elif strategy == "decentralized":
        selector = DecentralizedSelector(registry, rng)
    elif strategy == "round-robin":
        selector = CentralOrchestrator(registry, make_round_robin())
    elif strategy == "queue-depth":
        hosts_by_id = {h.id: h for h in hosts}
        selector = CentralOrchestrator(registry, make_queue_depth(hosts_by_id, net))
    else:  # central, shared
        selector = CentralOrchestrator(registry, least_loaded)
    return registry, selector


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
    proxy_gate: "Callable[[IncastJob], bool] | None" = None,
    reverse: bool = False,
) -> MultiIncastResult:
    """Execute ``jobs`` concurrently and measure per-incast completion.

    With ``admission`` set, each incast is first tested against the
    crossover policy (FW#3): incasts it rejects run direct, without a
    proxy, and the decision is recorded in the result.  ``proxy_gate``
    is the fully general form — an arbitrary per-job predicate evaluated
    at launch time (the pattern-aware controller uses this); it overrides
    ``admission``.  ``reverse=True`` swaps the datacenters' roles: senders
    live in DC1 and receivers (and proxies) accordingly — e.g. the MoE
    *combine* phase, where experts fan back into each worker.
    """
    if strategy not in STRATEGIES:
        raise OrchestrationError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
    spec = SCHEME_REGISTRY.get(scheme)  # validates; lists registered names
    if spec.make_proxy is None:
        strategy = "none"
    if not jobs:
        raise OrchestrationError("need at least one incast job")

    interdc = interdc if interdc is not None else paper_interdc_config()
    transport = transport if transport is not None else TransportConfig()
    sim = Simulator(seed=seed)
    # A "none" strategy runs every job direct, so trimming would only hurt.
    trimming = spec.trimming and strategy != "none"
    topo = build_interdc(sim, interdc.with_trimming(trimming))
    net = topo.net
    dc0, dc1 = topo.fabrics
    if reverse:
        dc0, dc1 = dc1, dc0  # dc0 = sending side throughout

    sender_ids = {i for job in jobs for i in job.sender_indices}
    for job in jobs:
        if max(job.sender_indices) >= len(dc0.hosts):
            raise OrchestrationError(
                f"job {job.name!r} needs sender index {max(job.sender_indices)} but "
                f"DC0 only has {len(dc0.hosts)} servers"
            )
        if job.receiver_index >= len(dc1.hosts):
            raise OrchestrationError(
                f"job {job.name!r} needs receiver index {job.receiver_index} but "
                f"DC1 only has {len(dc1.hosts)} servers"
            )

    candidates = [h for i, h in enumerate(dc0.hosts) if i not in sender_ids]
    if strategy != "none" and not candidates:
        raise OrchestrationError("no free servers left to act as proxies")
    hosts_by_id = {h.id: h for h in candidates}
    registry, selector = make_selector(
        strategy, candidates, net, derive_stream(seed, "orchestration:select")
    )

    proxies_on_host: dict[int, Any] = {}

    def proxy_app(host_id: int) -> Any:
        app = proxies_on_host.get(host_id)
        if app is None:
            assert spec.make_proxy is not None  # direct schemes never get here
            app = spec.make_proxy(
                sim, net, hosts_by_id[host_id],
                transport=transport,
                detector=None,
            )
            proxies_on_host[host_id] = app
        return app

    ict: dict[str, int] = {}
    assignments: dict[str, int] = {}
    peak_load: dict[int, int] = {}
    decisions: dict[str, AdmissionDecision] = {}
    outstanding = [len(jobs)]

    def admit(job: IncastJob) -> bool:
        if selector is None:
            return False
        if proxy_gate is not None:
            return proxy_gate(job)
        if admission is None:
            return True
        src_host = dc0.hosts[job.sender_indices[0]]
        dst_host = dc1.hosts[job.receiver_index]
        decision = admission.decide(
            job,
            bottleneck_bps=dst_host.nic_rate_bps,
            interdc_rtt_ps=net.path_rtt_ps(src_host.id, dst_host.id),
            intra_rtt_ps=net.path_rtt_ps(src_host.id, candidates[0].id),
            bottleneck_buffer_bytes=interdc.fabric.switch_queue.capacity_bytes,
        )
        decisions[job.name] = decision
        return decision.use_proxy

    def launch(job: IncastJob) -> None:
        remaining = [job.degree]

        def job_done(host_id: int | None) -> None:
            ict[job.name] = sim.now - job.start_ps
            if selector is not None and host_id is not None:
                selector.release(job, host_id)
            outstanding[0] -= 1
            if outstanding[0] == 0:
                sim.stop()

        if not admit(job):
            host_id = None
            delay = 0
        else:
            host_id, delay = selector.select(job)
            assignments[job.name] = host_id
            load = registry.load(host_id)
            peak_load[host_id] = max(peak_load.get(host_id, 0), load)

        def start_flows() -> None:
            def flow_done(_receiver) -> None:
                remaining[0] -= 1
                if remaining[0] == 0:
                    job_done(host_id)

            open_flow = Connection if host_id is None else proxy_app(host_id).open
            dst = dc1.hosts[job.receiver_index]
            for sender_index, nbytes in zip(job.sender_indices, job.flow_bytes):
                open_flow(
                    net, dc0.hosts[sender_index], dst, nbytes, transport,
                    on_receiver_complete=flow_done,
                    label=f"{job.name}:{sender_index}",
                ).start()

        sim.schedule(delay, start_flows)

    for job in jobs:
        sim.schedule_at(job.start_ps, lambda job=job: launch(job))

    sim.run(until=horizon_ps)
    completed = outstanding[0] == 0
    makespan = max(
        (job.start_ps + ict[job.name] for job in jobs if job.name in ict),
        default=horizon_ps,
    )
    probes = getattr(selector, "probes", getattr(selector, "selections", 0))
    fallbacks = getattr(selector, "fallbacks", 0)
    return MultiIncastResult(
        strategy=strategy,
        scheme=scheme if strategy != "none" else "baseline",
        ict_ps=ict,
        completed=completed,
        makespan_ps=makespan,
        probes=probes,
        fallbacks=fallbacks,
        proxy_assignments=assignments,
        counters=collect_network_counters(net),
        per_proxy_peak_load=peak_load,
        admission_decisions=decisions,
    )
