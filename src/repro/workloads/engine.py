"""The open-loop production-traffic engine (ROADMAP item 5).

Single-shot scenarios are closed-loop: every sender is armed up front,
the run ends when the last byte lands.  Production inter-datacenter
fan-in is nothing like that — tenants *arrive*, by a stochastic process,
draw heavy-tailed volumes, pick a motivating-app shape (MoE dispatch, EC
reconstruction, quorum write), and interleave on one fabric under a
diurnal load curve for minutes of simulated time.  Proxy placement and
the pattern predictor only earn their keep here, where load is sustained
and the proxy pool is contended.

Mechanics:

* **Arrivals** — an inhomogeneous Poisson process via thinning: gaps are
  drawn at the configured peak rate and accepted with probability
  ``diurnal.multiplier(now)``, all on named RNG substreams so the stream
  is reproducible and checkpoint-stable.  A fixed ``jobs`` list replaces
  it and the run stops at the list's last completion (what
  :func:`~repro.orchestration.run.run_concurrent_incasts` runs).
* **Proxies** — the pool is the sending hosts no job can name; the gate
  is the predictor, else the ``admission`` policy, else always proxy.
* **Tenants** — each arrival draws a bounded-Pareto volume
  (:class:`~repro.workloads.sizes.HeavyTailConfig`) and a mix entry from
  the :data:`~repro.workloads.registry.WORKLOAD_REGISTRY`; the spec's
  ``tenant`` builder shapes the volume into incast jobs, folded onto the
  fabric's host pools.
* **Metrics** — everything folds into :class:`WorkloadFold`'s streaming
  sinks (sketch mode by default), so memory stays flat regardless of the
  horizon; the fold's :meth:`~WorkloadFold.digest` is the run's identity.
* **Durability** — the engine advances in fixed segments and is itself
  the checkpoint payload: between segments the simulator is quiescent,
  so :func:`~repro.sim.checkpoint.save_checkpoint` captures scheduler,
  pool, flows, RNG substreams, and fold state, and a SIGKILLed run
  resumed from its last checkpoint produces a digest bit-identical to
  the uninterrupted run (segment boundaries are grid-aligned, so both
  executions pause at identical instants).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.config import InterDcConfig, TransportConfig, small_interdc_config
from repro.errors import ConfigError, OrchestrationError, WorkloadError
from repro.metrics.collector import NetworkCounters, collect_network_counters
from repro.metrics.config import MODE_SKETCH, MetricsConfig
from repro.metrics.sink import DistributionDigest, DistributionSink, make_distribution_sink
from repro.schemes import SCHEME_REGISTRY
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import milliseconds, seconds
from repro.workloads.sizes import HeavyTailConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.orchestration.admission import AdmissionDecision, ProxyAdmissionPolicy
    from repro.orchestration.run import MultiIncastResult
    from repro.patterns.controller import PatternAwareController
    from repro.workloads.incast import IncastJob

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

#: How long a completed incast's transport state lingers before teardown.
#: Long enough for the final ACK to reach every sender (the small fabric's
#: long-haul RTT is ~2 ms), so endpoints finish their state machines
#: cleanly and almost nothing lands stray; short enough that an open-loop
#: run only ever holds the last few milliseconds of finished flows.
_TEARDOWN_LINGER_PS = milliseconds(10)


@dataclass(frozen=True)
class DiurnalCurve:
    """A smooth day/night load curve: multiplier in ``[trough, 1]``.

    ``multiplier(t)`` starts at ``trough`` (night), peaks at 1 half a
    period in, and returns — one full cosine cycle per ``period_ps``.
    """

    period_ps: int = seconds(60)
    trough: float = 0.35

    def __post_init__(self) -> None:
        if self.period_ps <= 0:
            raise ConfigError("diurnal period must be positive")
        if not 0 < self.trough <= 1:
            raise ConfigError("trough must be in (0, 1]")

    def multiplier(self, time_ps: int) -> float:
        """Instantaneous acceptance probability for thinning."""
        phase = 2.0 * math.pi * (time_ps % self.period_ps) / self.period_ps
        return self.trough + (1.0 - self.trough) * 0.5 * (1.0 - math.cos(phase))


@dataclass(frozen=True)
class WorkloadEngineConfig:
    """One open-loop run, fully described (frozen and picklable)."""

    scheme: str = "streamlined"
    strategy: str = "central"
    interdc: InterDcConfig | None = None  #: None = small_interdc_config()
    transport: TransportConfig | None = None
    horizon_ps: int = seconds(120)
    #: checkpoint/RSS-tracking cadence; boundaries are grid-aligned so an
    #: interrupted and an uninterrupted run pause at identical instants.
    segment_ps: int = seconds(5)
    #: tenant arrival rate at the diurnal peak, before ``load_factor``.
    peak_arrivals_per_s: float = 25.0
    #: offered-load knob for sweeps: scales the arrival rate.
    load_factor: float = 1.0
    #: (workload name, weight) pairs; names must be tenant-capable specs.
    mix: tuple[tuple[str, float], ...] = (
        ("moe-dispatch", 0.5),
        ("ec-reconstruct", 0.25),
        ("quorum", 0.25),
    )
    #: Heavy enough that the Pareto tail reaches the fabric's first-RTT
    #: burst pathology (inter-DC BDP is ~12.5 MB at 100 Gb/s x 1 ms): a few
    #: percent of tenants draw multi-MB incasts whose initial window
    #: overflows the receiving leaf's buffer — exactly the events the
    #: proxy schemes exist to fix.
    sizes: HeavyTailConfig = HeavyTailConfig(
        minimum_bytes=256_000, maximum_bytes=64_000_000, alpha=1.1
    )
    diurnal: DiurnalCurve = DiurnalCurve()
    #: per-incast completion-time SLO for the attainment figure; 10 ms
    #: passes any uncongested transfer (64 MB serializes in ~5 ms) but
    #: fails the first-RTT-overflow RTO recoveries (~40 ms).
    slo_ps: int = milliseconds(10)
    #: gate proxy use behind the pattern-aware predictor (learned bursts
    #: get the proxy, unlearned ones run direct); False = always proxy.
    pattern_predictor: bool = False
    #: gate proxy use behind the crossover policy instead (rejected
    #: incasts run direct); ``pattern_predictor`` takes precedence.
    admission: ProxyAdmissionPolicy | None = None
    #: a fixed job list replacing the tenant arrivals; the run stops at its
    #: last completion (or the horizon, if that comes first).
    jobs: tuple[IncastJob, ...] = ()
    metrics: MetricsConfig = MetricsConfig(mode=MODE_SKETCH)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_ps <= 0:
            raise ConfigError("horizon_ps must be positive")
        if self.segment_ps <= 0 or self.segment_ps > self.horizon_ps:
            raise ConfigError("segment_ps must be in (0, horizon_ps]")
        if self.peak_arrivals_per_s <= 0:
            raise ConfigError("peak_arrivals_per_s must be positive")
        if self.load_factor <= 0:
            raise ConfigError("load_factor must be positive")
        from repro.orchestration.run import STRATEGIES

        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown strategy {self.strategy!r}; pick from {STRATEGIES}"
            )
        if not self.mix:
            raise ConfigError("mix must name at least one workload")
        if any(weight <= 0 for _, weight in self.mix):
            raise ConfigError("mix weights must be positive")
        if self.slo_ps <= 0:
            raise ConfigError("slo_ps must be positive")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            # per-job state is keyed by name: a repeat would collide on a
            # proxy assignment or merge two incasts' completions into one
            repeated = sorted({name for name in names if names.count(name) > 1})
            raise ConfigError(f"job names must be unique; repeated: {repeated}")


class WorkloadFold:
    """Bounded-memory accumulator for one open-loop run.

    Every completion folds in immediately; nothing per-job is retained.
    The fold travels inside checkpoints, so a resumed run continues the
    same accumulation and :meth:`digest` stays bit-identical.
    """

    def __init__(self, metrics: MetricsConfig, slo_ps: int, seed: int) -> None:
        self.slo_ps = slo_ps
        self.ict: DistributionSink = make_distribution_sink(
            metrics, seed=seed, name="workload:ict"
        )
        self.tenants_arrived = 0
        self.tenants_thinned = 0
        self.tenants_admitted = 0
        self.jobs_launched = 0
        self.jobs_completed = 0
        self.jobs_proxied = 0
        self.jobs_direct = 0
        self.slo_attained = 0
        self.bytes_offered = 0
        self.bytes_completed = 0

    def observe_completion(self, ict_ps: int, nbytes: int) -> None:
        """Fold one finished incast in."""
        self.jobs_completed += 1
        self.bytes_completed += nbytes
        if ict_ps <= self.slo_ps:
            self.slo_attained += 1
        self.ict.observe(float(ict_ps))

    @property
    def attainment(self) -> float:
        """Fraction of completed incasts that met the SLO."""
        if self.jobs_completed == 0:
            return 0.0
        return self.slo_attained / self.jobs_completed

    @property
    def completion(self) -> float:
        """Fraction of launched incasts that finished inside the horizon."""
        if self.jobs_launched == 0:
            return 0.0
        return self.jobs_completed / self.jobs_launched

    def digest_document(self) -> dict[str, Any]:
        """The canonical content the digest is computed over."""
        summary = self.ict.finalize()
        return {
            "tenants_arrived": self.tenants_arrived,
            "tenants_thinned": self.tenants_thinned,
            "tenants_admitted": self.tenants_admitted,
            "jobs_launched": self.jobs_launched,
            "jobs_completed": self.jobs_completed,
            "jobs_proxied": self.jobs_proxied,
            "jobs_direct": self.jobs_direct,
            "slo_attained": self.slo_attained,
            "bytes_offered": self.bytes_offered,
            "bytes_completed": self.bytes_completed,
            "ict_count": summary.count,
            "ict_mean": repr(summary.mean),
            "ict_percentiles": [
                (repr(p), repr(v)) for p, v in summary.percentiles
            ],
            "ict_sample": [repr(v) for v in summary.sample],
        }


@dataclass
class WorkloadResult:
    """Outcome of one open-loop run (picklable, report-ready)."""

    scheme: str
    strategy: str
    seed: int
    horizon_ps: int
    load_factor: float
    tenants: int
    jobs_launched: int
    jobs_completed: int
    jobs_proxied: int
    jobs_direct: int
    slo_ps: int
    slo_attained: int
    attainment: float
    completion: float
    bytes_offered: int
    bytes_completed: int
    ict: DistributionDigest
    counters: NetworkCounters
    digest: str
    learned_period_ps: int | None = None
    #: (simulated time, ru_maxrss kB) at each segment boundary; process-
    #: local, never part of the digest.
    rss_track: list[tuple[int, int]] = field(default_factory=list)


class _JobTracker:
    """Per-incast completion bookkeeping (picklable: bound methods only)."""

    def __init__(self, engine: "OpenLoopEngine", job: IncastJob,
                 host_id: int | None) -> None:
        self.engine = engine
        self.job = job
        self.host_id = host_id
        self.remaining = job.degree
        #: wired Connection / relayed-flow objects, torn down after completion
        self.wired: list[Any] = []

    def flow_done(self, _receiver: Any) -> None:
        """One flow of the incast finished."""
        self.remaining -= 1
        if self.remaining == 0:
            self.engine._job_done(self)


class OpenLoopEngine:
    """Drives one open-loop run; the engine object *is* the checkpoint.

    Build it, then :meth:`run` — or restore one from a checkpoint file
    with :func:`~repro.sim.checkpoint.load_checkpoint` and :meth:`run`
    again; the two executions are indistinguishable in simulated time.
    """

    def __init__(self, config: WorkloadEngineConfig) -> None:
        from repro.orchestration.run import make_selector
        from repro.workloads.registry import WORKLOAD_REGISTRY

        self.config = config
        spec = SCHEME_REGISTRY.get(config.scheme)
        for name, _ in config.mix:
            workload = WORKLOAD_REGISTRY.get(name)
            if workload.tenant is None:
                raise WorkloadError(
                    f"workload {name!r} has no tenant builder; engine mixes "
                    f"must be from {WORKLOAD_REGISTRY.tenant_names()}"
                )
        self._spec = spec
        self.strategy = "none" if spec.make_proxy is None else config.strategy
        interdc = config.interdc if config.interdc is not None else small_interdc_config()
        self.transport = (
            config.transport if config.transport is not None else TransportConfig()
        )
        self.sim = Simulator(seed=config.seed)
        trimming = spec.trimming and self.strategy != "none"
        topo = build_interdc(self.sim, interdc.with_trimming(trimming))
        self.net = topo.net
        dc0, dc1 = topo.fabrics[0], topo.fabrics[-1]
        self._sender_hosts = dc0.hosts
        self._receiver_hosts = dc1.hosts
        # Tenants send from the first three quarters of the sending fabric;
        # the split is scheme-independent so per-scheme results compare on
        # the same sender population.
        self._tenant_senders = len(dc0.hosts) - max(1, len(dc0.hosts) // 4)
        named = set(range(self._tenant_senders))
        if config.jobs:
            named = {i for job in config.jobs for i in job.sender_indices}
        for job in config.jobs:  # both fabrics are built from one config
            highest = max(*job.sender_indices, job.receiver_index)
            if highest >= len(dc0.hosts):
                raise OrchestrationError(
                    f"job {job.name!r} names host index {highest} but each "
                    f"datacenter only has {len(dc0.hosts)} servers"
                )
        # The proxy pool: every sending host that no job can name.
        proxy_hosts = [h for i, h in enumerate(dc0.hosts) if i not in named]
        if self.strategy != "none" and not proxy_hosts:
            raise OrchestrationError("no free servers left to act as proxies")
        self._proxy_hosts_by_id = {h.id: h for h in proxy_hosts}
        self._buffer_bytes = interdc.fabric.switch_queue.capacity_bytes
        self.selector = make_selector(
            self.strategy, proxy_hosts, self.net,
            self.sim.rng.stream("orchestration:select"),
        )

        self.controller: PatternAwareController | None = None
        if config.pattern_predictor:  # the learner loads numpy: only on request
            from repro.patterns.controller import PatternAwareController

            self.controller = PatternAwareController()
        self.fold = WorkloadFold(config.metrics, config.slo_ps, config.seed)
        # Job-list bookkeeping, per incast; an open-loop run keeps none.
        self.ict_ps: dict[str, int] = {}
        self.assignments: dict[str, int] = {}
        self.peak_load: dict[int, int] = {}
        self.decisions: dict[str, AdmissionDecision] = {}
        self._proxies_on_host: dict[int, Any] = {}
        self._tenants = 0
        self.segments_done = 0
        self.rss_track: list[tuple[int, int]] = []
        self._arrival_rng = self.sim.rng.stream("engine:arrivals")
        self._mix_rng = self.sim.rng.stream("engine:mix")
        self._size_rng = self.sim.rng.stream("engine:sizes")
        self._mix_names = [name for name, _ in config.mix]
        self._mix_weights = [weight for _, weight in config.mix]
        if config.jobs:
            for job in config.jobs:
                self._offer(job)
        else:
            self._schedule_next_arrival()

    @property
    def finished(self) -> bool:
        """True once every incast of a job list has completed."""
        return bool(self.config.jobs) and self.fold.jobs_completed == len(self.config.jobs)

    # -- arrival process -----------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        rate_per_ps = self.config.peak_arrivals_per_s * self.config.load_factor / 1e12
        gap = self._arrival_rng.expovariate(rate_per_ps)
        at = self.sim.now + max(1, round(gap))
        if at >= self.config.horizon_ps:
            return  # the arrival process ends at the horizon
        self.sim.schedule_at(at, self._on_arrival)

    def _on_arrival(self) -> None:
        self._schedule_next_arrival()
        self.fold.tenants_arrived += 1
        # Thinning: accept at the diurnal curve's instantaneous fraction
        # of the peak rate.
        if self._arrival_rng.random() > self.config.diurnal.multiplier(self.sim.now):
            self.fold.tenants_thinned += 1
            return
        self._spawn_tenant()

    def _spawn_tenant(self) -> None:
        from repro.workloads.registry import WORKLOAD_REGISTRY, TenantRequest, tenant_jobs

        index = self._tenants
        self._tenants += 1
        self.fold.tenants_admitted += 1
        name = self._mix_rng.choices(self._mix_names, weights=self._mix_weights)[0]
        total = self.config.sizes.sample(self._size_rng)
        request = TenantRequest(
            index=index,
            seed=(self.config.seed * 1_000_003 + index) & _SEED_MASK,
            total_bytes=total,
            sender_pool=self._tenant_senders,
            receiver_pool=len(self._receiver_hosts),
        )
        jobs = tenant_jobs(
            WORKLOAD_REGISTRY.get(name),
            request,
            start_ps=self.sim.now,
            sender_offset=(index * 3) % self._tenant_senders,
            receiver_offset=index % len(self._receiver_hosts),
        )
        for job in jobs:
            self._offer(job)

    def _offer(self, job: IncastJob) -> None:
        # Builders may emit relative starts (epochs, dispatch phases), and
        # a job list starts anywhere: launch each incast at its own instant.
        self.fold.bytes_offered += job.total_bytes
        self.sim.schedule_at(job.start_ps, functools.partial(self._launch, job))

    # -- incast wiring -------------------------------------------------------

    def _admit(self, job: IncastJob) -> bool:
        if self.selector is None:
            return False
        if self.controller is not None:
            staged = self.controller.proxy_staged_for(job.start_ps, job.receiver_index)
            # Observation happens *after* the decision: a burst cannot be
            # used to predict itself.
            self.controller.observe_burst(
                job.start_ps, job.receiver_index, job.total_bytes
            )
            return staged
        admission = self.config.admission
        if admission is None:
            return True
        src = self._sender_hosts[job.sender_indices[0]]
        dst = self._receiver_hosts[job.receiver_index]
        decision = admission.decide(
            job,
            bottleneck_bps=dst.nic_rate_bps,
            interdc_rtt_ps=self.net.path_rtt_ps(src.id, dst.id),
            intra_rtt_ps=self.net.path_rtt_ps(src.id, next(iter(self._proxy_hosts_by_id))),
            bottleneck_buffer_bytes=self._buffer_bytes,
        )
        if self.config.jobs:
            self.decisions[job.name] = decision
        return decision.use_proxy

    def _proxy_app(self, host_id: int) -> Any:
        app = self._proxies_on_host.get(host_id)
        if app is None:
            assert self._spec.make_proxy is not None
            app = self._spec.make_proxy(
                self.sim, self.net, self._proxy_hosts_by_id[host_id],
                transport=self.transport,
                detector=None,
            )
            self._proxies_on_host[host_id] = app
        return app

    def _launch(self, job: IncastJob) -> None:
        self.fold.jobs_launched += 1
        host_id: int | None = None
        delay = 0
        if self._admit(job):
            assert self.selector is not None
            host_id, delay = self.selector.select(job)
            self.fold.jobs_proxied += 1
            if self.config.jobs:
                self.assignments[job.name] = host_id
                load = self.selector.registry.load(host_id)
                self.peak_load[host_id] = max(self.peak_load.get(host_id, 0), load)
        else:
            self.fold.jobs_direct += 1
        # Flows start once the selection delay has elapsed.
        tracker = _JobTracker(self, job, host_id)
        self.sim.schedule(delay, functools.partial(self._start_flows, tracker))

    def _start_flows(self, tracker: _JobTracker) -> None:
        job, host_id = tracker.job, tracker.host_id
        open_flow = Connection if host_id is None else self._proxy_app(host_id).open
        dst = self._receiver_hosts[job.receiver_index]
        for sender_index, nbytes in zip(job.sender_indices, job.flow_bytes):
            flow = open_flow(
                self.net, self._sender_hosts[sender_index], dst, nbytes,
                self.transport,
                on_receiver_complete=tracker.flow_done,
                label=f"{job.name}:{sender_index}",
            )
            tracker.wired.append(flow)
            flow.start()

    def _job_done(self, tracker: _JobTracker) -> None:
        job = tracker.job
        ict = self.sim.now - job.start_ps
        self.fold.observe_completion(ict, job.total_bytes)
        if self.selector is not None and tracker.host_id is not None:
            self.selector.release(job, tracker.host_id)
        # An open-loop run wires thousands of incasts onto one fabric;
        # finished transport state must come off the host handler tables or
        # memory grows without bound.  Linger briefly so in-flight final
        # ACKs land before endpoints unregister.
        self.sim.schedule(_TEARDOWN_LINGER_PS, functools.partial(self._teardown_job, tracker))
        if self.config.jobs:
            self.ict_ps[job.name] = ict
            if self.finished:
                # The last completion ends a job-list run: the network's
                # counters are read at this instant.
                self.sim.stop()

    def _teardown_job(self, tracker: _JobTracker) -> None:
        host_id = tracker.host_id
        release = (
            Connection.teardown if host_id is None else self._proxy_app(host_id).release
        )
        for wired in tracker.wired:
            release(wired)
        tracker.wired.clear()

    # -- run loop ------------------------------------------------------------

    def run(
        self,
        *,
        checkpoint_path: str | Path | None = None,
        kill_at_ps: int | None = None,
    ) -> WorkloadResult:
        """Advance to the horizon in grid-aligned segments; a job-list run
        ends earlier, at its last completion.

        With ``checkpoint_path`` the engine snapshots itself after every
        segment; with ``kill_at_ps`` it SIGKILLs its own process at the
        first boundary at or past that instant *after* checkpointing —
        the CI preemption drill.
        """
        # A finished engine dies as one blob of cycles.  Unlike a closed-loop
        # cell, which runs in one collector window and so dies young, an
        # engine ages into the oldest generation across its segments'
        # windows, and waits for a full collection.  Take that collection
        # here, before this run grows, so peak RSS does not depend on where
        # the interpreter's next full pass happens to fall.
        gc.collect()
        if checkpoint_path is not None:
            from repro.sim.checkpoint import save_checkpoint
        horizon = self.config.horizon_ps
        segment = self.config.segment_ps
        while self.sim.now < horizon and not self.finished:
            boundary = min(horizon, ((self.sim.now // segment) + 1) * segment)
            self.sim.run(until=boundary)
            self.segments_done += 1
            self.rss_track.append((self.sim.now, _peak_rss_kb()))
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, self)
            if kill_at_ps is not None and self.sim.now >= kill_at_ps:
                os.kill(os.getpid(), signal.SIGKILL)  # preemption drill
        return self.result()

    def result(self) -> WorkloadResult:
        """Fold the run into its report-ready result."""
        fold = self.fold
        document = {
            "scheme": self.config.scheme,
            "strategy": self.strategy,
            "seed": self.config.seed,
            "horizon_ps": self.config.horizon_ps,
            "load_factor": repr(self.config.load_factor),
            "fold": fold.digest_document(),
        }
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()
        learned = None
        if self.controller is not None and self._receiver_hosts:
            learned = self.controller.predicted_period_ps(0)
        return WorkloadResult(
            scheme=self.config.scheme,
            strategy=self.strategy,
            seed=self.config.seed,
            horizon_ps=self.config.horizon_ps,
            load_factor=self.config.load_factor,
            tenants=fold.tenants_admitted,
            jobs_launched=fold.jobs_launched,
            jobs_completed=fold.jobs_completed,
            jobs_proxied=fold.jobs_proxied,
            jobs_direct=fold.jobs_direct,
            slo_ps=fold.slo_ps,
            slo_attained=fold.slo_attained,
            attainment=fold.attainment,
            completion=fold.completion,
            bytes_offered=fold.bytes_offered,
            bytes_completed=fold.bytes_completed,
            ict=fold.ict.finalize(),
            counters=collect_network_counters(self.net),
            digest=digest,
            learned_period_ps=learned,
            rss_track=list(self.rss_track),
        )

    def multi_incast_result(self) -> MultiIncastResult:
        """A job-list run as the concurrent-incast harness reports it."""
        from repro.orchestration.run import MultiIncastResult

        jobs, selector = self.config.jobs, self.selector
        return MultiIncastResult(
            strategy=self.strategy,
            scheme=self.config.scheme if self.strategy != "none" else "baseline",
            ict_ps=dict(self.ict_ps),
            completed=self.finished,
            makespan_ps=max(
                (job.start_ps + self.ict_ps[job.name]
                 for job in jobs if job.name in self.ict_ps),
                default=self.config.horizon_ps,
            ),
            probes=getattr(selector, "probes", getattr(selector, "selections", 0)),
            fallbacks=getattr(selector, "fallbacks", 0),
            proxy_assignments=dict(self.assignments),
            counters=collect_network_counters(self.net),
            per_proxy_peak_load=dict(self.peak_load),
            admission_decisions=dict(self.decisions),
        )


def rss_plateau_ok(
    rss_track: list[tuple[int, int]], *, tolerance: float = 0.15
) -> bool:
    """True when peak RSS stopped growing after the warmup quarter.

    The sketch-mode memory contract: once sinks are warm, ``ru_maxrss``
    at the end of the run exceeds the first-quarter watermark by at most
    ``tolerance``.  Needs at least 8 segments to judge.
    """
    if len(rss_track) < 8:
        raise ConfigError("need at least 8 RSS samples to judge a plateau")
    quarter = max(1, len(rss_track) // 4)
    warm = rss_track[quarter - 1][1]
    final = rss_track[-1][1]
    if warm <= 0:  # pragma: no cover - platforms without getrusage
        return True
    return final <= warm * (1.0 + tolerance)


def _peak_rss_kb() -> int:
    """Process heap high-water mark (0 where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
