"""Run one inter-datacenter incast under one scheme.

The runner reproduces the paper's §4.1 methodology: ``degree`` senders in
datacenter 0 simultaneously transmit equal shares of ``total_bytes`` to a
single receiver in the last datacenter of the line (datacenter 1 on the
paper's two-DC topology).  Scheme selection is data-driven: the
scenario's ``scheme`` string is looked up in
:data:`repro.schemes.SCHEME_REGISTRY` and the resulting
:class:`~repro.schemes.SchemeSpec` decides whether the fabric trims and
how flows are wired.  The built-ins are ``baseline``, ``naive``,
``streamlined``, ``trimless`` and ``proxy-failover`` (see
:mod:`repro.schemes` for their semantics); third-party schemes registered
with :func:`repro.schemes.register_scheme` run here unchanged.

Incast completion time (ICT) is measured at the *real* receiver: the time
until the last byte of the last flow has arrived.

A scenario may carry a :class:`~repro.faults.plan.FaultPlan`; its events
(link flaps, proxy crashes, blackhole/corruption windows) are compiled onto
the scheduler before the run starts.  Flows whose sender gives up (see
``TransportConfig.max_consecutive_timeouts``) are counted in
``IncastResult.failed_flows`` and the run ends as soon as every flow has
either completed or failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import InterDcConfig, TransportConfig, paper_interdc_config
from repro.control.config import ControlConfig
from repro.control.pool import FailoverConfig
from repro.detection.lossdetector import DetectorConfig
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.metrics.collector import NetworkCounters, collect_network_counters
from repro.proxy.placement import pick_senders
from repro.schemes import SCHEME_REGISTRY, SCHEMES, SchemeContext  # SCHEMES: re-exported
from repro.sim.probe import FanOut, Probe
from repro.sim.simulator import Simulator, collector_paused
from repro.telemetry.options import RunOptions
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import megabytes, seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.recorder import TelemetrySnapshot


@dataclass(frozen=True)
class IncastScenario:
    """One incast experiment configuration."""

    scheme: str = "baseline"
    degree: int = 4
    total_bytes: int = megabytes(100)
    interdc: InterDcConfig = field(default_factory=paper_interdc_config)
    transport: TransportConfig = field(default_factory=TransportConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    seed: int = 0
    horizon_ps: int = seconds(300)
    routing: str = "spray"
    #: per-packet proxy processing cost: the name of a host-stack pipeline
    #: (:data:`repro.hoststack.PIPELINES`: "ebpf", "userspace", "tc",
    #: "xdp", "offload"); None charges nothing.
    proxy_overhead: str | None = None
    #: long-lived cross-traffic flows sharing the fabric (0 = quiet fabric).
    background_flows: int = 0
    background_bytes: int = megabytes(500)
    #: timed fault events injected into this run (empty plan = fault-free).
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: failure-detection parameters (only read by the proxy-failover scheme).
    failover: FailoverConfig = field(default_factory=FailoverConfig)
    #: reactive control plane: with a ControlConfig, a Controller recomputes
    #: and reinstalls routes on link-state changes; None (the default)
    #: leaves the statically built tables untouched.
    control: ControlConfig | None = None

    def __post_init__(self) -> None:
        # Registry lookup (not the frozen SCHEMES tuple) so third-party
        # schemes registered via repro.schemes validate too; raises
        # ExperimentError listing the registered names on a miss.
        spec = SCHEME_REGISTRY.get(self.scheme)
        if self.proxy_overhead is not None:
            from repro.hoststack.measurement import PIPELINES

            if self.proxy_overhead not in PIPELINES:
                raise ExperimentError(
                    f"unknown proxy_overhead {self.proxy_overhead!r}; "
                    f"pick from {', '.join(PIPELINES)}"
                )
            if not spec.charges_overhead:
                raise ExperimentError(
                    f"scheme {self.scheme!r} cannot charge proxy_overhead: "
                    "only a StreamlinedProxy charges per-packet processing"
                )
        if self.routing not in ("spray", "ecmp"):
            raise ExperimentError(f"unknown routing {self.routing!r}")
        if self.degree < 1:
            raise ExperimentError("incast degree must be at least 1")
        if self.total_bytes < self.degree:
            raise ExperimentError("total_bytes must provide at least 1 byte per sender")
        if self.background_flows < 0 or self.background_bytes < 1:
            raise ExperimentError("background traffic parameters must be non-negative")
        if self.horizon_ps <= 0:
            raise ExperimentError("horizon_ps must be positive")
        if not isinstance(self.faults, FaultPlan):
            raise ExperimentError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        if not isinstance(self.failover, FailoverConfig):
            raise ExperimentError(
                f"failover must be a FailoverConfig, got {type(self.failover).__name__}"
            )
        if self.control is not None and not isinstance(self.control, ControlConfig):
            raise ExperimentError(
                f"control must be a ControlConfig or None, got "
                f"{type(self.control).__name__}"
            )

    def flow_sizes(self) -> list[int]:
        """Split the incast equally; earlier flows absorb the remainder."""
        base, extra = divmod(self.total_bytes, self.degree)
        return [base + (1 if i < extra else 0) for i in range(self.degree)]


@dataclass
class IncastResult:
    """Outcome of one incast run."""

    scenario: IncastScenario
    ict_ps: int
    flow_completion_ps: list[int]
    completed: bool
    events_executed: int
    #: single-run wall-clock of the simulation itself; summed across a batch
    #: it is the serial-equivalent cost the parallel engine's speedup is
    #: measured against (see repro.experiments.parallel.ExecutionStats).
    wall_seconds: float
    counters: NetworkCounters
    retransmissions: int
    timeouts: int
    nacks_received: int
    marked_acks: int
    proxy_nacks_sent: int
    #: True when the parallel engine served this result from its on-disk
    #: cache instead of simulating (wall_seconds then reports the original
    #: simulation's cost, not the lookup's).
    from_cache: bool = False
    #: flows whose sender gave up (max_consecutive_timeouts) or was killed
    #: by a proxy crash; completed is False whenever this is non-zero.
    failed_flows: int = 0
    #: fault-plan events that found their target in this run vs. events
    #: naming a role the run does not have (e.g. "proxy" under baseline).
    fault_events_applied: int = 0
    fault_events_skipped: int = 0
    #: migrations away from the primary proxy (proxy-failover scheme only).
    failovers: int = 0
    #: migrations *back* onto the restarted primary (proxy pool manager).
    failbacks: int = 0
    #: times flows were re-pointed direct because no pool member was alive.
    proxy_degrades: int = 0
    #: event-driven route recomputations by the control plane (0 without a
    #: ControlConfig on the scenario).
    reroutes: int = 0
    #: sim time the failover manager first declared the active proxy dead;
    #: None when no failure was ever detected (or no manager ran).
    detected_at_ps: int | None = None
    #: sim time the controller's first event-driven table install landed;
    #: None when no topology event reached the controller.
    converged_at_ps: int | None = None
    #: end-of-run packet/byte conservation tally when the run executed with
    #: ``sanitize=True`` (see repro.analysis.sanitizer); None otherwise.
    conservation: dict[str, int] | None = None
    #: sampled time-series + run profile when the run executed with
    #: telemetry enabled (see repro.telemetry); None otherwise.
    telemetry: TelemetrySnapshot | None = None

    @property
    def ict_ms(self) -> float:
        """ICT in milliseconds."""
        return self.ict_ps / 1e9


def _start_background(sim, topo, scenario: IncastScenario, busy_hosts: set[int]) -> None:
    """Launch long-lived cross-traffic flows between random idle host pairs.

    Background flows mix intra-DC pairs (both directions) and cross-DC
    pairs; they are sized to outlive the incast so the fabric stays busy
    for the whole measurement.  They do not count toward completion.
    """
    rng = sim.rng.stream("background")
    idle0 = [h for h in topo.fabrics[0].hosts if h.id not in busy_hosts]
    idle1 = [h for h in topo.fabrics[-1].hosts if h.id not in busy_hosts]
    for i in range(scenario.background_flows):
        pools = [(idle0, idle0), (idle1, idle1), (idle0, idle1), (idle1, idle0)]
        src_pool, dst_pool = pools[i % len(pools)]
        if len(src_pool) < 1 or len(dst_pool) < 1:
            continue
        src = src_pool[rng.randrange(len(src_pool))]
        dst = dst_pool[rng.randrange(len(dst_pool))]
        if src is dst:
            continue
        Connection(
            topo.net, src, dst, scenario.background_bytes, scenario.transport,
            label=f"bg{i}",
        ).start()


def run_incast(
    scenario: IncastScenario, options: RunOptions | None = None
) -> IncastResult:
    """Execute ``scenario`` and return its measurements.

    Execution knobs travel in ``options`` (a frozen
    :class:`~repro.telemetry.options.RunOptions`):

    * ``options.sanitize`` installs a
      :class:`~repro.analysis.sanitizer.Sanitizer` before the network is
      built; invariants are checked throughout the run, exact packet/byte
      conservation is verified at the end, and the tally lands in
      ``IncastResult.conservation``.
    * ``options.telemetry`` records sampled time-series and a run profile
      into ``IncastResult.telemetry`` without perturbing simulation
      results.
    * ``options.probe`` is installed in the simulator's probe slot before
      the network is built, and hears every hook of the run.

    Each asked-for observer goes into the one probe slot, in that order,
    behind a :class:`~repro.sim.probe.FanOut` when there are several.
    """
    # One cell is one collector window: the build allocates as heavily and
    # as acyclically as the run loop, and the finished cell's fabric (one
    # blob of cycles) is still young when the next window opens.
    with collector_paused():
        return _run_cell(scenario, options if options is not None else RunOptions())


def _run_cell(scenario: IncastScenario, options: RunOptions) -> IncastResult:
    spec = SCHEME_REGISTRY.get(scenario.scheme)
    wall_start = time.perf_counter()
    sim = Simulator(seed=scenario.seed)
    if options.tie_break_seed is not None:
        # Dynamic race detection: permute same-tick event order under a
        # named substream.  Imported lazily — repro.analysis.races imports
        # this module at top level.
        from repro.analysis.races import install_tie_break

        install_tie_break(
            sim, options.tie_break_seed, limit=options.tie_break_limit
        )
    # Each observer's module is imported only when the run asks for it.
    sanitizer = recorder = None
    if options.sanitize:
        from repro.analysis.sanitizer import Sanitizer

        # install() takes the probe slot; a fan-out then takes the slot
        # over with the sanitizer as its first member.
        sanitizer = Sanitizer().install(sim)
    if options.telemetry:
        from repro.telemetry.recorder import TelemetryRecorder

        recorder = TelemetryRecorder(
            sample_interval_ps=options.sample_interval_ps,
            max_samples=options.max_samples,
            metrics=options.metrics,
        )
    observers = [o for o in (sanitizer, recorder, options.probe) if o is not None]
    if len(observers) > 1:
        sim.probe = FanOut(observers)
    elif observers:
        sim.probe = observers[0]
    if recorder is None and options.probe is not None:
        from repro.telemetry.recorder import TelemetryRecorder

        if isinstance(options.probe, TelemetryRecorder):
            recorder = options.probe
    observer = sim.probe if sim.probe is not None else Probe()
    observer.phase("build")
    trimming = spec.trimming
    topo = build_interdc(
        sim, scenario.interdc.with_trimming(trimming), routing=scenario.routing
    )
    net = topo.net

    receiver = topo.fabrics[-1].hosts[0]
    senders = pick_senders(topo.fabrics[0], scenario.degree)
    sizes = scenario.flow_sizes()

    # Per-flow outcome: a flow ends either "done" (all bytes at the real
    # receiver) or "failed" (its sender gave up / was killed by a fault).
    # The run stops as soon as nothing is pending, so a crashed flow does
    # not pin the simulation to the horizon.
    completions: list[int] = []
    outcome = ["pending"] * scenario.degree

    def _mark(i: int, status: str) -> None:
        if outcome[i] != "pending":
            return
        outcome[i] = status
        if status == "done":
            completions.append(sim.now)
        if all(state != "pending" for state in outcome):
            sim.stop()

    def make_on_done(i: int):
        return lambda _receiver: _mark(i, "done")

    def make_on_fail(i: int):
        return lambda _sender: _mark(i, "failed")

    wiring = spec.wire(SchemeContext(
        sim=sim,
        net=net,
        fabrics=tuple(topo.fabrics),
        scenario=scenario,
        receiver=receiver,
        senders=senders,
        sizes=sizes,
        make_on_done=make_on_done,
        make_on_fail=make_on_fail,
    ))
    senders_list = wiring.senders  # WindowedSender endpoints, for stats
    proxies = wiring.proxies
    proxy_hosts = wiring.proxy_hosts
    nack_proxies = wiring.nack_proxies
    manager = wiring.manager

    if scenario.background_flows:
        _start_background(sim, topo, scenario, busy_hosts={
            receiver.id, *(h.id for h in senders),
            *(h.id for h in proxy_hosts.values()),
        })

    injector = None  # an empty plan arms nothing
    if scenario.faults:
        from repro.faults.injector import FaultContext, arm_faults

        injector = arm_faults(
            sim,
            scenario.faults,
            FaultContext(
                net,
                sender_hosts=senders,
                receiver_host=receiver,
                proxies=proxies,
                proxy_hosts=proxy_hosts,
                backbone=topo.backbone,
            ),
        )

    controller = None
    if scenario.control is not None:
        from repro.control.controller import Controller

        controller = Controller(sim, net, scenario.control).start().observe(injector)

    observer.phase("run")
    observer.begin_run(sim)
    sim.run(until=scenario.horizon_ps)
    observer.phase("collect")
    completed = all(state == "done" for state in outcome)
    failed_flows = sum(1 for state in outcome if state == "failed")
    ict = max(completions) if completions and completed else scenario.horizon_ps

    conservation = None
    if sanitizer is not None:
        if completed:
            sanitizer.check_ict_floor(
                net, senders, receiver, scenario.total_bytes, ict
            )
        conservation = sanitizer.finish(net, injector).as_dict()
    counters = collect_network_counters(net)
    observer.end_run()
    result = IncastResult(
        scenario=scenario,
        ict_ps=ict,
        flow_completion_ps=sorted(completions),
        completed=completed,
        events_executed=sim.events_executed,
        wall_seconds=time.perf_counter() - wall_start,
        counters=counters,
        retransmissions=sum(s.stats.retransmissions for s in senders_list),
        timeouts=sum(s.stats.timeouts for s in senders_list),
        nacks_received=sum(s.stats.nacks_received for s in senders_list),
        marked_acks=sum(s.stats.marked_acks for s in senders_list),
        proxy_nacks_sent=sum(p.stats.nacks_sent for p in nack_proxies),
        failed_flows=failed_flows,
        fault_events_applied=injector.applied if injector is not None else 0,
        fault_events_skipped=injector.skipped if injector is not None else 0,
        failovers=manager.failovers if manager is not None else 0,
        failbacks=manager.failbacks if manager is not None else 0,
        proxy_degrades=manager.degrades if manager is not None else 0,
        reroutes=controller.reroutes if controller is not None else 0,
        detected_at_ps=manager.detected_at_ps if manager is not None else None,
        converged_at_ps=(
            controller.event_installs[0]
            if controller is not None and controller.event_installs
            else None
        ),
        conservation=conservation,
        telemetry=recorder.snapshot if recorder is not None else None,
    )
    return result


def build_scenario(scheme: str = "baseline", **overrides) -> IncastScenario:
    """Construct a validated :class:`IncastScenario`.

    Thin, discoverable front door for the common case::

        scenario = build_scenario("streamlined", degree=8, seed=3)

    ``scheme`` is validated against :data:`repro.schemes.SCHEME_REGISTRY`
    (so schemes added with :func:`repro.schemes.register_scheme` work);
    every other :class:`IncastScenario` field may be overridden by keyword.
    """
    return IncastScenario(scheme=scheme, **overrides)
