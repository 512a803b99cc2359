"""The cascaded-proxy experiment on a multi-DC chain.

Compares, for an incast from the first datacenter of a chain to a receiver
in the last:

* ``baseline`` — direct end-to-end connections;
* ``edge``     — the paper's design: one relay in the sending datacenter
                 (split connections, as the Naive proxy);
* ``cascade``  — a relay in the sending DC *and* in every intermediate DC.

Without failures the two proxy variants behave similarly (the first
segment's feedback loop dominates incast convergence); the cascade's
payoff appears when a far segment misbehaves — its optional link *blip*
is repaired from the nearest relay over one segment's RTT instead of from
the source across all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import InterDcConfig, TransportConfig
from repro.errors import ExperimentError
from repro.metrics.collector import NetworkCounters, collect_network_counters
from repro.proxy.naive import RelayChain, build_relay_chain
from repro.proxy.placement import pick_senders, place
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import megabytes, milliseconds, seconds

CASCADE_SCHEMES = ("baseline", "edge", "cascade")


@dataclass(frozen=True)
class CascadeScenario:
    """One multi-DC incast configuration."""

    scheme: str = "cascade"
    degree: int = 4
    total_bytes: int = megabytes(20)
    #: default DC0 -(1 ms)- DC1 -(10 ms)- DC2, two routers per spine
    chain: InterDcConfig = field(default_factory=lambda: InterDcConfig(
        segment_delays_ps=(milliseconds(1), milliseconds(10)), backbone_per_spine=2
    ))
    transport: TransportConfig = field(default_factory=TransportConfig)
    seed: int = 0
    horizon_ps: int = seconds(300)
    #: optional transient failure of one backbone link, the segment's first
    #: router's link into DC ``segment``: (segment index, at_ps,
    #: duration_ps); None = no failure.
    blip: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.scheme not in CASCADE_SCHEMES:
            raise ExperimentError(
                f"unknown cascade scheme {self.scheme!r}; pick from {CASCADE_SCHEMES}"
            )
        if self.degree < 1:
            raise ExperimentError("degree must be at least 1")
        if self.blip is not None:
            segment, at_ps, duration_ps = self.blip
            if not 0 <= segment < len(self.chain.segment_delays_ps):
                raise ExperimentError("blip segment index out of range")
            if at_ps < 0 or duration_ps <= 0:
                raise ExperimentError("blip needs at_ps >= 0 and duration_ps > 0")


@dataclass
class CascadeResult:
    """Outcome of one cascaded run."""

    scenario: CascadeScenario
    ict_ps: int
    completed: bool
    counters: NetworkCounters
    relays_used: int


class CascadeRun:
    """One multi-DC incast, built and started: ``sim.run`` it, then read
    :meth:`result`.  Its callbacks are bound methods and its blip is a
    fault plan, so it checkpoints between ``sim.run`` segments."""

    def __init__(self, scenario: CascadeScenario) -> None:
        self.scenario = scenario
        self.sim = Simulator(seed=scenario.seed)
        topo = build_interdc(self.sim, scenario.chain)
        self.net = topo.net
        last = len(topo.fabrics) - 1
        receiver = topo.hosts(last)[0]
        senders = pick_senders(topo.fabrics[0], scenario.degree)
        # The cascade relays in the sending DC and every intermediate DC.
        relay_dcs = {"baseline": [], "edge": [0], "cascade": range(last)}[scenario.scheme]
        self.relay_hosts = [place(topo.fabrics[dc], senders)[0] for dc in relay_dcs]

        base, extra = divmod(scenario.total_bytes, scenario.degree)
        self.remaining = scenario.degree
        self.completions: list[int] = []
        self.flows: list[RelayChain | Connection] = []
        for i, host in enumerate(senders):
            size = base + (1 if i < extra else 0)
            flow: RelayChain | Connection
            if self.relay_hosts:
                flow = build_relay_chain(
                    self.net, host, receiver, size, scenario.transport,
                    self.relay_hosts, on_complete=self._on_done, label=f"c{i}",
                )
            else:
                flow = Connection(
                    self.net, host, receiver, size, scenario.transport,
                    on_receiver_complete=self._on_done, label=f"c{i}",
                )
            flow.start()
            self.flows.append(flow)

        if scenario.blip is not None:
            from repro.faults.injector import FaultContext, arm_faults
            from repro.faults.plan import link_flap_plan

            segment, at_ps, duration_ps = scenario.blip
            router = topo.backbone.index(topo.segment_backbone(segment)[0])
            arm_faults(
                self.sim,
                link_flap_plan(f"backbone:{router}:0", at_ps, duration_ps),
                FaultContext(self.net, backbone=topo.backbone),
            )

    def _on_done(self, _receiver: object) -> None:
        self.completions.append(self.sim.now)
        self.remaining -= 1
        if self.remaining == 0:
            self.sim.stop()

    def result(self) -> CascadeResult:
        """The outcome so far; final once ``sim`` has run to the horizon."""
        completed = self.remaining == 0
        return CascadeResult(
            scenario=self.scenario,
            ict_ps=max(self.completions) if completed else self.scenario.horizon_ps,
            completed=completed,
            counters=collect_network_counters(self.net),
            relays_used=len(self.relay_hosts),
        )


def run_cascade(scenario: CascadeScenario) -> CascadeResult:
    """Execute one multi-DC incast."""
    run = CascadeRun(scenario)
    run.sim.run(until=scenario.horizon_ps)
    return run.result()
