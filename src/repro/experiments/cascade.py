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

from repro.config import MultiDcConfig, TransportConfig
from repro.errors import ExperimentError
from repro.metrics.collector import NetworkCounters, collect_network_counters
from repro.proxy.naive import build_relay_chain
from repro.proxy.placement import pick_senders, place
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import megabytes, seconds

CASCADE_SCHEMES = ("baseline", "edge", "cascade")


@dataclass(frozen=True)
class CascadeScenario:
    """One multi-DC incast configuration."""

    scheme: str = "cascade"
    degree: int = 4
    total_bytes: int = megabytes(20)
    chain: MultiDcConfig = field(default_factory=MultiDcConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    seed: int = 0
    horizon_ps: int = seconds(300)
    #: optional transient failure of one far-segment link:
    #: (segment index, at_ps, duration_ps); None = no failure.
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


def run_cascade(scenario: CascadeScenario) -> CascadeResult:
    """Execute one multi-DC incast."""
    sim = Simulator(seed=scenario.seed)
    topo = build_interdc(sim, scenario.chain)
    net = topo.net
    last = len(topo.fabrics) - 1
    receiver = topo.hosts(last)[0]
    senders = pick_senders(topo.fabrics[0], scenario.degree)

    if scenario.scheme == "baseline":
        relay_dcs: list[int] = []
    elif scenario.scheme == "edge":
        relay_dcs = [0]
    else:
        relay_dcs = list(range(last))  # sending DC + every intermediate DC

    relay_hosts = [place(topo.fabrics[dc], senders)[0] for dc in relay_dcs]

    base, extra = divmod(scenario.total_bytes, scenario.degree)
    sizes = [base + (1 if i < extra else 0) for i in range(scenario.degree)]

    remaining = [scenario.degree]
    completions: list[int] = []

    def on_done(_r) -> None:
        completions.append(sim.now)
        remaining[0] -= 1
        if remaining[0] == 0:
            sim.stop()

    for i, (host, size) in enumerate(zip(senders, sizes)):
        if relay_hosts:
            build_relay_chain(
                net, host, receiver, size, scenario.transport, relay_hosts,
                on_complete=on_done, label=f"c{i}",
            ).start()
        else:
            Connection(
                net, host, receiver, size, scenario.transport,
                on_receiver_complete=on_done, label=f"c{i}",
            ).start()

    if scenario.blip is not None:
        segment, at_ps, duration_ps = scenario.blip
        router = topo.segment_backbone(segment)[0]
        spine_id = net.adjacency[router.id][0]
        net.fail_link(router.id, spine_id, at_ps, duration_ps)

    sim.run(until=scenario.horizon_ps)
    completed = remaining[0] == 0
    return CascadeResult(
        scenario=scenario,
        ict_ps=max(completions) if completions and completed else scenario.horizon_ps,
        completed=completed,
        counters=collect_network_counters(net),
        relays_used=len(relay_hosts),
    )

