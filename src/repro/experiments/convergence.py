"""Convergence analysis — quantifying §3's Insight #2.

The paper's causal claim is that the proxy shortens the feedback loop and
therefore lets senders "converge quickly at a rate that fully utilizes the
link".  This module measures that directly: it instruments an incast run
with a goodput probe at the receiver and reports

* **time-to-convergence** — the first time goodput reaches (and then
  keeps averaging near) a target fraction of the bottleneck rate;
* **utilization trajectory** — the goodput time series itself;
* **wasted time** — intervals after first loss where the bottleneck ran
  under the target (the baseline's "senders trapped at rates that are
  either too slow or too aggressive").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import InterDcConfig, TransportConfig, paper_interdc_config
from repro.errors import ExperimentError
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastScenario
from repro.metrics.timeseries import Sampler, TimeSeries
from repro.proxy.placement import pick_proxy_host, pick_senders
from repro.schemes import SCHEME_REGISTRY
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import microseconds, seconds


@dataclass
class ConvergenceResult:
    """Trajectory and derived convergence metrics of one incast run."""

    scenario: IncastScenario
    goodput: TimeSeries  # bytes/s at the receiver, per sample interval
    bottleneck_bps: float
    target_fraction: float
    ict_ps: int
    completed: bool
    convergence_time_ps: int | None = None
    underutilized_ps: int = 0
    mean_utilization: float = 0.0

    def utilization_series(self) -> list[tuple[int, float]]:
        """(time, fraction-of-bottleneck) pairs."""
        return [
            (t, v / self.bottleneck_bps)
            for t, v in zip(self.goodput.times, self.goodput.values)
        ]


def measure_convergence(
    scenario: IncastScenario,
    sample_interval_ps: int = microseconds(100),
    target_fraction: float = 0.8,
    sustain_samples: int = 3,
) -> ConvergenceResult:
    """Run ``scenario`` with a receiver-goodput probe and derive convergence.

    Convergence is declared at the earliest sample from which goodput
    *stays* at or above ``target_fraction`` of the bottleneck rate until
    the transfer finishes — the initial burst briefly filling the pipe
    before collapsing (the baseline's signature) does not count.  Samples
    before the first byte arrives (pure propagation) and the final partial
    interval are excluded from all statistics.
    """
    if not 0 < target_fraction <= 1:
        raise ExperimentError("target_fraction must be in (0, 1]")
    sim = Simulator(seed=scenario.seed)
    spec = SCHEME_REGISTRY.get(scenario.scheme)
    topo = build_interdc(sim, scenario.interdc.with_trimming(spec.trimming))
    net = topo.net
    receiver = topo.fabrics[1].hosts[0]
    senders = pick_senders(topo.fabrics[0], scenario.degree)
    sizes = scenario.flow_sizes()

    remaining = [scenario.degree]
    receivers = []

    def on_done(_r) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            sampler.stop()
            sim.stop()

    # Wiring follows the spec's plane; the goodput probe needs the endpoint
    # receivers, so flows are built here rather than through spec.wire
    # (which reports sender-side handles for the runner).
    if spec.plane == "direct":
        for host, size in zip(senders, sizes):
            conn = Connection(net, host, receiver, size, scenario.transport,
                              on_receiver_complete=on_done)
            receivers.append(conn.receiver)
            conn.start()
    else:
        proxy_host = pick_proxy_host(topo.fabrics[0], senders)
        assert spec.make_proxy is not None  # enforced by SchemeSpec
        proxy = spec.make_proxy(
            sim, net, proxy_host,
            transport=scenario.transport,
            detector=scenario.detector,
            processing_delay=scenario.proxy_delay_sampler,
        )
        if spec.plane == "relay":
            for host, size in zip(senders, sizes):
                flow = proxy.relay(host, receiver, size,
                                   on_receiver_complete=on_done)
                receivers.append(flow.outer.receiver)
                flow.start()
        else:  # "via"
            for host, size in zip(senders, sizes):
                conn = Connection(net, host, receiver, size, scenario.transport,
                                  via=(proxy_host,), on_receiver_complete=on_done)
                proxy.attach(conn)
                receivers.append(conn.receiver)
                conn.start()

    sampler = Sampler(sim, sample_interval_ps)
    cumulative = sampler.probe(
        "rx_bytes", lambda: sum(r.stats.bytes_received for r in receivers)
    )
    sampler.start()
    sim.run(until=scenario.horizon_ps)

    bottleneck = receiver.nic_rate_bps / 8  # bytes per second
    goodput = cumulative.to_timeseries().rate_per_second()
    result = ConvergenceResult(
        scenario=scenario,
        goodput=goodput,
        bottleneck_bps=bottleneck,
        target_fraction=target_fraction,
        ict_ps=sim.now if remaining[0] == 0 else scenario.horizon_ps,
        completed=remaining[0] == 0,
    )
    _derive(result, sustain_samples)
    return result


def _derive(result: ConvergenceResult, sustain_samples: int) -> None:
    values = result.goodput.values
    times = result.goodput.times
    target = result.target_fraction * result.bottleneck_bps

    first = next((i for i, v in enumerate(values) if v > 0), None)
    if first is None:
        return
    end = len(values) - 1 if len(values) - 1 > first else len(values)
    window_values = values[first:end]
    window_times = times[first:end]
    if not window_values:
        return

    # Sustained convergence: scan backwards for the longest target-or-above
    # suffix, then require it to be at least sustain_samples long.
    suffix_start = len(window_values)
    for i in range(len(window_values) - 1, -1, -1):
        if window_values[i] >= target:
            suffix_start = i
        else:
            break
    if len(window_values) - suffix_start >= sustain_samples:
        result.convergence_time_ps = window_times[suffix_start]

    below = sum(1 for v in window_values if v < target)
    result.underutilized_ps = below * result.goodput.interval_ps
    result.mean_utilization = (
        sum(window_values) / len(window_values) / result.bottleneck_bps
    )


def _convergence_task(
    task: tuple[IncastScenario, int, float],
) -> ConvergenceResult:
    """Top-level (picklable) worker for the parallel engine."""
    scenario, sample_interval_ps, target_fraction = task
    return measure_convergence(
        scenario,
        sample_interval_ps=sample_interval_ps,
        target_fraction=target_fraction,
    )


def compare_convergence(
    base: IncastScenario,
    schemes: tuple[str, ...] = ("baseline", "naive", "streamlined"),
    sample_interval_ps: int = microseconds(100),
    target_fraction: float = 0.8,
    *,
    engine: ExperimentEngine | None = None,
) -> dict[str, ConvergenceResult]:
    """Convergence metrics for each scheme on the same scenario.

    The per-scheme runs fan out over ``engine`` (default: serial);
    results are merged in scheme order, so the returned mapping is
    identical for any worker count.
    """
    unknown = set(schemes) - set(SCHEME_REGISTRY.names())
    if unknown:
        raise ExperimentError(f"unknown schemes {sorted(unknown)}")
    engine = engine if engine is not None else ExperimentEngine()
    results = engine.map(
        _convergence_task,
        [
            (replace(base, scheme=scheme), sample_interval_ps, target_fraction)
            for scheme in schemes
        ],
    )
    return dict(zip(schemes, results))
