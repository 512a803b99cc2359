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

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ExperimentError
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastScenario, run_incast
from repro.metrics.timeseries import Sampler, TimeSeries
from repro.schemes import SCHEME_REGISTRY
from repro.sim.probe import Probe
from repro.telemetry.options import RunOptions
from repro.units import microseconds


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


class _ReceivedBytes(Probe):
    """Samples the bytes every receiver in the receiving datacenter holds.

    The incast's receiver is the only host in the last DC of the line
    that terminates flows: a split-connection proxy's inner legs end in
    DC 0, and :func:`measure_convergence` refuses background flows.
    """

    def __init__(self, interval_ps: int, receiving_dc: int) -> None:
        self.interval_ps = interval_ps
        self.receiving_dc = receiving_dc
        self.receivers: list[Any] = []
        self.bottleneck_bps = 0.0  # bytes per second into the receiver
        self.cumulative: Any = None

    def on_receiver(self, receiver: Any) -> None:
        if receiver.host.dc == self.receiving_dc:
            self.receivers.append(receiver)
            self.bottleneck_bps = receiver.host.nic_rate_bps / 8

    def begin_run(self, sim: Any) -> None:
        sampler = Sampler(sim, self.interval_ps)
        self.cumulative = sampler.probe(
            "rx_bytes", lambda: sum(r.stats.bytes_received for r in self.receivers)
        )
        sampler.start()


def measure_convergence(
    scenario: IncastScenario,
    sample_interval_ps: int = microseconds(100),
    target_fraction: float = 0.8,
    sustain_samples: int = 3,
) -> ConvergenceResult:
    """Run ``scenario`` with a receiver-goodput probe and derive convergence.

    The run is :func:`~repro.experiments.runner.run_incast`'s, so every
    scheme, routing mode and fault plan is wired exactly as there; the
    probe only reads the bytes the receiver has taken in.  Under RepFlow
    that counts both replicas of every flow.  Background flows would count
    as goodput too, so a scenario with any is rejected.

    Convergence is declared at the earliest sample from which goodput
    *stays* at or above ``target_fraction`` of the bottleneck rate until
    the transfer finishes — the initial burst briefly filling the pipe
    before collapsing (the baseline's signature) does not count.  Samples
    before the first byte arrives (pure propagation) and the final partial
    interval are excluded from all statistics.
    """
    if not 0 < target_fraction <= 1:
        raise ExperimentError("target_fraction must be in (0, 1]")
    if scenario.background_flows:
        raise ExperimentError(
            "measure_convergence counts every byte the receiving datacenter "
            "takes in; background flows would pass for goodput"
        )
    probe = _ReceivedBytes(sample_interval_ps, len(scenario.interdc.segment_delays_ps))
    run = run_incast(scenario, RunOptions(probe=probe))
    result = ConvergenceResult(
        scenario=scenario,
        goodput=probe.cumulative.to_timeseries().rate_per_second(),
        bottleneck_bps=probe.bottleneck_bps,
        target_fraction=target_fraction,
        ict_ps=run.ict_ps,
        completed=run.completed,
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
