"""Time-series probes: sample simulation state on a fixed cadence.

The paper's §3 claim is about *convergence speed* — how quickly senders
reach rates that fill (but do not overwhelm) the bottleneck.  ICT alone
compresses that into one number; these probes record the trajectory:
bytes delivered per interval (goodput), congestion-window evolution, and
queue occupancy, from which :mod:`repro.experiments.convergence` computes
time-to-convergence.

Storage goes through the sink protocol (:mod:`repro.metrics.sink`): the
sampler writes ``observe(time, value)`` against whatever sink its
:class:`~repro.metrics.config.MetricsConfig` selects — exact full-list
series by default, bounded decimating buffers in sketch mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError
from repro.metrics.config import DEFAULT_METRICS, MetricsConfig
from repro.metrics.sink import SeriesSink, make_series_sink

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator


@dataclass
class TimeSeries:
    """Sampled (time, value) pairs at a fixed interval."""

    name: str
    interval_ps: int
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def observe(self, time: int, value: float) -> None:
        """Record one sample (the sink-protocol write path)."""
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def rate_per_second(self) -> "TimeSeries":
        """Interpret cumulative byte samples as a per-second rate series."""
        rates = TimeSeries(f"{self.name}/rate", self.interval_ps)
        for i in range(1, len(self.times)):
            dt = self.times[i] - self.times[i - 1]
            if dt <= 0:
                continue
            delta = self.values[i] - self.values[i - 1]
            rates.observe(self.times[i], delta * 1e12 / dt)
        return rates

    def peak(self) -> float:
        """Largest sample (0 for an empty series)."""
        return max(self.values, default=0.0)


class Sampler:
    """Drives a set of probes on a fixed simulation-time cadence.

    Each probe is ``(name, fn)`` where ``fn()`` returns the current value.
    Sampling stops automatically when :meth:`stop` is called or the
    simulator's horizon passes; the sampler never keeps an idle simulation
    alive beyond ``max_samples`` ticks.  Samples land in per-probe sinks
    chosen by ``config`` (exact by default); :meth:`snapshot` materializes
    them as :class:`TimeSeries`.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval_ps: int,
        max_samples: int = 100_000,
        *,
        config: MetricsConfig | None = None,
    ) -> None:
        if interval_ps <= 0:
            raise ConfigError("sampling interval must be positive")
        if max_samples <= 0:
            raise ConfigError("max_samples must be positive")
        self.sim = sim
        self.interval_ps = interval_ps
        self.max_samples = max_samples
        self.config = config if config is not None else DEFAULT_METRICS
        self.sinks: dict[str, SeriesSink] = {}
        self._probes: list[tuple[str, Callable[[], float]]] = []
        self._ticks = 0
        self._stopped = False
        self._started = False

    def probe(self, name: str, fn: Callable[[], float]) -> SeriesSink:
        """Register a probe; returns the sink it will fill."""
        if name in self.sinks:
            raise ConfigError(f"probe {name!r} already registered")
        sink = make_series_sink(self.config, name, self.interval_ps)
        self.sinks[name] = sink
        self._probes.append((name, fn))
        return sink

    def __contains__(self, name: str) -> bool:
        return name in self.sinks

    def __len__(self) -> int:
        return len(self.sinks)

    def snapshot(self) -> dict[str, TimeSeries]:
        """Materialize every probe's retained points."""
        return {name: sink.to_timeseries() for name, sink in self.sinks.items()}

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        if self._started:
            return
        self._started = True
        self._tick()

    def stop(self) -> None:
        """Stop after the current tick."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        for name, fn in self._probes:
            self.sinks[name].observe(now, float(fn()))
        self._ticks += 1
        if self._ticks >= self.max_samples:
            self._stopped = True
            return
        self.sim.schedule(self.interval_ps, self._tick)
