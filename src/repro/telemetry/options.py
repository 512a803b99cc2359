"""The unified per-run options bundle.

``run_incast`` grew call-site-by-call-site keyword arguments (``sanitize``,
then probes, then telemetry); :class:`RunOptions` collapses them into one
frozen, picklable value that travels unchanged from the CLI through
:class:`~repro.experiments.parallel.ExperimentEngine` and the worker pool
into the runner.

Cache interaction: any option that changes what a result *carries*
(sanitizer tallies, telemetry snapshots) or observes the run from outside
(a probe) makes the run non-interchangeable with a plain cached one, so :attr:`RunOptions.bypasses_cache` is True and the
engine skips the result cache in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError
from repro.metrics.config import DEFAULT_METRICS, MetricsConfig
from repro.units import microseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.probe import Probe

#: Default sampling cadence: one probe sweep every 10 us of simulated time.
DEFAULT_SAMPLE_INTERVAL_PS = microseconds(10)

#: Default per-series sample cap (ticks, not bytes; each tick is two ints
#: per series).  2048 ticks at the default cadence covers ~20 ms of run.
DEFAULT_MAX_SAMPLES = 2048


@dataclass(frozen=True)
class RunOptions:
    """How to execute one incast run (everything except the scenario).

    * ``sanitize`` — install the invariant sanitizer; the conservation
      tally lands in ``IncastResult.conservation``.
    * ``telemetry`` — build a fresh
      :class:`~repro.telemetry.recorder.TelemetryRecorder` per run, the
      picklable, pool-safe way to record a sweep; the snapshot lands in
      ``IncastResult.telemetry``.
    * ``probe`` — a :class:`~repro.sim.probe.Probe` of the caller's, for
      single in-process runs (a probe accumulates state).  A
      ``TelemetryRecorder`` passed here fills ``IncastResult.telemetry``
      too.
    * ``sample_interval_ps`` / ``max_samples`` — the recorder's sampling
      cadence (simulated time) and per-series memory bound.
    * ``tie_break_seed`` — install the dynamic race detector's
      :class:`~repro.analysis.races.TieBreakScheduler`: same-tick event
      batches are permuted under the named ``tiebreak:<seed>`` RNG
      substream.  None (the default) leaves the scheduler's FIFO contract
      untouched and is guaranteed bit-identical to runs before the hook
      existed.
    * ``tie_break_limit`` — permute only the first N multi-entry ticks
      (the bisection knob; None = every tick).
    * ``metrics`` — the :class:`~repro.metrics.config.MetricsConfig`
      selecting exact (reference) or sketch (bounded-memory) storage for
      everything the run measures.  Folded into ``scenario_key`` so the
      two modes never share cache entries.

    ``sanitize``, ``telemetry`` and ``probe`` combine: the runner puts
    whichever are asked for in the simulator's one probe slot, behind a
    :class:`~repro.sim.probe.FanOut` when there are several.
    """

    sanitize: bool = False
    probe: "Probe | None" = None
    telemetry: bool = False
    sample_interval_ps: int = DEFAULT_SAMPLE_INTERVAL_PS
    max_samples: int = DEFAULT_MAX_SAMPLES
    tie_break_seed: int | None = None
    tie_break_limit: int | None = None
    metrics: MetricsConfig = DEFAULT_METRICS

    def __post_init__(self) -> None:
        if self.sample_interval_ps <= 0:
            raise ConfigError("sample_interval_ps must be positive")
        if self.max_samples <= 0:
            raise ConfigError("max_samples must be positive")
        if self.tie_break_limit is not None and self.tie_break_limit < 0:
            raise ConfigError("tie_break_limit must be non-negative")
        if self.tie_break_limit is not None and self.tie_break_seed is None:
            raise ConfigError("tie_break_limit requires tie_break_seed")

    @property
    def bypasses_cache(self) -> bool:
        """True when results under these options must not use the cache."""
        return (
            self.sanitize
            or self.telemetry
            or self.probe is not None
            or self.tie_break_seed is not None
        )
