"""repro.telemetry — low-overhead observability for runs and sweeps.

Unifies the metrics collectors under one :class:`Instrumentation`
protocol with named registration points in the scheduler, ports, senders,
proxies, and fault injector (per-event observation of the data path is the
simulator's probe slot, :mod:`repro.sim.probe`):

* :class:`TelemetryRecorder` — per-run sampled time-series (queue depth,
  ECN marks, trims, NACKs, cwnd/inflight, proxy relay occupancy) with a
  configurable cadence and bounded memory, plus a run profiler
  (events/sec, heap high-water mark, per-handler time, phase wall-clock);
  the snapshot lands on ``IncastResult.telemetry``.
* :class:`RunOptions` — the frozen per-run options bundle accepted by
  ``run_incast(scenario, options=...)`` and the experiment engine.
* :class:`SweepTelemetry` — sweep-level heartbeats and cache/retry/worker
  accounting, exported as versioned JSON + CSV.

Disabled runs pay one hoisted attribute check per run (see
:data:`NULL_INSTRUMENTATION`); enabled runs are read-only observers, so
simulation results are bit-identical with telemetry on or off.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.instrumentation": [
        "Instrumentation", "NULL_INSTRUMENTATION", "NullInstrumentation",
    ],
    "repro.telemetry.options": ["RunOptions"],
    "repro.telemetry.recorder": [
        "DEFAULT_MAX_SAMPLES", "DEFAULT_MAX_SERIES", "DEFAULT_SAMPLE_INTERVAL_PS",
        "RunProfile", "TelemetryRecorder", "TelemetrySnapshot",
    ],
    "repro.telemetry.sweep": [
        "RunRecord", "SweepTelemetry", "TELEMETRY_JSON_SCHEMA",
        "TELEMETRY_SCHEMA_VERSION", "validate_sweep_telemetry",
    ],
})

__all__ = [
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_MAX_SERIES",
    "DEFAULT_SAMPLE_INTERVAL_PS",
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "RunOptions",
    "RunProfile",
    "RunRecord",
    "SweepTelemetry",
    "TELEMETRY_JSON_SCHEMA",
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "validate_sweep_telemetry",
]
