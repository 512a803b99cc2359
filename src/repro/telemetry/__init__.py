"""repro.telemetry — low-overhead observability for runs and sweeps.

Records runs through the simulator's one observer slot
(:mod:`repro.sim.probe`), where ports, senders, receivers, proxies and the
fault injector register at build time:

* :class:`TelemetryRecorder` — per-run sampled time-series (queue depth,
  ECN marks, trims, NACKs, cwnd/inflight, proxy relay occupancy) with a
  configurable cadence and bounded memory, plus a run profiler
  (events/sec, heap high-water mark, per-handler time, phase wall-clock);
  the snapshot lands on ``IncastResult.telemetry``.
* :class:`RunOptions` — the frozen per-run options bundle accepted by
  ``run_incast(scenario, options=...)`` and the experiment engine.
* :class:`SweepTelemetry` — sweep-level heartbeats and cache/retry/worker
  accounting, exported as versioned JSON + CSV.

Unrecorded runs pay one ``probe is not None`` test per hook site and no
per-event clock read; recorded runs are read-only observers, so
simulation results are bit-identical with telemetry on or off.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.options": [
        "DEFAULT_MAX_SAMPLES", "DEFAULT_SAMPLE_INTERVAL_PS", "RunOptions",
    ],
    "repro.telemetry.recorder": [
        "DEFAULT_MAX_SERIES", "RunProfile", "TelemetryRecorder", "TelemetrySnapshot",
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
