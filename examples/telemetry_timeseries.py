#!/usr/bin/env python3
"""Watch an incast from the inside: sampled time-series + a run profile.

Runs the same incast under the baseline and the streamlined proxy with
``RunOptions(telemetry=True)`` and renders what the recorder saw: the
network-wide queue backlog trajectory (the baseline's deep standing queue
vs the proxy's shallow one), the first sender's congestion window, and
the profiler's verdict on where the simulation's wall-clock went.

Run:  python examples/telemetry_timeseries.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.runner import IncastScenario, run_incast
from repro.telemetry import RunOptions
from repro.units import format_duration, megabytes, microseconds

BAR_WIDTH = 48
MAX_ROWS = 18


def render_series(series, scale: float, unit: str) -> str:
    """One row per (strided) sample: time, bar, scaled value."""
    peak = series.peak() or 1.0
    stride = max(1, len(series.times) // MAX_ROWS)
    lines = []
    for t, v in list(zip(series.times, series.values))[::stride]:
        filled = min(BAR_WIDTH, round(v / peak * BAR_WIDTH))
        bar = "#" * filled + "." * (BAR_WIDTH - filled)
        lines.append(f"  {format_duration(t):>10} |{bar}| {v / scale:9.1f} {unit}")
    return "\n".join(lines)


def main() -> None:
    base = IncastScenario(
        degree=4,
        total_bytes=megabytes(24),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    options = RunOptions(telemetry=True, sample_interval_ps=microseconds(20))

    for scheme in ("baseline", "streamlined"):
        result = run_incast(replace(base, scheme=scheme), options=options)
        snap = result.telemetry
        print(f"\n=== {scheme}: ICT {result.ict_ms:.2f} ms ===")
        print("network queue backlog:")
        print(render_series(snap.get("net.queue_bytes"), 1024.0, "KiB"))
        cwnd = next(s for name, s in sorted(snap.series.items())
                    if name.startswith("sender.") and name.endswith(".cwnd"))
        print("first sender cwnd:")
        print(render_series(cwnd, 1.0, "pkts"))
        profile = snap.profile
        phases = ", ".join(
            f"{name} {secs * 1e3:.1f}ms"
            for name, secs in profile.phase_seconds.items()
        )
        print(f"profile: {profile.events_executed} events "
              f"({profile.events_per_second:,.0f}/s), phases: {phases}")
        for name, secs in profile.hottest_handlers(3):
            print(f"  hot handler: {name:<40} {secs * 1e3:7.1f} ms")


if __name__ == "__main__":
    main()
