#!/usr/bin/env python3
"""Quickstart: one inter-datacenter incast under every scheme.

Reproduces the paper's headline in one page: four senders in datacenter 0
blast 40 MB at a receiver in datacenter 1, with a 1 ms long-haul link.
Direct transmission (baseline) suffers the long feedback loop; routing
through a proxy in the sending datacenter — the *longer* path — finishes
several times sooner.

Run:  python examples/quickstart.py [--paper-scale]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro import IncastScenario, paper_interdc_config, run_incast, small_interdc_config
from repro.config import TransportConfig
from repro.units import format_duration, megabytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the full §4.1 topology and a 100 MB incast (slower)",
    )
    args = parser.parse_args()

    if args.paper_scale:
        interdc = paper_interdc_config()
        total = megabytes(100)
        payload = 8192
    else:
        interdc = small_interdc_config()
        total = megabytes(40)
        payload = 4096

    scenario = IncastScenario(
        degree=4,
        total_bytes=total,
        interdc=interdc,
        transport=TransportConfig(payload_bytes=payload),
    )

    print(f"incast: {scenario.degree} senders, {total / 1e6:.0f} MB total, "
          f"{interdc.segment_delays_ps[0] / 1e9:.1f} ms long-haul links\n")
    print(f"{'scheme':<14} {'ICT':>12} {'vs baseline':>12} "
          f"{'drops':>8} {'trims':>8} {'timeouts':>9}")

    baseline_ict = None
    for scheme in ("baseline", "naive", "streamlined", "trimless"):
        result = run_incast(replace(scenario, scheme=scheme))
        if scheme == "baseline":
            baseline_ict = result.ict_ps
            delta = ""
        else:
            reduction = (baseline_ict - result.ict_ps) / baseline_ict
            delta = f"-{reduction * 100:.1f}%"
        print(f"{scheme:<14} {format_duration(result.ict_ps):>12} {delta:>12} "
              f"{result.counters.packets_dropped:>8} "
              f"{result.counters.packets_trimmed:>8} {result.timeouts:>9}")

    print("\nThe shortest path is not necessarily the fastest: the extra proxy")
    print("hop moves the congestion point microseconds from the senders, so")
    print("their windows converge before the first millisecond is over.")


if __name__ == "__main__":
    main()
