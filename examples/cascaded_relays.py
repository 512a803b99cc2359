#!/usr/bin/env python3
"""Cascaded relays across a three-datacenter chain (extension of the paper).

The paper places one proxy in the sending datacenter of a two-DC path.
What about metro DC -> regional hub -> remote region?  This example runs
an incast from DC0 to DC2 (segments of 1 ms and 10 ms) three ways —
direct, edge relay only (the paper's design), and a cascade with a relay
at every datacenter boundary — on a healthy chain and with a transient
link blip on the near segment.

Run:  python examples/cascaded_relays.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.cascade import CascadeScenario, run_cascade
from repro.units import format_duration, megabytes, milliseconds


def build_scenario() -> CascadeScenario:
    # The small two-DC config, stretched to a line of three.
    chain = replace(
        small_interdc_config(),
        segment_delays_ps=(milliseconds(1), milliseconds(10)),
    )
    return CascadeScenario(
        degree=4, total_bytes=megabytes(16), chain=chain,
        transport=TransportConfig(payload_bytes=4096),
    )


def main() -> None:
    base = build_scenario()
    print("chain: DC0 -(1 ms)- DC1 -(10 ms)- DC2; "
          "4 senders in DC0, receiver in DC2, 16 MB\n")

    print(f"{'scheme':<10} {'healthy chain':>14} {'blip on near segment':>22}")
    blip = (0, milliseconds(1), milliseconds(3))
    for scheme in ("baseline", "edge", "cascade"):
        healthy = run_cascade(replace(base, scheme=scheme))
        blipped = run_cascade(replace(base, scheme=scheme, blip=blip))
        print(f"{scheme:<10} {format_duration(healthy.ict_ps):>14} "
              f"{format_duration(blipped.ict_ps):>22}")

    print("\nOn a healthy chain the edge relay already wins: incast convergence")
    print("is a first-segment problem.  When the near segment blips, the")
    print("cascade repairs those losses from the DC0 relay over a 2 ms loop;")
    print("the edge-only design must repair them across the whole 22 ms path,")
    print("timeout ladder and all.")


if __name__ == "__main__":
    main()
