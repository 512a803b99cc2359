"""Automated claim-by-claim scorecard against the paper.

Encodes each of the paper's checkable claims as a predicate over fresh
simulation/model runs and prints a PASS/FAIL table with the evidence —
the executable version of EXPERIMENTS.md.  Run it with::

    python -m repro verdicts          # reduced scale (~1 min)
    python -m repro verdicts --full   # paper-scale parameters

Claims are *shape* claims (who wins, where crossovers fall, which medians
match), mirroring how the reproduction is scoped in DESIGN.md.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.config import TransportConfig, paper_interdc_config, small_interdc_config
from repro.experiments.report import render_table
from repro.experiments.runner import IncastScenario, run_incast
from repro.hoststack import (
    ebpf_forward_path_pipeline,
    measure_pipeline,
    userspace_proxy_pipeline,
    wire_to_wire_pipeline,
)
from repro.units import format_duration, megabytes, microseconds, milliseconds


@dataclass
class Verdict:
    """One checked claim."""

    claim: str
    source: str  # where the paper states it
    passed: bool
    evidence: str


class Scorecard:
    """Collects verdicts and renders the table."""

    def __init__(self) -> None:
        self.verdicts: list[Verdict] = []

    def check(self, claim: str, source: str, passed: bool, evidence: str) -> None:
        """Record one verdict."""
        self.verdicts.append(Verdict(claim, source, bool(passed), evidence))

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.passed)

    def render(self) -> str:
        """The scorecard as a text table."""
        rows = [
            ["PASS" if v.passed else "FAIL", v.claim, v.source, v.evidence]
            for v in self.verdicts
        ]
        table = render_table(["verdict", "claim", "paper", "evidence"], rows)
        return f"{table}\n\n{self.passed}/{len(self.verdicts)} claims reproduced"


def _ict(scenario: IncastScenario, **overrides) -> int:
    return run_incast(replace(scenario, **overrides)).ict_ps


def evaluate(full: bool = False) -> Scorecard:
    """Run every check and return the scorecard."""
    if full:
        base = IncastScenario(
            degree=4, total_bytes=megabytes(100),
            transport=TransportConfig(payload_bytes=8192),
            interdc=paper_interdc_config(),
        )
        small_size, parity_rel = megabytes(20), 0.05
    else:
        base = IncastScenario(
            degree=4, total_bytes=megabytes(24),
            transport=TransportConfig(payload_bytes=4096),
            interdc=small_interdc_config(),
        )
        small_size, parity_rel = megabytes(2), 0.15

    card = Scorecard()

    # -- headline -------------------------------------------------------------
    # The two runs the mechanism checks below read too.
    base_run = run_incast(base)
    prox_run = run_incast(replace(base, scheme="streamlined"))
    baseline = base_run.ict_ps
    naive = _ict(base, scheme="naive")
    streamlined = prox_run.ict_ps
    card.check(
        "adding a proxy hop reduces incast completion time",
        "abstract / §4.2",
        naive < baseline and streamlined < baseline,
        f"baseline {format_duration(baseline)}, naive {format_duration(naive)}, "
        f"streamlined {format_duration(streamlined)}",
    )
    card.check(
        "the reduction is large (tens of percent, not marginal)",
        "§4.2 (70.6%/75.7% avg)",
        naive < 0.6 * baseline and streamlined < 0.6 * baseline,
        f"naive -{(1 - naive / baseline) * 100:.1f}%, "
        f"streamlined -{(1 - streamlined / baseline) * 100:.1f}%",
    )

    # -- size crossover ----------------------------------------------------------
    small_base = _ict(base, total_bytes=small_size)
    small_prox = _ict(base, scheme="streamlined", total_bytes=small_size)
    on_par = abs(small_prox - small_base) <= parity_rel * small_base
    card.check(
        "incasts without first-RTT loss gain nothing from the proxy",
        "§4.2 Fig. 2 (Right), 20MB point",
        on_par,
        f"at {small_size / 1e6:g}MB: baseline {format_duration(small_base)}, "
        f"streamlined {format_duration(small_prox)}",
    )

    # -- latency trend -------------------------------------------------------------
    lat_lo = base.interdc.with_backbone_delay(microseconds(1))
    lo_base = _ict(base, interdc=lat_lo)
    lo_naive = _ict(base, scheme="naive", interdc=lat_lo)
    lat_hi = base.interdc.with_backbone_delay(milliseconds(10))
    hi_base = _ict(base, interdc=lat_hi)
    hi_naive = _ict(base, scheme="naive", interdc=lat_hi)
    red_lo = 1 - lo_naive / lo_base
    red_hi = 1 - hi_naive / hi_base
    card.check(
        "the saving grows with long-haul link latency",
        "§4.2 Fig. 3",
        red_hi > max(red_lo, 0.5),
        f"reduction {red_lo * 100:+.1f}% at 1us vs {red_hi * 100:+.1f}% at 10ms",
    )

    # -- degree trend ---------------------------------------------------------------
    lo_deg_base = _ict(base, degree=2, total_bytes=small_size * 4)
    lo_deg_prox = _ict(base, scheme="streamlined", degree=2, total_bytes=small_size * 4)
    hi_deg_base = _ict(base, degree=6, total_bytes=small_size * 4)
    hi_deg_prox = _ict(base, scheme="streamlined", degree=6, total_bytes=small_size * 4)
    red_lo_deg = 1 - lo_deg_prox / lo_deg_base
    red_hi_deg = 1 - hi_deg_prox / hi_deg_base
    card.check(
        "the benefit grows with incast degree",
        "§4.2 Fig. 2 (Left)",
        red_hi_deg > red_lo_deg,
        f"reduction {red_lo_deg * 100:+.1f}% at degree 2 vs "
        f"{red_hi_deg * 100:+.1f}% at degree 6",
    )

    # -- mechanism -------------------------------------------------------------------
    card.check(
        "streamlined converts congestion to trims + early NACKs (no drops)",
        "§3 Insight 3 / §4.1",
        prox_run.counters.packets_trimmed > 0
        and prox_run.counters.packets_dropped == 0
        and prox_run.proxy_nacks_sent == prox_run.counters.packets_trimmed,
        f"{prox_run.counters.packets_trimmed} trims, "
        f"{prox_run.proxy_nacks_sent} proxy NACKs, 0 drops",
    )
    card.check(
        "the direct baseline suffers timeouts; the proxies avoid them",
        "§2 (long feedback loop) / §4.2",
        base_run.timeouts >= 1 and prox_run.timeouts == 0,
        f"baseline {base_run.timeouts} timeouts, streamlined {prox_run.timeouts}",
    )

    # -- host-stack anchors -------------------------------------------------------------
    user = measure_pipeline(userspace_proxy_pipeline(), 60_000, seed=0)
    card.check(
        "user-space proxy p99 per-packet latency ~ 359.17us",
        "§5 Fig. 4",
        abs(user.percentile_us(99) - 359.17) / 359.17 < 0.10,
        f"measured p99 = {user.percentile_us(99):.2f}us",
    )
    ebpf = measure_pipeline(ebpf_forward_path_pipeline(), 60_000, seed=0)
    card.check(
        "eBPF lower-bound median ~ 0.42us",
        "§5 Fig. 5a",
        abs(ebpf.percentile_us(50) - 0.42) / 0.42 < 0.05,
        f"measured median = {ebpf.percentile_us(50):.2f}us",
    )
    wire = measure_pipeline(wire_to_wire_pipeline(), 60_000, seed=0)
    card.check(
        "wire-to-wire upper-bound median ~ 325.92us (stack dwarfs proxy logic)",
        "§5 Fig. 5b",
        abs(wire.percentile_us(50) - 325.92) / 325.92 < 0.05
        and ebpf.percentile_us(50) / wire.percentile_us(50) < 0.01,
        f"measured median = {wire.percentile_us(50):.2f}us; "
        f"eBPF share {ebpf.percentile_us(50) / wire.percentile_us(50) * 100:.2f}%",
    )
    return card


#: The name :mod:`repro.experiments` re-exports :func:`evaluate` under.
evaluate_claims = evaluate


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    args = parser.parse_args(argv)
    card = evaluate(full=args.full)
    print(card.render())

