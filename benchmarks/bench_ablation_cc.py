"""Ablation: congestion-control sensitivity of the headline comparison.

The paper's senders are DCTCP-like; FW#1 notes the design interacts with
the congestion control in use.  We rerun the headline comparison with the
plain Reno-AIMD controller to check the proxy benefit is not an artifact
of DCTCP's ECN-proportional cuts.
"""

from dataclasses import replace

from benchmarks.conftest import run_cells

CCS = ("dctcp", "aimd")
SCHEMES = ("baseline", "streamlined")


def test_proxy_wins_under_both_ccs(benchmark, engine, reduced_scenario):
    """The headline holds for DCTCP-like *and* Reno-AIMD senders."""
    results = run_cells(benchmark, engine, {
        (cc, scheme): replace(
            reduced_scenario,
            scheme=scheme,
            transport=replace(reduced_scenario.transport, cc=cc),
        )
        for cc in CCS
        for scheme in SCHEMES
    })
    for cc in CCS:
        base = results[cc, "baseline"].ict_ps
        prox = results[cc, "streamlined"].ict_ps
        assert prox < 0.6 * base, f"proxy should win under {cc}"
