"""Ablation: per-packet spraying vs per-flow ECMP (paper §4.1 uses spraying).

Spraying is what makes the paper's FW#1 reordering question hard; ECMP
pins each flow to one path and sidesteps reordering at the cost of
collision hot-spots.  We check the headline result is insensitive to the
choice, and quantify how much more reordering the spraying fabric feeds
the trimless detector.
"""

from dataclasses import replace

from benchmarks.conftest import run_cells

ROUTINGS = ("spray", "ecmp")


def test_headline_insensitive_to_routing(benchmark, engine, reduced_scenario):
    """The proxy wins regardless of multipath discipline."""
    results = run_cells(benchmark, engine, {
        (routing, scheme): replace(reduced_scenario, scheme=scheme, routing=routing)
        for routing in ROUTINGS
        for scheme in ("baseline", "streamlined")
    })
    for routing in ROUTINGS:
        base = results[routing, "baseline"].ict_ps
        prox = results[routing, "streamlined"].ict_ps
        assert prox < 0.5 * base, f"proxy should win under {routing}"


def test_spraying_degrades_gap_detection(benchmark, engine, reduced_scenario):
    """FW#1's routing interaction, measured: the trimless proxy's gap
    detector covers almost every drop when ECMP delivers flows in order,
    but spraying's reordering makes some losses indistinguishable from
    displacement and they slip through to the sender's RTO."""
    results = run_cells(benchmark, engine, {
        routing: replace(reduced_scenario, scheme="trimless", routing=routing)
        for routing in ROUTINGS
    })
    coverage = {
        routing: r.proxy_nacks_sent / max(r.counters.packets_dropped, 1)
        for routing, r in results.items()
    }
    assert coverage["ecmp"] > coverage["spray"]
    assert coverage["ecmp"] > 0.95
