"""Ablation: ACK granularity — per-packet vs coalesced feedback.

The paper's senders react per ACK; coalescing ACKs (TCP delayed ACKs)
thins the feedback signal.  This ablation checks the proxy benefit is not
an artifact of per-packet ACKs and quantifies what coarser feedback costs
each scheme.
"""

from dataclasses import replace

from benchmarks.conftest import run_cells

ACK_EVERY = (1, 4, 8)
SCHEMES = ("baseline", "streamlined")


def test_proxy_wins_at_every_ack_granularity(benchmark, engine, reduced_scenario):
    """The headline comparison is robust to ACK coalescing."""
    icts = run_cells(benchmark, engine, {
        (ack_every, scheme): replace(
            reduced_scenario,
            scheme=scheme,
            transport=replace(reduced_scenario.transport, ack_every=ack_every),
        )
        for ack_every in ACK_EVERY
        for scheme in SCHEMES
    })
    for ack_every in ACK_EVERY:
        base = icts[ack_every, "baseline"].ict_ps
        prox = icts[ack_every, "streamlined"].ict_ps
        assert prox < 0.6 * base, f"proxy should win at ack_every={ack_every}"
