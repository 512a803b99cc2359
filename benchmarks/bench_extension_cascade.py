"""Extension bench: cascaded relays on a multi-DC chain.

Beyond the paper's two-DC setting: DC0 -(1 ms)- DC1 -(10 ms)- DC2.  The
edge relay (the paper's design) already collapses the incast convergence
problem; the cascade's additional relay in DC1 pays off when a near
segment misbehaves — its losses are repaired over that segment's 2 ms RTT
instead of the 22 ms end-to-end loop.
"""

from dataclasses import replace

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.cascade import CascadeScenario, run_cascade
from repro.units import megabytes, milliseconds

from benchmarks.conftest import run_once

SCHEMES = ("baseline", "edge", "cascade")


def chain_scenario() -> CascadeScenario:
    # The small two-DC config, stretched to a line of three.
    chain = replace(
        small_interdc_config(),
        segment_delays_ps=(milliseconds(1), milliseconds(10)),
    )
    return CascadeScenario(
        degree=4, total_bytes=megabytes(16), chain=chain,
        transport=TransportConfig(payload_bytes=4096),
    )


def test_cascade_survives_near_segment_blip(benchmark):
    """Every scheme completes on the healthy chain and with segment 0
    blipped; under the blip, recovery locality puts the cascade far
    ahead of the edge relay, and the edge relay far ahead of baseline."""
    blip = (0, milliseconds(1), milliseconds(3))
    base = chain_scenario()
    results = run_once(benchmark, lambda: {
        (scheme, blipped): run_cascade(
            replace(base, scheme=scheme, blip=blip if blipped else None)
        )
        for scheme in SCHEMES
        for blipped in (False, True)
    })
    for cell, result in results.items():
        assert result.completed, cell
    icts = {scheme: results[scheme, True].ict_ps for scheme in SCHEMES}
    assert icts["cascade"] < 0.5 * icts["edge"] < 0.5 * icts["baseline"]
