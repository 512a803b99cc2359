"""Extension bench: incast under transient backbone failures.

The paper motivates inter-DC placement partly by reliability; here we
flap one backbone router's links mid-incast and check each scheme still
completes.
"""

from dataclasses import replace

from repro.faults import link_flap_plan
from repro.units import microseconds, milliseconds

from benchmarks.conftest import run_cells


def test_every_scheme_survives_a_backbone_blip(benchmark, engine, reduced_scenario):
    """Every scheme completes its incast through a 2 ms backbone flap."""
    flap = link_flap_plan("backbone:0", microseconds(500), milliseconds(2))
    run_cells(benchmark, engine, {
        scheme: replace(reduced_scenario, scheme=scheme, faults=flap)
        for scheme in ("baseline", "naive", "streamlined")
    })
