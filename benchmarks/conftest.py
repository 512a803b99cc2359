"""Shared benchmark helpers.

Benchmarks regenerate the paper's figures at *reduced* scale (the small
two-DC fabric, tens of MB) so the whole suite runs in minutes; the
``--full`` path of ``python -m repro figures`` reproduces the
paper-scale numbers recorded in EXPERIMENTS.md.  Every benchmark stores
its measured results in ``benchmark.extra_info`` so the JSON output
carries the reproduced figure data alongside the timings.
"""

from __future__ import annotations

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.runner import IncastScenario
from repro.units import megabytes


@pytest.fixture()
def reduced_scenario() -> IncastScenario:
    """The shared reduced-scale scenario benchmarks derive from."""
    return IncastScenario(
        degree=4,
        total_bytes=megabytes(24),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
