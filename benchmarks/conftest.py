"""Shared benchmark helpers.

Benchmarks regenerate the paper's figures and the §5 ablations at
*reduced* scale (the small two-DC fabric, tens of MB) so the whole suite
runs in minutes; the ``--full`` path of ``python -m repro figures``
reproduces the paper-scale numbers recorded in EXPERIMENTS.md.  Each
test is one claim: it runs every cell the claim needs once, under the
benchmark timer, and asserts that every cell completed and the claim
holds.  Cells are run through one session-wide result cache, so a cell
two claims share (the reduced-scale baseline, say) is simulated once.
"""

from __future__ import annotations

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ExperimentEngine, ResultCache
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


@pytest.fixture(scope="session")
def engine(tmp_path_factory) -> ExperimentEngine:
    """The serial engine every bench cell runs on, cached for the session."""
    return ExperimentEngine(cache=ResultCache(tmp_path_factory.mktemp("cells")))


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_sweep(benchmark, engine, spec):
    """Run a figure's sweep grid once; every scheme at every point must complete.

    Returns the ``SweepPoint`` list.
    """
    points = run_once(benchmark, lambda: run_grid(spec, engine=engine))
    for point in points:
        for scheme, summary in point.schemes.items():
            assert summary.all_completed, (point.label, scheme)
    return points


def run_cells(benchmark, engine, cells):
    """Run every scenario of ``{label: scenario}`` once; each must complete.

    Returns ``{label: IncastResult}``.
    """
    results = run_once(benchmark, lambda: engine.run_incasts(list(cells.values())))
    for label, result in zip(cells, results):
        assert result.completed, label
    return dict(zip(cells, results))
