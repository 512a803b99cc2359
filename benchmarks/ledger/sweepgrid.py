"""The sweep engines' probe: 72 tiny cells through both engines, cold then warm.

Not a timed workload.  Two workers and a coordinating parent on two shared
cores, worker spawn, imports and 50-200 ms polling sleeps do not slow down by
the factor a single-threaded kernel does, so no calibration made its time
repeat to better than 9-15 % on this box (NOISE.md).  A bound that wide
judges nothing, so the traced pass runs one unit of it and reports the
engines' rates as per-layer metrics instead; its checks still fail the run.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.experiments.bakeoff import bakeoff_base_scenario
from repro.experiments.grid import SweepFold
from repro.experiments.parallel import ExperimentEngine, ResultCache
from repro.experiments.runner import IncastScenario
from repro.experiments.service import QueueEngine
from repro.experiments.sweeps import degree_sweep_spec, sweep_digest
from repro.units import kilobytes

from benchmarks.ledger.spans import Spans
from benchmarks.ledger.workloads import UnitResult, fail_incomplete

#: Worker processes of the pool and queue passes (= nproc on the defining box).
WORKERS = 2


class SweepGrid:
    """``degree_sweep_spec(…400 kB, degrees=(2,4,6), reps=8)``: 72 cells."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.spec = degree_sweep_spec(
            bakeoff_base_scenario(total_bytes=kilobytes(400)),
            degrees=(2, 4, 6),
            reps=8,
            seed0=seed,
        )
        self.cells = len(self.spec)

    def _run_pass(
        self, engine: ExperimentEngine, scenarios: list[IncastScenario],
        label: str, unit: UnitResult, *, warm: bool,
    ) -> str:
        """One engine pass over the grid; returns its sweep digest."""
        entries = engine.run_incasts_detailed(scenarios)
        fold = SweepFold(self.spec)
        good = []
        for index, entry in enumerate(entries):
            fold.add(index, entry)
            if fail_incomplete(unit, f"{label}[{index}]", entry):
                good.append(entry)
        stats = engine.stats
        if not warm:
            unit.count(good)
        elif stats.cache_hits != self.cells or stats.failures:
            unit.failures.append(
                f"{label}: {stats.cache_hits} cache hits of {self.cells}, "
                f"{stats.failures} failures"
            )
        unit.extra[f"{label}.sim_wall_s"] = stats.sim_wall_seconds
        return sweep_digest(fold.finish())

    def run_unit(self, spans: Spans) -> UnitResult:
        """Pool then queue engine, ``workers=2``: the four passes of a unit."""
        return self._run(
            spans, (("pool", ExperimentEngine), ("queue", QueueEngine)), WORKERS
        )

    def run_serial(self, spans: Spans) -> UnitResult:
        """The in-process reference (``workers=1``): cold, then warm."""
        return self._run(spans, (("serial", ExperimentEngine),), 1)

    def _run(self, spans: Spans, engines, workers: int) -> UnitResult:
        """Each engine cold then warm on its own fresh cache directory."""
        unit = UnitResult(cells=2 * len(engines) * self.cells)
        with spans.span("expand"):
            scenarios = [cell.scenario for cell in self.spec.expand()]
        digests = []
        for name, engine_class in engines:
            root = self.workdir / f"cache-{name}"
            shutil.rmtree(root, ignore_errors=True)
            try:
                for phase in ("cold", "warm"):
                    label = f"{name}.{phase}"
                    with spans.span(label):
                        engine = engine_class(workers=workers, cache=ResultCache(root))
                        digests.append(self._run_pass(
                            engine, scenarios, label, unit, warm=phase == "warm",
                        ))
            finally:
                shutil.rmtree(root, ignore_errors=True)
        if len(set(digests)) != 1:
            unit.failures.append(f"sweep_digest differs across passes: {digests}")
        unit.digest = digests[0]
        return unit
