"""The ledger's three workloads: what one *unit* of each does, and its checks.

A unit is one pass over all of a workload's cells (one simulator run
each).  Every workload exposes the same calls to the harness:

* ``setup()`` — what a fresh interpreter does before the first simulated
  event of the first cell; the set-up probe times a process doing only this.
* ``run_unit(spans, clock)`` — one unit, returning a :class:`UnitResult`
  with the exact simulated counts, a result digest and any failed checks.
  Each cell goes through ``clock.timed(label, fn)``, which is where the
  harness times it.
* ``cells`` — how many operations a unit attempts.
* ``uses_seed`` — whether ``--seed`` reaches the inputs.

Inputs are generated from ``--seed`` here; the program under test only
ever sees scenarios and engine configs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import competitors
from repro.analysis.races import result_digest
from repro.config import TransportConfig, paper_interdc_config
from repro.experiments.parallel import RunFailure
from repro.experiments.runner import IncastScenario, run_incast
from repro.schemes import SCHEME_REGISTRY
from repro.sim.checkpoint import load_checkpoint
from repro.telemetry.options import RunOptions
from repro.units import megabytes, seconds
from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig

from benchmarks.ledger.calibration import Clock
from benchmarks.ledger.spans import Spans

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent

#: Everything a run writes (cache dirs, journals, checkpoints, reports and
#: trace files) lives under here: inside the checkout, named in the root
#: ``.gitignore``.  Each measuring process works in its own sub-directory.
OUT_DIR = LEDGER_DIR / "out"

#: One scheme per wiring plane for the many-flow regime.
D256_SCHEMES = ("baseline", "streamlined", "repflow", "pulser-dist")


@dataclass
class UnitResult:
    """What one unit produced, in exact simulated counts."""

    cells: int
    packets: int = 0
    events: int = 0
    digest: str = ""
    #: one line per failed check; a cell that did not complete is a check
    failures: list[str] = field(default_factory=list)
    failed_cells: int = 0
    drops: int = 0
    trims: int = 0
    marks: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    max_queue_bytes: int = 0
    #: workload-specific numbers the traced pass turns into layer metrics
    extra: dict[str, Any] = field(default_factory=dict)

    def count(self, results: list[Any]) -> None:
        """Fold simulated counters of incast results into the unit totals."""
        for result in results:
            c = result.counters
            self.packets += c.tx_packets
            self.events += result.events_executed
            self.drops += c.packets_dropped
            self.trims += c.packets_trimmed
            self.marks += c.packets_marked
            self.retransmissions += result.retransmissions
            self.timeouts += result.timeouts
            self.max_queue_bytes = max(self.max_queue_bytes, c.max_queue_bytes)


def fail_incomplete(unit: UnitResult, label: str, entry: Any) -> bool:
    """Account one cell's outcome; True when it is a usable result."""
    if isinstance(entry, RunFailure):
        unit.failures.append(f"{label}: {entry}")
    elif not entry.completed:
        unit.failures.append(f"{label}: did not complete")
    else:
        return True
    unit.failed_cells += 1
    return False


class IncastWorkload:
    """Closed incast cells run one after another through ``run_incast``."""

    uses_seed = True

    def __init__(self, scenarios: list[IncastScenario]) -> None:
        self.scenarios = scenarios
        self.cells = len(scenarios)

    def setup(self) -> None:
        run_incast(replace(self.scenarios[0], horizon_ps=1))

    def run_unit(
        self, spans: Spans, clock: Clock, options: RunOptions | None = None
    ) -> UnitResult:
        unit = UnitResult(cells=self.cells)
        results = []
        for scenario in self.scenarios:
            with spans.span(f"cell:{scenario.scheme}"), spans.span("run"):
                result = clock.timed(
                    f"cell:{scenario.scheme}", lambda: run_incast(scenario, options)
                )
            if fail_incomplete(unit, scenario.scheme, result):
                results.append(result)
        unit.count(results)
        unit.digest = hashlib.sha256(
            "\n".join(result_digest(r) for r in results).encode()
        ).hexdigest()
        unit.extra["conservation"] = [r.conservation for r in results]
        return unit


def incast_d8(seed: int, workdir: Path) -> IncastWorkload:
    """The BENCH_hotpath.json scenario under all registered schemes."""
    del workdir  # incast cells write nothing
    base = IncastScenario(
        degree=8,
        total_bytes=megabytes(40),
        interdc=paper_interdc_config(),
        transport=TransportConfig(payload_bytes=8192),
        seed=seed,
    )
    return IncastWorkload(
        [replace(base, scheme=name) for name in SCHEME_REGISTRY.names()]
    )


def d256_interdc():
    """The paper backbone over two 272-server fabrics (degree 256 fits)."""
    paper = paper_interdc_config()
    return replace(
        paper,
        fabric=replace(paper.fabric, spines=8, leaves=16, servers_per_leaf=17),
    )


def incast_d256(seed: int, workdir: Path) -> IncastWorkload:
    """Many flows of four packets each: build and per-flow state dominate."""
    del workdir
    base = IncastScenario(
        degree=256,
        total_bytes=megabytes(8),
        interdc=d256_interdc(),
        transport=TransportConfig(payload_bytes=8192),
        seed=seed,
    )
    return IncastWorkload([replace(base, scheme=name) for name in D256_SCHEMES])


#: The open-loop cell's engine seed.  ``--seed`` does not reach it: Poisson
#: arrivals with Pareto(1.1) sizes make the same horizon cost anything from
#: 0.4 s to 3.4 s of host time per 6 simulated seconds (119 k to 756 k port
#: transmissions over engine seeds 0..71), and seeds matched on packets
#: still differ by +-11 % in time and +-9 % in peak RSS.  No bound could see
#: through that, so the input is held fixed, ``uses_seed`` says so in every
#: report, and the seed varies the two incast workloads.
OPENLOOP_ENGINE_SEED = 0


class OpenLoopWorkload:
    """One 12 s open-loop horizon, checkpointed every half second, then restored."""

    cells = 1
    uses_seed = False

    def __init__(self, seed: int, workdir: Path) -> None:
        del seed  # see OPENLOOP_ENGINE_SEED
        self.checkpoint = workdir / "openloop.ckpt"
        self.config = WorkloadEngineConfig(
            scheme="streamlined",
            horizon_ps=seconds(12),
            segment_ps=seconds(0.5),
            seed=OPENLOOP_ENGINE_SEED,
        )

    def setup(self) -> None:
        OpenLoopEngine(self.config)

    def run_unit(
        self, spans: Spans, clock: Clock, keep_checkpoint: bool = False
    ) -> UnitResult:
        """One run to the horizon, then a restore of its last checkpoint.

        ``keep_checkpoint`` leaves the final file at ``self.checkpoint`` for
        the traced pass, which times saves and loads of that engine.
        """
        unit = UnitResult(cells=self.cells)
        try:
            with spans.span("cell:0"):
                engine, result, restored = clock.timed(
                    "cell:0", lambda: self._run_cell(spans)
                )
        finally:
            if not keep_checkpoint:
                self.checkpoint.unlink(missing_ok=True)
        if restored.digest != result.digest:
            unit.failures.append(
                f"restored digest {restored.digest[:12]} != "
                f"uninterrupted {result.digest[:12]}"
            )
        if result.jobs_completed == 0 or result.completion < 0.9:
            unit.failures.append(
                f"completion {result.completion:.3f} ({result.jobs_completed} jobs)"
            )
        unit.failed_cells = int(bool(unit.failures))
        counters = result.counters
        unit.packets = counters.tx_packets
        unit.events = engine.sim.events_executed
        unit.drops = counters.packets_dropped
        unit.trims = counters.packets_trimmed
        unit.marks = counters.packets_marked
        unit.max_queue_bytes = counters.max_queue_bytes
        unit.digest = result.digest
        unit.extra.update(
            jobs=result.jobs_completed,
            horizon_s=self.config.horizon_ps / 1e12,
            rss_track=[rss for _, rss in result.rss_track],
        )
        return unit

    def _run_cell(self, spans: Spans):
        with spans.span("engine.run"):
            engine = OpenLoopEngine(self.config)
            result = engine.run(checkpoint_path=self.checkpoint)
        with spans.span("ckpt.load"):
            restored = load_checkpoint(self.checkpoint).result()
        return engine, result, restored


#: name -> (factory, why).  The reasons are repeated in BENCHMARK.json.
WORKLOADS = {
    "incast-d8": (
        incast_d8,
        "few long flows under all 8 schemes: the per-packet path "
        "(port, scheduler, queues, sender) does the work, build is ~10 %",
    ),
    "incast-d256": (
        incast_d256,
        "256 flows of 4 packets on a 272-server fabric: topology build, "
        "routing and per-flow state do the work, the per-packet path little",
    ),
    "openloop": (
        OpenLoopWorkload,
        "12 s of open-loop tenant arrivals with 24 checkpoint saves and a "
        "restore: flow churn, idle gaps, metric sinks and checkpoint I/O on "
        "top of the per-packet path",
    ),
}


def make_workload(name: str, seed: int, workdir: Path):
    """Install the competitors and build workload ``name`` from ``seed``.

    ``workdir`` is where the workload's units put their checkpoints; the
    caller creates and removes it.
    """
    competitors.install()
    factory, _why = WORKLOADS[name]
    return factory(seed, workdir)
