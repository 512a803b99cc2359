"""The traced pass: where the time goes, layer by layer, measured from outside.

Three instruments, none of them inside the program:

* spans (:mod:`benchmarks.ledger.spans`) around the harness's own calls;
* one unit under ``cProfile``, each function's self time and call count
  assigned to a layer by its file path (:mod:`benchmarks.ledger.layers`);
* boundary timings: public functions called directly in a loop.

A traced run has two parts.  The profile, the simulated counts and the run
hygiene describe the workload it was asked for.  The *panel* — the boundary
timings and the two engine probes (one unit of the sweep engines' grid, one
``openloop`` unit with saves and loads of its engine) — does not depend on
the workload: the contract has every traced run print every per-layer
metric as measured, so each run takes the panel afresh, and the copies are
repeat samples of one measurement (a claim on a panel metric cites their
median).  End-to-end numbers are never taken from a traced run.
"""

from __future__ import annotations

import cProfile
import json
import pickle
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro.config import paper_interdc_config, small_interdc_config
from repro.experiments.grid import scenario_from_doc, scenario_to_doc
from repro.experiments.parallel import ResultCache, scenario_key
from repro.experiments.runner import run_incast
from repro.experiments.service import WorkQueue, batch_fingerprint
from repro.metrics.config import MODE_EXACT, MODE_SKETCH, MetricsConfig
from repro.metrics.sink import make_distribution_sink
from repro.proxy.placement import pick_senders
from repro.schemes import SCHEME_REGISTRY, SchemeContext
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.simulator import Simulator
from repro.telemetry.options import RunOptions
from repro.topology.interdc import build_interdc

from benchmarks.ledger import calibration
from benchmarks.ledger.layers import (
    HOT_MODULES,
    LAYERS,
    OTHER_GROUPS,
    classify,
    module_of,
    other_group,
    per_layer_metrics,
)
from benchmarks.ledger.spans import Spans
from benchmarks.ledger.sweepgrid import SweepGrid
from benchmarks.ledger.workloads import (
    OUT_DIR,
    REPO_ROOT,
    OpenLoopWorkload,
    d256_interdc,
    incast_d256,
)

#: Calls per boundary timing.  A 272-server build and a 72-cell journal
#: round cost ~0.5 s each, so they get fewer; the rest get twenty.
CALLS = 20
CALLS_SLOW = 5
#: How many profile rows the trace file keeps (by self time).
PROFILE_ROWS = 200
#: Where an injected packet can end up, in the sanitizer's tally.  Trimmed
#: packets are not a fate: a trimmed packet goes on to one of these.
_PACKET_FATES = (
    "delivered", "stray", "corrupt_dropped", "queue_dropped", "down_dropped",
    "blackholed", "wire_lost", "in_transit", "queued",
)
#: The traced pass's own units run without kernel passes inside them.
_UNTIMED = calibration.Clock(calibrate=False)
#: Boundary timings are taken in seconds and reported in the metric's unit.
_PER_SECOND = {"ms": 1e3, "us": 1e6, "ns": 1e9}


def _median_of(calls: int, fn: Callable[[], float]) -> float:
    """Median of ``calls`` self-timed calls of ``fn`` (host seconds)."""
    return statistics.median(fn() for _ in range(calls))


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _bracketed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` between two readings of the box's speed; returns (value, scale).

    ``host seconds * scale`` are calibrated seconds for anything timed
    inside ``fn``.  The traced pass times calls too short to sample from
    inside, and its numbers are unbounded, so a bracket will do here.
    """
    before = calibration.reading()
    value = fn()
    return value, calibration.speed(before + calibration.reading())


def attribute(stats: dict, packets: int) -> tuple[dict[str, float], list[dict]]:
    """Fold a ``pstats`` table into layer metrics and trace-file rows."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    modules = dict.fromkeys(HOT_MODULES, 0.0)
    groups = dict.fromkeys(OTHER_GROUPS, 0.0)
    rows = []
    for (path, line, name), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = classify(path)
        self_time[layer] += tottime
        calls[layer] += ncalls
        module = module_of(path)
        if module in modules:
            modules[module] += tottime
        if layer == "other":
            group = other_group(path, name)
            if group is not None:
                groups[group] += tottime
        rows.append({
            "kind": "profile", "layer": layer, "module": module or path,
            "function": name, "line": line, "calls": ncalls, "self_s": tottime,
        })
    total = sum(self_time.values())
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_time[layer] / total
        metrics[f"{layer}.calls_per_kpkt"] = calls[layer] * 1000.0 / packets
    for module, seconds in modules.items():
        metrics[f"mod.{module}.self_share"] = seconds / total
    rows.sort(key=lambda row: -row["self_s"])
    rows = rows[:PROFILE_ROWS]
    rows.append({
        "kind": "other-groups",
        **{group: seconds / total for group, seconds in groups.items()},
    })
    return metrics, rows


def conservation_failures(unit: Any) -> list[str]:
    """Exact packet conservation of every sanitized cell of ``unit``."""
    problems = []
    for index, tally in enumerate(unit.extra["conservation"]):
        if tally is None:
            problems.append(f"cell {index}: no conservation tally")
            continue
        accounted = sum(tally[f"{fate}_packets"] for fate in _PACKET_FATES)
        if accounted != tally["injected_packets"]:
            problems.append(
                f"cell {index}: injected {tally['injected_packets']} packets, "
                f"accounted {accounted}"
            )
    return problems


class TracedPass:
    """Collects the per-layer metrics of one traced run."""

    def __init__(self, name: str, seed: int, workdir: Path, spans: Spans) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.spans = spans
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _account(self, unit: Any, label: str) -> None:
        self.attempted += unit.cells
        self.failed += unit.failed_cells
        self.failures.extend(f"{label}: {line}" for line in unit.failures)

    # -- engine probes -------------------------------------------------------

    def openloop_probe(self) -> None:
        """One openloop unit, then saves and loads of its last end-of-run engine."""
        workload = OpenLoopWorkload(self.seed, self.workdir)
        self.spans.unit_id = "probe:openloop"
        unit, scale = _bracketed(
            lambda: workload.run_unit(self.spans, _UNTIMED, keep_checkpoint=True)
        )
        self._account(unit, "openloop probe")
        path = workload.checkpoint
        try:
            run_s = sum(self.spans.durations("engine.run", "probe:openloop")) * scale
            engine = load_checkpoint(path)
            (save_s, load_s), scale = _bracketed(lambda: (
                _median_of(CALLS, lambda: _timed(lambda: save_checkpoint(path, engine))),
                _median_of(CALLS, lambda: _timed(lambda: load_checkpoint(path))),
            ))
            ckpt_bytes = path.stat().st_size
        finally:
            path.unlink(missing_ok=True)
        track = unit.extra["rss_track"]
        self.metrics.update({
            "workloads.jobs_per_s": unit.extra["jobs"] / run_s,
            "workloads.sim_s_per_host_s": unit.extra["horizon_s"] / run_s,
            "workloads.rss_growth_ratio": track[-1] / track[len(track) // 4 - 1],
            "sim.ckpt_save_ms": save_s * scale * 1e3,
            "sim.ckpt_load_ms": load_s * scale * 1e3,
            "sim.ckpt_kb": ckpt_bytes / 1024.0,
        })

    def sweep_probe(self) -> None:
        """One unit of the sweep engines' grid and one serial pass, read from their spans."""
        workload = SweepGrid(self.seed, self.workdir)
        self.spans.unit_id = "probe:sweep"
        (unit, serial), scale = _bracketed(lambda: (
            workload.run_unit(self.spans), workload.run_serial(self.spans),
        ))
        self._account(unit, "sweep probe")
        self._account(serial, "sweep probe (serial)")
        cells = workload.cells

        def span_s(name: str) -> float:
            return self.spans.durations(name, "probe:sweep")[0]

        for label, metric in (
            ("serial.cold", "serial"), ("pool.cold", "pool_cold"),
            ("pool.warm", "pool_warm"), ("queue.cold", "queue_cold"),
            ("queue.warm", "queue_warm"),
        ):
            self.metrics[f"experiments.{metric}_cells_per_s"] = (
                cells / (span_s(label) * scale)
            )
        self.metrics["experiments.pool_efficiency"] = (
            unit.extra["pool.cold.sim_wall_s"] / (2 * span_s("pool.cold"))
        )

    # -- boundary timings ----------------------------------------------------

    def boundaries(self) -> None:
        """Public functions called directly, each the median of its calls."""
        seconds, scale = _bracketed(self._boundary_calls)
        units = {name: unit for name, unit, _better in per_layer_metrics()}
        for name, host_s in seconds.items():
            self.metrics[name] = host_s * scale * _PER_SECOND[units[name]]

    def _boundary_calls(self) -> dict[str, float]:
        """Host seconds per call of each boundary, by metric name."""
        out: dict[str, float] = {}
        spans = self.spans
        spans.unit_id = "boundaries"

        def build(cfg) -> float:
            return _timed(lambda: build_interdc(Simulator(seed=self.seed), cfg))

        with spans.span("topology.build"):
            out["topology.build_ms.small"] = _median_of(
                CALLS, lambda: build(small_interdc_config()))
            out["topology.build_ms.paper"] = _median_of(
                CALLS, lambda: build(paper_interdc_config()))

        # The 272-server fabric: each call builds it, then wires one scheme.
        scenario = incast_d256(self.seed, self.workdir).scenarios[1]
        spec = SCHEME_REGISTRY.get(scenario.scheme)
        builds, wires = [], []
        with spans.span("topology.build.d256"):
            for _ in range(CALLS_SLOW):
                sim = Simulator(seed=self.seed)
                start = time.perf_counter()
                topo = build_interdc(
                    sim, d256_interdc().with_trimming(spec.trimming)
                )
                built = time.perf_counter()
                spec.wire(SchemeContext(
                    sim=sim, net=topo.net, fabrics=topo.fabrics,
                    scenario=scenario, receiver=topo.fabrics[1].hosts[0],
                    senders=pick_senders(topo.fabrics[0], scenario.degree),
                    sizes=scenario.flow_sizes(),
                    make_on_done=lambda i: (lambda _receiver: None),
                    make_on_fail=lambda i: (lambda _sender: None),
                ))
                wires.append(time.perf_counter() - built)
                builds.append(built - start)
        out["topology.build_ms.d256"] = statistics.median(builds)
        out["schemes.wire_ms.d256"] = statistics.median(wires)

        def schedule_noops(events: int = 20_000) -> float:
            sim = Simulator(seed=0)
            noop = int  # a C callable taking no arguments
            start = time.perf_counter()
            for delay in range(events):
                sim.schedule_call(delay, noop)
            sim.run()
            return (time.perf_counter() - start) / events

        with spans.span("sim.schedule"):
            out["sim.sched_ns_per_event"] = _median_of(CALLS, schedule_noops)

        def sink_adds(mode: str, adds: int = 5_000) -> float:
            sink = make_distribution_sink(MetricsConfig(mode=mode), seed=self.seed)
            start = time.perf_counter()
            for value in range(adds):
                sink.observe(float((value * 7919) % adds))
            return (time.perf_counter() - start) / adds

        with spans.span("metrics.sink"):
            for mode in (MODE_EXACT, MODE_SKETCH):
                out[f"metrics.sink_add_ns.{mode}"] = _median_of(
                    CALLS, lambda: sink_adds(mode))

        grid = SweepGrid(self.seed, self.workdir)
        scenarios = [cell.scenario for cell in grid.spec.expand()]
        cells = len(scenarios)
        with spans.span("expand"):
            out["experiments.expand_us_per_cell"] = _median_of(
                CALLS, lambda: _timed(lambda: list(grid.spec.expand())) / cells)
        with spans.span("key"):
            out["experiments.key_us"] = _median_of(CALLS, lambda: _timed(
                lambda: [scenario_key(s) for s in scenarios]) / cells)
        with spans.span("doc"):
            out["experiments.doc_roundtrip_us"] = _median_of(CALLS, lambda: _timed(
                lambda: [scenario_from_doc(scenario_to_doc(s)) for s in scenarios]
            ) / cells)

        keys = [scenario_key(s) for s in scenarios]
        result = run_incast(scenarios[0])
        self.metrics["experiments.result_pickle_kb"] = (
            len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) / 1024.0)
        cache = ResultCache(self.workdir / "cache-boundary")
        with spans.span("cache"):
            out["experiments.cache_put_us"] = _median_of(CALLS, lambda: _timed(
                lambda: [cache.put(key, result) for key in keys]) / cells)
            out["experiments.cache_get_us"] = _median_of(CALLS, lambda: _timed(
                lambda: [cache.get(key) for key in keys]) / cells)

        def journal_round() -> float:
            path = self.workdir / "journal-boundary.db"
            start = time.perf_counter()
            queue = WorkQueue(path)
            try:
                queue.initialize(batch_fingerprint(keys), keys)
                while leased := queue.lease("ledger", 1, 60.0):
                    queue.complete(leased[0][0], source="executed")
            finally:
                queue.close()
            elapsed = time.perf_counter() - start
            for leftover in self.workdir.glob("journal-boundary.db*"):
                leftover.unlink()
            return elapsed / cells

        with spans.span("journal"):
            out["experiments.journal_cell_us"] = _median_of(
                CALLS_SLOW, journal_round)
        return out

    # -- the workload's own unit ---------------------------------------------

    def finish(self, workload: Any, report: dict[str, Any]) -> None:
        """Profile one unit, take the panel, and fold everything into ``report``."""
        self.sweep_probe()
        self.boundaries()

        reference_s = report["end_to_end"]["unit_s"]["value"]
        self.spans.unit_id = "profiled"
        profiler = cProfile.Profile()

        def profiled() -> Any:
            start = time.perf_counter()
            profiler.enable()
            try:
                unit = workload.run_unit(Spans(), _UNTIMED)
            finally:
                profiler.disable()
            return unit, time.perf_counter() - start

        with self.spans.span("unit"):
            (unit, host_s), scale = _bracketed(profiled)
        self._account(unit, "profiled unit")
        if unit.digest != report["sim_digest"]:
            self.failures.append("profiled unit: digest differs from the timed units'")
        layer_metrics, rows = attribute(pstats.Stats(profiler).stats, unit.packets)
        self.metrics.update(layer_metrics)
        self.metrics["trace.overhead_ratio"] = host_s * scale / reference_s
        kpkt = unit.packets / 1000.0
        self.metrics.update({
            "sim.events_per_pkt": unit.events / unit.packets,
            "net.drops_per_kpkt": unit.drops / kpkt,
            "net.trims_per_kpkt": unit.trims / kpkt,
            "net.marks_per_kpkt": unit.marks / kpkt,
            "transport.retx_per_kpkt": unit.retransmissions / kpkt,
            "transport.timeouts": unit.timeouts,
            "net.max_queue_mb": unit.max_queue_bytes / 1e6,
        })
        self.metrics.update({f"run.{k}": v for k, v in report["run"].items()})

        if self.name == "incast-d8":
            self.spans.unit_id = "sanitized"
            with self.spans.span("unit"):
                sanitized = workload.run_unit(
                    self.spans, _UNTIMED, RunOptions(sanitize=True)
                )
            self._account(sanitized, "sanitized unit")
            self.failures.extend(
                f"sanitized unit: {line}" for line in conservation_failures(sanitized)
            )
            if sanitized.digest != report["sim_digest"]:
                self.failures.append("sanitized unit: digest differs")

        expected = [name for name, _unit, _better in per_layer_metrics()]
        missing = sorted(set(expected) ^ set(self.metrics))
        if missing:
            self.failures.append(f"per-layer metrics out of step: {missing}")
        trace_file = OUT_DIR / f"trace-{self.name}-seed{self.seed}.jsonl"
        self.spans.write(trace_file)
        with trace_file.open("a") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        report["per_layer"] = {name: self.metrics.get(name, 0.0) for name in expected}
        report["packets_profiled"] = unit.packets
        report["trace_file"] = str(trace_file.relative_to(REPO_ROOT))
        report["attempted"] += self.attempted
        report["failed"] += self.failed
        report["failures"] += self.failures
