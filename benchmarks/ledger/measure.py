"""The measuring process: one workload, one fresh interpreter, one client.

``python -m benchmarks.ledger.measure`` is what ``__main__`` spawns per
workload.  It is the single closed-loop load generator: the next unit
starts when the previous one returns.  The loop is

    warm-up unit, [unit, probes due]*

Every cell of a timed unit and every set-up probe has a calibration sampler
running inside it; the probes are spread evenly over the run, not bunched
at the start.  Results go to ``--out`` as JSON; stdout belongs to whatever
the program prints.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from benchmarks.ledger import calibration
from benchmarks.ledger.calibration import Clock
from benchmarks.ledger.spans import Spans
from benchmarks.ledger.workloads import OUT_DIR, REPO_ROOT, WORKLOADS, make_workload

#: How long one timed run measures unless told otherwise; BENCHMARK.json's
#: ``run_seconds`` is the same number.  With start-up, the warm-up unit and
#: the last unit's overshoot a run takes 40-50 s of wall time (44.5 s on
#: average over 120 runs), and the driver's 70 runs must fit 3420 s.
RUN_SECONDS = 35
#: A traced run times this many units: its numbers are shares and counts,
#: which need a reference time, not a steady one.
TRACE_UNITS = 2
#: Set-up probes per time-budgeted run.
PROBES = 9
#: A time-budgeted run keeps going past ``--seconds`` until it has this many
#: good units, so that a median and quartiles of units mean something ...
MIN_UNITS = 7
#: ... but starts no unit that would end past this multiple of its budget:
#: the driver's total time is a harder limit than the sample count.  When the
#: box runs below 0.73 of its quiet speed ``incast-d8`` stops at 6 units.
BUDGET_OVERRUN = 1.3


def child_env() -> dict[str, str]:
    """Environment of every process the ledger starts."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure(
    workload: str, seed: int, *, seconds: float | None, units: int | None,
    trace: bool,
) -> dict[str, Any]:
    """Run one workload in a fresh measuring process; return its report."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"report-{os.getpid()}.json"
    command = [
        sys.executable, "-m", "benchmarks.ledger.measure",
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if trace and units is None:
        units = TRACE_UNITS
    if units is not None:
        command += ["--units", str(units)]
    else:
        command += ["--seconds", str(seconds)]
    try:
        # The program's chatter goes to stderr so the last stdout line stays ours.
        start = time.perf_counter()
        subprocess.run(
            command, check=True, cwd=REPO_ROOT, env=child_env(),
            stdout=sys.stderr,
        )
        report = json.loads(out.read_text())
        # spawn to exit: what one run costs the driver's time budget
        report["wall_s"] = time.perf_counter() - start
        return report
    finally:
        out.unlink(missing_ok=True)


def run_probe(name: str, seed: int, workdir: Path) -> list[float]:
    """One set-up probe, spawn to exit; returns the passes of its sampler."""
    passes_file = workdir / "probe-passes.json"
    subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.probe", name, str(seed),
         str(workdir), str(passes_file)],
        check=True, cwd=REPO_ROOT, env=child_env(), stdout=sys.stderr,
    )
    return json.loads(passes_file.read_text())


def peak_rss_mb() -> float:
    """High-water mark of this process and of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and n: what ten-odd samples can support."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def timed_phase(
    name: str, seed: int, workload: Any, workdir: Path, spans: Spans,
    *, seconds: float | None, units: int | None,
) -> dict[str, Any]:
    """Warm up, then run timed units and set-up probes; return the report."""
    clock = Clock()
    failures: list[str] = []
    attempted = failed = 0

    def account(unit: Any, label: str, reference: str | None) -> None:
        nonlocal attempted, failed
        attempted += unit.cells
        failed += unit.failed_cells
        failures.extend(f"{label}: {line}" for line in unit.failures)
        if reference is not None and unit.digest != reference:
            failures.append(
                f"{label}: digest {unit.digest[:12]} != first unit's {reference[:12]}"
            )
            failed += unit.cells - unit.failed_cells

    spans.unit_id = "warmup"
    with spans.span("unit"):
        warm = workload.run_unit(spans, Clock(calibrate=False))
    account(warm, "warm-up", None)

    start = time.perf_counter()
    probes = done_units = 0

    def probe() -> None:
        nonlocal probes
        probes += 1
        spans.unit_id = clock.unit = f"probe{probes}"
        with spans.span("probe"):
            begin = time.perf_counter()
            passes = run_probe(name, seed, workdir)
            clock.record("probe", time.perf_counter() - begin, passes)

    def good_units() -> list[str]:
        """Ids of the timed units none of whose cells lacks a speed reading."""
        bad = {i["unit"] for i in clock.intervals if i["discarded"]}
        return [u for n in range(done_units) if (u := f"unit{n + 1}") not in bad]

    while True:
        done_units += 1
        spans.unit_id = clock.unit = f"unit{done_units}"
        unit_start = time.perf_counter()
        with spans.span("unit"):
            unit = workload.run_unit(spans, clock)
        account(unit, spans.unit_id, warm.digest)
        if units is not None:
            # Exactly N good units, re-running at most N/2 discarded ones.
            finished = (len(good_units()) >= units
                        or done_units >= units + units // 2)
            due = done_units
        else:
            now = time.perf_counter()
            share = (now - start) / seconds
            another_fits = (
                now - start + (now - unit_start) <= BUDGET_OVERRUN * seconds
            )
            finished = (share >= 1.0 and len(good_units()) >= MIN_UNITS
                        or not another_fits)
            due = math.ceil(PROBES * min(share, 1.0))
        while probes < min(due, PROBES):
            probe()
        if finished:
            break

    kept = good_units() or [f"unit{n + 1}" for n in range(done_units)]

    def unit_times(key: str) -> list[float]:
        """Each kept unit's time: the sum over its cells."""
        return [
            sum(i[key] for i in clock.intervals if i["unit"] == unit_id)
            for unit_id in kept
        ]

    def probe_times(key: str) -> list[float]:
        every = [i for i in clock.intervals if i["label"] == "probe"]
        good = [i for i in every if not i["discarded"]] or every
        return [i[key] for i in good]

    def rates(times: list[float]) -> list[float]:
        return [warm.packets / t for t in times]

    unit_s, raw_unit_s = unit_times("calibrated_s"), unit_times("work_s")
    every_pass = [p for i in clock.intervals for p in i["passes"]]
    calibrated_unit = summary(unit_s)
    return {
        "workload": name,
        "seed": seed,
        "uses_seed": workload.uses_seed,
        "sim_digest": warm.digest,
        "packets_per_unit": warm.packets,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {
            "setup_s": summary(probe_times("calibrated_s")),
            "unit_s": calibrated_unit,
            "pkts_per_s": summary(rates(unit_s)),
        },
        "raw": {
            "setup_s": summary(probe_times("work_s")),
            "unit_s": summary(raw_unit_s),
            "pkts_per_s": summary(rates(raw_unit_s)),
        },
        "run": {
            "units": done_units,
            "discarded_units": done_units - len(good_units()),
            "kernel_ms": statistics.median(every_pass) * 1e3,
            "speed": calibration.speed(every_pass),
            "raw_unit_s": statistics.median(raw_unit_s),
            "unit_iqr_rel": (
                (calibrated_unit["q3"] - calibrated_unit["q1"])
                / calibrated_unit["value"]
            ),
        },
        "intervals": clock.intervals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.measure")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spans = Spans(enabled=bool(args.trace))
        traced = None
        if args.trace:
            # Imported here: the timed runs never load the profiler.
            from benchmarks.ledger import trace

            traced = trace.TracedPass(args.workload, args.seed, workdir, spans)
            traced.openloop_probe()  # first: its RSS track needs a young heap
        workload = make_workload(args.workload, args.seed, workdir)
        report = timed_phase(
            args.workload, args.seed, workload, workdir, spans,
            seconds=args.seconds, units=args.units,
        )
        if traced is not None:
            traced.finish(workload, report)
        report["end_to_end"]["peak_rss_mb"] = {"value": peak_rss_mb()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
