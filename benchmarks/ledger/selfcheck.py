"""``--selfcheck N``: do N sets of runs of the same code agree?

A set is ``RUNS_PER_SET`` timed runs of every workload, one per seed
``S .. S+RUNS_PER_SET-1``; every set uses the same seeds, so two sets differ
by noise alone.  A set's value of a metric is the median over its runs, as
the driver takes it.  For every end-to-end metric x workload the table
gives each set's median and two figures, calibrated and raw (host seconds)
side by side so the value of calibration on each workload is on record:

* ``gap`` — the largest distance between two sets' medians, over their
  median.  It must be at most half the metric's bound.
* ``spread`` — the widest interquartile distance of the runs inside one set,
  as a share of that set's median: what the driver computes over ten runs
  with ten seeds, so it includes what the seeds do to the inputs.  It must be
  within the bound (``wide``) and should be within a third of it (``ok``);
  ``setup_s`` is judged on its gap alone, as by the driver.

``NOISY`` rows, and counts that differ between two runs of one seed, fail
the command.  The table goes to ``out/selfcheck.md``; NOISE.md is a
committed copy with commentary.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from benchmarks.ledger import calibration
from benchmarks.ledger.layers import END_TO_END
from benchmarks.ledger.measure import measure
from benchmarks.ledger.workloads import OUT_DIR

#: Timed runs of each workload in one set.
RUNS_PER_SET = 10


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the driver's test)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def figures(sets: list[list[float]]) -> dict[str, Any]:
    """Each set's median, the gap between the medians, the widest spread."""
    medians = [statistics.median(values) for values in sets]
    return {
        "medians": medians,
        "gap": (max(medians) - min(medians)) / statistics.median(medians),
        "spread": max(spread(values) for values in sets),
    }


def verdict(metric: str, gap: float, spread_: float, bound: float) -> str:
    if gap > bound / 2 or (metric != "setup_s" and spread_ > bound):
        return "NOISY"
    if metric != "setup_s" and spread_ > bound / 3:
        return "wide"
    return "ok"


def table(reports: dict[str, list[list[dict[str, Any]]]]) -> tuple[list[str], bool]:
    """Markdown lines of the noise table, and whether every row passed.

    ``reports[workload][set][run]`` is one run's report.
    """
    lines = [
        "| workload | metric | set medians | gap | spread | raw gap | raw spread "
        "| bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    passed = True
    for name, sets in reports.items():
        for metric, _unit, _better, bound in END_TO_END:
            cal = figures([[r["end_to_end"][metric]["value"] for r in runs]
                           for runs in sets])
            medians = " ".join(f"{m:.5g}" for m in cal["medians"])
            row = f"| {name} | {metric} | {medians} | {cal['gap']:.1%} | {cal['spread']:.1%} |"
            if metric in sets[0][0]["raw"]:
                raw = figures([[r["raw"][metric]["value"] for r in runs]
                               for runs in sets])
                row += f" {raw['gap']:.1%} | {raw['spread']:.1%} |"
            else:
                row += " – | – |"
            word = verdict(metric, cal["gap"], cal["spread"], bound)
            passed = passed and word != "NOISY"
            lines.append(f"{row} {bound:.0%} | {word} |")
    return lines, passed


def count_failures(reports: dict[str, list[list[dict[str, Any]]]]) -> list[str]:
    """Counts that differ between two sets' runs of the same workload and seed."""
    problems = []
    for name, sets in reports.items():
        for runs in sets[1:]:
            for first, again in zip(sets[0], runs):
                for key in ("sim_digest", "packets_per_unit"):
                    if first[key] != again[key]:
                        problems.append(
                            f"{name} seed {first['seed']}: {key} {first[key]} "
                            f"then {again[key]}"
                        )
    return problems


def selfcheck(sets: int, names: list[str], seed: int, seconds: float) -> int:
    if sets < 4:
        raise SystemExit("--selfcheck needs at least 4 sets")
    reports: dict[str, list[list[dict[str, Any]]]] = {
        name: [[] for _ in range(sets)] for name in names
    }
    failures = []
    for index in range(sets):
        for run in range(RUNS_PER_SET):
            for name in names:
                report = measure(
                    name, seed + run, seconds=seconds, units=None, trace=False
                )
                reports[name][index].append(report)
                failures += report["failures"]
                values = "  ".join(
                    f"{metric}={report['end_to_end'][metric]['value']:.5g}"
                    for metric, *_ in END_TO_END
                )
                print(f"set {index + 1}/{sets} run {run + 1}/{RUNS_PER_SET} "
                      f"{name}: {values}  speed={report['run']['speed']:.2f}"
                      f"  wall={report['wall_s']:.1f}s", flush=True)
    failures += count_failures(reports)
    lines, passed = table(reports)
    walls = [r["wall_s"] for by_set in reports.values() for runs in by_set for r in runs]
    header = (
        f"{sets} sets of {RUNS_PER_SET} runs per workload, seeds "
        f"{seed}..{seed + RUNS_PER_SET - 1} in every set, {seconds:g} s per run "
        f"({statistics.mean(walls):.1f} s of wall time, at most {max(walls):.1f} s), "
        f"kernel v{calibration.KERNEL_VERSION}, K_REF {calibration.K_REF * 1e3:g} ms"
    )
    for index in range(sets):
        speeds = [r["run"]["speed"] for by_set in reports.values() for r in by_set[index]]
        lines.append(
            f"\nset {index + 1}: the box ran at {min(speeds):.2f}-{max(speeds):.2f} of "
            f"its quiet speed (median {statistics.median(speeds):.2f})"
        )
    text = "\n".join([header, "", *lines])
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "selfcheck.md").write_text(text + "\n")
    (OUT_DIR / "selfcheck.json").write_text(json.dumps(reports))
    for line in failures:
        print(f"CHECK FAILED: {line}")
    return 0 if passed and not failures else 1
