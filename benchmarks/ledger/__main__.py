"""``python -m benchmarks.ledger``: run the ledger and print every metric.

    python -m benchmarks.ledger [--workload W] [--seed S] [--seconds R | --units N]
                                [--trace [0|1]]
    python -m benchmarks.ledger --selfcheck N [--workload W] [--seed S] [--seconds R]

Each workload runs in its own fresh measuring process
(:mod:`benchmarks.ledger.measure`).  ``--trace 0`` (the default) takes the
end-to-end numbers, ``--trace 1`` takes the per-layer numbers in a separate
traced run, and a bare ``--trace`` does one after the other.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.ledger: no program to measure at {REPO_ROOT / 'src' / 'repro'}")
# The checkout's own sources win over any installed copy of repro.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.ledger import calibration  # noqa: E402
from benchmarks.ledger.layers import END_TO_END, per_layer_metrics  # noqa: E402
from benchmarks.ledger.measure import RUN_SECONDS, measure  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402


def end_to_end_metrics(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {
        name: {"value": report["end_to_end"][name]["value"], "unit": unit}
        for name, unit, _better, _bound in END_TO_END
    }


def layer_metrics(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {
        name: {"value": report["per_layer"][name], "unit": unit}
        for name, unit, _better in per_layer_metrics()
    }


def print_report(report: dict[str, Any], trace: bool) -> None:
    """Every metric by name, with its unit."""
    name = report["workload"]
    seed = (f"seed={report['seed']}" if report["uses_seed"]
            else f"seed={report['seed']} NOT APPLIED: this workload's inputs are fixed")
    print(f"== {name}  {seed}  sim_digest={report['sim_digest'][:16]}"
          f"  packets/unit={report['packets_per_unit']}")
    print(f"   operations: {report['attempted']} attempted, {report['failed']} failed")
    if trace:
        for metric, entry in layer_metrics(report).items():
            print(f"   {metric:40s} {entry['value']:14.6g} {entry['unit']}")
        print(f"   spans and profile: {report['trace_file']}")
    else:
        for metric, unit, _better, bound in END_TO_END:
            s = report["end_to_end"][metric]
            quartiles = (
                f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}" if "n" in s else ""
            )
            raw = report["raw"].get(metric)
            raw_text = f"  raw={raw['value']:.6g}" if raw else ""
            print(f"   {metric:12s} {s['value']:12.6g} {unit:6s}"
                  f"{quartiles}{raw_text}  bound={bound:.0%}")
        run = report["run"]
        print("   run: " + "  ".join(f"{k}={v:.4g}" for k, v in run.items())
              + f"  kernel=v{calibration.KERNEL_VERSION} K_REF={calibration.K_REF}")
    for line in report["failures"]:
        print(f"   CHECK FAILED: {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long a timed run measures")
    parser.add_argument("--units", type=int, default=None,
                        help="time exactly N units instead of --seconds")
    parser.add_argument("--trace", nargs="?", default="0", const="both",
                        choices=["0", "1", "both"],
                        help="0: end-to-end run; 1: traced run; bare: both")
    parser.add_argument("--selfcheck", type=int, default=None, metavar="N",
                        help="run N sets of the same code and print the noise table")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.selfcheck is not None:
        if args.units is not None or args.trace != "0":
            parser.error("--selfcheck takes timed runs: no --units, no --trace")
        from benchmarks.ledger.selfcheck import selfcheck

        return selfcheck(args.selfcheck, names, args.seed, args.seconds)

    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        for trace in passes:
            report = measure(
                name, args.seed, seconds=args.seconds, units=args.units, trace=trace,
            )
            print_report(report, trace)
            entries = layer_metrics(report) if trace else end_to_end_metrics(report)
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in entries.items()})
            attempted += report["attempted"]
            failed += report["failed"]
            correct = correct and not report["failures"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
