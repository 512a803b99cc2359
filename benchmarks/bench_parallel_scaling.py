"""Serial vs parallel sweep throughput (the execution-engine benchmark).

Runs the same 4-point, 4-rep degree sweep twice — once serially, once
fanned over a 4-worker process pool — verifies the two sweeps produce
**byte-identical summaries** (`sweep_digest`), and reports wall-clock,
throughput, and speedup.  On a machine with >= 4 usable cores the pool
should finish the sweep at least ~2x faster than the serial pass; on a
single-core runner the numbers are still reported but no speedup is
asserted (the pool can't beat physics).

Run standalone for the human-readable report::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py

or through pytest-benchmark like the other benches::

    pytest benchmarks/bench_parallel_scaling.py --benchmark-only
"""

from __future__ import annotations

import os
import time

from repro.config import TransportConfig, small_interdc_config
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.runner import IncastScenario
from repro.experiments.sweeps import SweepPoint, degree_sweep_spec, sweep_digest
from repro.units import megabytes

DEGREES = (2, 3, 4, 5)  # 4 sweep points
REPS = 4
SCHEMES = ("baseline", "streamlined")
PARALLEL_WORKERS = 4


def _scenario() -> IncastScenario:
    return IncastScenario(
        degree=4,
        total_bytes=megabytes(8),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


def _sweep(workers: int) -> list[SweepPoint]:
    return run_grid(
        degree_sweep_spec(_scenario(), DEGREES, SCHEMES, reps=REPS),
        engine=ExperimentEngine(workers=workers),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def measure_scaling() -> dict:
    """Run both passes and return the comparison record."""
    runs = len(DEGREES) * REPS * len(SCHEMES)

    start = time.perf_counter()
    serial = _sweep(workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = _sweep(workers=PARALLEL_WORKERS)
    parallel_s = time.perf_counter() - start

    return {
        "runs": runs,
        "cpus": _usable_cpus(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "serial_runs_per_s": runs / serial_s,
        "parallel_runs_per_s": runs / parallel_s,
        "speedup": serial_s / parallel_s,
        "serial_digest": sweep_digest(serial),
        "parallel_digest": sweep_digest(parallel),
        "identical": sweep_digest(serial) == sweep_digest(parallel),
    }


def test_parallel_scaling(benchmark):
    """Benchmark the comparison; summaries must match bit-for-bit."""
    record = benchmark.pedantic(measure_scaling, rounds=1, iterations=1)
    benchmark.extra_info.update(record)
    assert record["identical"], "parallel sweep diverged from serial summaries"
    if record["cpus"] >= PARALLEL_WORKERS:
        assert record["speedup"] >= 2.0, (
            f"expected >= 2x speedup with {PARALLEL_WORKERS} workers on "
            f"{record['cpus']} CPUs, got {record['speedup']:.2f}x"
        )


def main() -> int:
    record = measure_scaling()
    print(f"sweep: {len(DEGREES)} points x {REPS} reps x {len(SCHEMES)} schemes "
          f"= {record['runs']} runs ({_usable_cpus()} usable CPUs)")
    print(f"{'mode':<10} {'wall':>9} {'runs/s':>8}")
    print(f"{'serial':<10} {record['serial_seconds']:>8.2f}s "
          f"{record['serial_runs_per_s']:>8.2f}")
    print(f"{'workers=4':<10} {record['parallel_seconds']:>8.2f}s "
          f"{record['parallel_runs_per_s']:>8.2f}")
    print(f"speedup: {record['speedup']:.2f}x")
    print(f"summaries byte-identical: {record['identical']} "
          f"({record['serial_digest'][:16]})")
    if not record["identical"]:
        print("FAIL: parallel sweep diverged from serial summaries")
        return 1
    if record["cpus"] >= PARALLEL_WORKERS and record["speedup"] < 2.0:
        print(f"FAIL: expected >= 2x speedup on {record['cpus']} CPUs")
        return 1
    if record["cpus"] < PARALLEL_WORKERS:
        print(f"note: only {record['cpus']} usable CPU(s); "
              "speedup threshold not enforced")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
