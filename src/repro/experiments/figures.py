"""Regenerate every figure of the paper as a text table.

Run ``python -m repro figures`` for a reduced (fast) pass or
``python -m repro figures --full`` for paper-scale parameters
(8 KB payloads, 100 MB incasts, 5 repetitions — minutes of wall time).
Individual figures: ``--only fig2l fig4`` etc.  ``--export DIR`` also
writes each figure's data as CSV into ``DIR``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.config import TransportConfig
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.report import average_reductions, render_table, sweep_table
from repro.experiments.runner import IncastScenario
from repro.experiments.sweeps import (
    SweepPoint,
    degree_sweep_spec,
    latency_sweep_spec,
    size_sweep_spec,
)
from repro.hoststack import (
    ebpf_forward_path_pipeline,
    ebpf_reverse_path_pipeline,
    measure_pipeline,
    userspace_proxy_pipeline,
    wire_to_wire_pipeline,
)
from repro.units import megabytes, microseconds, milliseconds

SCHEMES = ("baseline", "naive", "streamlined")

#: Paper anchor numbers, quoted in the printed reports.
PAPER_ANCHORS = {
    "fig2l": "Naive -75.67% (-40.43ms) avg, Streamlined -70.60% (-37.63ms) avg",
    "fig2r": "Naive -57.08%, Streamlined -53.60% avg for incasts > 20MB; parity at 20MB",
    "fig3": "benefit for link latency >= 100us; ~ -12% at 100us, -75% at 1ms",
    "fig4": "user-space proxy p99 = 359.17us",
    "fig5a": "eBPF lower bound median = 0.42us (forward path)",
    "fig5b": "wire-to-wire upper bound median = 325.92us",
}


def figure2_left(
    full: bool = False,
    reps: int | None = None,
    *,
    engine: ExperimentEngine | None = None,
    seed0: int = 0,
) -> list[SweepPoint]:
    """Fig. 2 (Left): ICT vs incast degree at fixed 100 MB total."""
    scenario = _base_scenario(full)
    degrees = (2, 4, 8, 16, 32, 60) if full else (2, 4, 8)
    spec = degree_sweep_spec(scenario, degrees, SCHEMES, _reps(full, reps), seed0)
    return run_grid(spec, engine=engine)


def figure2_right(
    full: bool = False,
    reps: int | None = None,
    *,
    engine: ExperimentEngine | None = None,
    seed0: int = 0,
) -> list[SweepPoint]:
    """Fig. 2 (Right): ICT vs incast size at fixed degree 4."""
    scenario = _base_scenario(full)
    sizes = (
        (megabytes(10), megabytes(20), megabytes(50), megabytes(100), megabytes(200))
        if full
        else (megabytes(10), megabytes(20), megabytes(50))
    )
    spec = size_sweep_spec(scenario, sizes, SCHEMES, _reps(full, reps), seed0)
    return run_grid(spec, engine=engine)


def figure3(
    full: bool = False,
    reps: int | None = None,
    *,
    engine: ExperimentEngine | None = None,
    seed0: int = 0,
) -> list[SweepPoint]:
    """Fig. 3: ICT vs long-haul link latency at degree 4, 100 MB."""
    scenario = _base_scenario(full)
    delays = (
        (microseconds(1), microseconds(10), microseconds(100),
         milliseconds(1), milliseconds(10), milliseconds(100))
        if full
        else (microseconds(10), microseconds(100), milliseconds(1))
    )
    spec = latency_sweep_spec(scenario, delays, SCHEMES, _reps(full, reps), seed0)
    return run_grid(spec, engine=engine)


def figure4(packets: int = 100_000, seed: int = 0) -> str:
    """Fig. 4: per-packet latency CDF of the user-space naive proxy."""
    measurement = measure_pipeline(userspace_proxy_pipeline(), packets, seed)
    return _cdf_table("Figure 4 — user-space naive proxy (us)", [measurement])


def figure5(packets: int = 100_000, seed: int = 0) -> str:
    """Fig. 5: eBPF lower bounds (two paths) and the wire-to-wire upper bound."""
    lower = [
        measure_pipeline(ebpf_forward_path_pipeline(), packets, seed),
        measure_pipeline(ebpf_reverse_path_pipeline(), packets, seed + 1),
    ]
    upper = [measure_pipeline(wire_to_wire_pipeline(), packets, seed + 2)]
    return (
        _cdf_table("Figure 5a — eBPF lower bound (us)", lower)
        + "\n\n"
        + _cdf_table("Figure 5b — wire-to-wire upper bound (us)", upper)
    )


#: The sweep figures the CLI regenerates: ``--only`` key -> (title, driver).
SWEEP_FIGURES = {
    "fig2l": ("Figure 2 (Left)", figure2_left),
    "fig2r": ("Figure 2 (Right)", figure2_right),
    "fig3": ("Figure 3", figure3),
}


def _base_scenario(full: bool) -> IncastScenario:
    transport = TransportConfig(payload_bytes=8192)
    scenario = IncastScenario(degree=4, total_bytes=megabytes(100), transport=transport)
    if not full:
        scenario = replace(scenario, total_bytes=megabytes(40))
    return scenario


def _reps(full: bool, reps: int | None) -> int:
    if reps is not None:
        return reps
    return 5 if full else 2


def _cdf_table(title: str, measurements) -> str:
    percentiles = (1, 5, 25, 50, 75, 90, 95, 99, 99.9)
    headers = ["pipeline"] + [f"p{p:g}" for p in percentiles]
    rows = [
        [m.pipeline] + [f"{m.percentile_us(p):.2f}" for p in percentiles]
        for m in measurements
    ]
    return f"{title}\n" + render_table(headers, rows)


def _print_sweep(
    key: str, name: str, points: list[SweepPoint], export_dir: Path | None
) -> None:
    print(f"\n=== {name} (paper: {PAPER_ANCHORS[key]}) ===")
    print(sweep_table(points, SCHEMES))
    for scheme in SCHEMES[1:]:
        avg = average_reductions(points, scheme)
        print(f"average ICT reduction, {scheme}: -{avg * 100:.2f}%")
    if export_dir is not None:
        from repro.metrics.export import write_sweep_csv

        stem = key.replace("fig", "figure_")
        path = write_sweep_csv(points, export_dir / f"{stem}.csv")
        print(f"exported {path}")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point (``python -m repro figures``)."""
    from repro.__main__ import driver_parser, run_driver

    parser = driver_parser("python -m repro figures", __doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale parameters")
    parser.add_argument("--reps", type=int, default=None, help="repetitions per point")
    parser.add_argument(
        "--only",
        nargs="*",
        choices=["fig2l", "fig2r", "fig3", "fig4", "fig5"],
        default=None,
        help="subset of figures to regenerate",
    )
    parser.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write each figure's data as CSV into DIR",
    )

    def body(args, engine: ExperimentEngine) -> None:
        wanted = set(args.only or ("fig2l", "fig2r", "fig3", "fig4", "fig5"))
        for key, (name, sweep) in SWEEP_FIGURES.items():
            if key in wanted:
                points = sweep(args.full, args.reps, engine=engine, seed0=args.seed)
                _print_sweep(key, name, points, args.export)
        if "fig4" in wanted:
            print(f"\n(paper: {PAPER_ANCHORS['fig4']})")
            print(figure4(seed=args.seed))
        if "fig5" in wanted:
            print(f"\n(paper: {PAPER_ANCHORS['fig5a']}; {PAPER_ANCHORS['fig5b']})")
            print(figure5(seed=args.seed))

    run_driver(parser, argv, body)
