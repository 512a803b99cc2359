"""Experiment harness: single incast runs, sweeps, and figure regeneration.

* :mod:`repro.experiments.runner` — run one incast under one scheme.
* :mod:`repro.experiments.parallel` — the execution engine:
  :meth:`ExperimentEngine.stream` is the one path results leave by
  (on-disk result cache keyed by scenario hash, guarded process-pool
  fan-out of the misses, quarantine, stats).
* :mod:`repro.experiments.grid` — declarative scenario grids: a
  :class:`GridSpec` is a frozen, JSON-serializable product of axes that
  materializes cells lazily, shards, and fingerprints; :class:`GridFold`
  aggregates results streamingly in any completion order; and
  :func:`run_grid` is the one expand → stream → fold loop.
* :mod:`repro.experiments.sweeps` — the paper's three parameter sweeps
  (incast degree, incast size, long-haul latency) with repetitions, all
  declared as grids.
* :mod:`repro.experiments.service` — the sweep service:
  :class:`QueueEngine` is the pool engine plus a SQLite journal of each
  batch's cells, so a killed campaign resumes with only its missing
  cells executed (``python -m repro service``).
* :mod:`repro.experiments.figures` — regenerate every paper figure as a
  text table (``python -m repro figures``).
* :mod:`repro.experiments.report` — table rendering and the shared
  CSV/JSON row exporters.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.cascade": [
        "CASCADE_SCHEMES", "CascadeResult", "CascadeScenario", "run_cascade",
    ],
    "repro.experiments.convergence": [
        "ConvergenceResult", "compare_convergence", "measure_convergence",
    ],
    "repro.experiments.grid": [
        "GridFold", "GridSpec", "RunSample", "SweepFold", "run_grid", "sweep_spec",
    ],
    "repro.experiments.parallel": [
        "ExecutionStats", "ExperimentEngine", "ResultCache", "RunFailure",
        "scenario_key",
    ],
    "repro.experiments.report": ["export_rows", "render_table"],
    "repro.experiments.runner": [
        "IncastResult", "IncastScenario", "build_scenario", "run_incast",
    ],
    "repro.experiments.service": ["QueueEngine"],
    "repro.experiments.sweeps": [
        "SchemeSummary", "SweepPoint", "degree_sweep_spec", "latency_sweep_spec",
        "run_scheme_summary", "size_sweep_spec", "sweep_digest",
    ],
    "repro.experiments.verdicts": ["Scorecard", "Verdict", "evaluate_claims"],
    "repro.schemes": ["SCHEMES"],
})

__all__ = [
    "CASCADE_SCHEMES",
    "CascadeResult",
    "CascadeScenario",
    "ConvergenceResult",
    "ExecutionStats",
    "ExperimentEngine",
    "GridFold",
    "GridSpec",
    "IncastResult",
    "IncastScenario",
    "QueueEngine",
    "ResultCache",
    "RunFailure",
    "RunSample",
    "SCHEMES",
    "SchemeSummary",
    "Scorecard",
    "SweepFold",
    "SweepPoint",
    "Verdict",
    "build_scenario",
    "compare_convergence",
    "degree_sweep_spec",
    "evaluate_claims",
    "export_rows",
    "latency_sweep_spec",
    "measure_convergence",
    "render_table",
    "run_cascade",
    "run_grid",
    "run_incast",
    "run_scheme_summary",
    "scenario_key",
    "size_sweep_spec",
    "sweep_digest",
    "sweep_spec",
]
