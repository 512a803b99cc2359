"""Static analysis and runtime sanitizers for the simulator.

Two halves keep the reproduction honest:

* the **determinism linter** (:mod:`repro.analysis.lint`,
  ``python -m repro lint``) — an AST pass over ``src`` and ``benchmarks``
  that flags hazards which can break bit-identical results: raw
  :mod:`random` use outside :mod:`repro.sim.rng`, wall-clock reads in sim
  code, set iteration in scheduling paths, ``id()`` keys, mutable default
  arguments, and float ``==`` in event-time logic;
* the **runtime sanitizer** (:mod:`repro.analysis.sanitizer`, the
  ``--sanitize`` flag) — opt-in hooks through the event loop, ports,
  hosts, and transport that assert clock monotonicity, queue bounds, and
  window invariants during the run, then prove exact end-of-run packet and
  byte conservation reconciled against the data plane's own counters.

A third pass rides on the same machinery: the **dynamic race detector**
(:mod:`repro.analysis.races`, ``python -m repro races``) shuffles same-tick
event order across serialization domains and diffs result digests,
bisecting any divergence to the first order-dependent tick.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.lint import DEFAULT_TARGETS, lint_file, lint_paths
    from repro.analysis.rules import RULES, LintRule, Violation, rule_names
    from repro.analysis.sanitizer import Sanitizer, SanitizerReport

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.lint": ["DEFAULT_TARGETS", "lint_file", "lint_paths"],
    "repro.analysis.rules": ["LintRule", "RULES", "Violation", "rule_names"],
    "repro.analysis.sanitizer": ["Sanitizer", "SanitizerReport"],
})

__all__ = [
    "DEFAULT_TARGETS",
    "LintRule",
    "RULES",
    "Sanitizer",
    "SanitizerReport",
    "Violation",
    "lint_file",
    "lint_paths",
    "rule_names",
]
