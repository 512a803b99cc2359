"""The determinism-lint rule catalogue.

Each rule is a small AST visitor targeting one class of hazard that can
break bit-identical reproducibility (or plain correctness) in the
simulator.  Rules are registered in :data:`RULES` and addressed by name,
both on the command line (``python -m repro lint --list-rules``) and in
per-line suppression comments (``# repro: allow[rule-name]``).

Adding a rule is three steps: subclass :class:`LintRule`, implement
:meth:`LintRule.check` yielding :class:`Violation` records, and append an
instance to :data:`RULES`.  Scope exclusions (paths a rule deliberately
skips, e.g. the experiment harness for the wall-clock rule) live on the
rule as ``excluded_prefixes``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FloatEqualityRule",
    "IdKeyRule",
    "LintRule",
    "MutableDefaultRule",
    "RULES",
    "RawHeapqRule",
    "RawRandomRule",
    "SetIterationRule",
    "Violation",
    "WallClockRule",
    "rule_names",
]


@dataclass(frozen=True)
class Violation:
    """One linter finding, addressable by file and line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        """``path:line: [rule] message`` — the CLI output format."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class LintRule:
    """Base class: one named check over a parsed module.

    ``excluded_prefixes`` are posix-style path prefixes (relative to the
    repo root) where the rule does not apply — e.g. the one module allowed
    to import :mod:`random`.
    """

    name: str = ""
    summary: str = ""
    excluded_prefixes: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on ``relpath`` at all."""
        return not any(relpath.startswith(p) for p in self.excluded_prefixes)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        """Yield every violation of this rule in ``tree``."""
        raise NotImplementedError

    def _violation(self, relpath: str, node: ast.AST, message: str) -> Violation:
        return Violation(self.name, relpath, getattr(node, "lineno", 1), message)


class RawRandomRule(LintRule):
    """Raw ``random`` use outside ``repro.sim.rng``.

    Direct ``import random`` (or ``from random import ...``) bypasses the
    name-seeded substream registry, so adding or reordering draws in one
    component perturbs every other component's sequence.  Unseeded
    ``Random()`` / ``SystemRandom()`` constructions are nondeterministic
    outright.
    """

    name = "raw-random"
    summary = "import random / unseeded Random() outside repro.sim.rng"
    excluded_prefixes = ("src/repro/sim/rng.py",)

    _UNSEEDED = frozenset({"Random", "SystemRandom", "SimRandom"})

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self._violation(
                            relpath, node,
                            "import random outside repro.sim.rng; draw from a "
                            "named substream (repro.sim.rng.derive_stream / "
                            "sim.rng.stream) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self._violation(
                        relpath, node,
                        "from random import ... outside repro.sim.rng; use "
                        "repro.sim.rng substreams instead",
                    )
            elif isinstance(node, ast.Call) and not node.args and not node.keywords:
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if callee in self._UNSEEDED:
                    yield self._violation(
                        relpath, node,
                        f"unseeded {callee}() seeds from the OS entropy pool; "
                        "pass an explicit derived seed",
                    )


class RawHeapqRule(LintRule):
    """``import heapq`` outside the scheduler package.

    Event ordering belongs to :mod:`repro.sim.scheduler` — its calendar
    queue owns the tie-break contract, and a hand-rolled event heap
    elsewhere silently re-introduces the FIFO-ordering bugs the scheduler
    exists to prevent.  Heaps over plain data (sequence numbers, Dijkstra
    frontiers) are fine: suppress those imports with
    ``# repro: allow[raw-heapq]``.
    """

    name = "raw-heapq"
    summary = "import heapq outside repro.sim (event ordering lives there)"
    excluded_prefixes = ("src/repro/sim/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq":
                        yield self._violation(
                            relpath, node,
                            "import heapq outside repro.sim; schedule through "
                            "the simulator's calendar queue, or suppress if "
                            "this heap holds plain data rather than events",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq" and node.level == 0:
                    yield self._violation(
                        relpath, node,
                        "from heapq import ... outside repro.sim; schedule "
                        "through the simulator's calendar queue, or suppress "
                        "if this heap holds plain data rather than events",
                    )


class WallClockRule(LintRule):
    """Wall-clock reads (and sleeps) inside simulation code.

    Simulated time is ``sim.now``; anything derived from the host clock
    differs between machines and runs.  The experiment harness
    (``repro/experiments``) legitimately measures wall time and is out of
    scope, as are the benchmarks.
    """

    name = "wall-clock"
    summary = "time.time()/datetime.now()/sleep inside sim code"
    # repro/telemetry is the run profiler: wall-clock measurement is its
    # job, and its output feeds no simulated decision.
    excluded_prefixes = (
        "src/repro/experiments/", "src/repro/telemetry/", "benchmarks/",
    )

    _TIME_FUNCS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "sleep",
    })
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        time_aliases: set[str] = set()
        datetime_roots: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or alias.name)
                    elif alias.name == "datetime":
                        datetime_roots.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._TIME_FUNCS:
                            yield self._violation(
                                relpath, node,
                                f"from time import {alias.name} reads the wall "
                                "clock; sim code must use sim.now",
                            )
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_roots.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            root = _root_name(node.func.value)
            if attr in self._TIME_FUNCS and root in time_aliases:
                yield self._violation(
                    relpath, node,
                    f"{root}.{attr}() reads the wall clock; sim code must use "
                    "sim.now / sim.schedule",
                )
            elif attr in self._DATETIME_FUNCS and root in datetime_roots:
                yield self._violation(
                    relpath, node,
                    f"datetime {attr}() reads the wall clock; sim code must "
                    "use sim.now",
                )


class SetIterationRule(LintRule):
    """Iteration over a ``set`` in scheduling-adjacent code.

    Set iteration order depends on insertion history and hash seeds of the
    contained objects; two runs that schedule callbacks by walking a set
    can diverge.  Iterate a sorted copy or keep a list/dict instead.
    """

    name = "set-iteration"
    summary = "for-loop or comprehension over a set (hash-order)"

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        set_names = _assigned_set_names(tree)
        for node in ast.walk(tree):
            for iter_node in _iteration_sites(node):
                if _is_set_expr(iter_node, set_names):
                    yield self._violation(
                        relpath, iter_node,
                        "iterating a set is hash-order-dependent; iterate "
                        "sorted(...) or keep an ordered container",
                    )


class IdKeyRule(LintRule):
    """``id()`` used as a key or ordering token.

    ``id()`` values are allocation addresses: stable within one process,
    different across processes, so any schedule or tie-break derived from
    them breaks cross-worker determinism.
    """

    name = "id-key"
    summary = "id() used in sim code (allocation-dependent)"

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                yield self._violation(
                    relpath, node,
                    "id() is allocation-dependent; key on a stable identifier "
                    "(name, node id, flow id) instead",
                )


class MutableDefaultRule(LintRule):
    """Mutable default arguments.

    A ``def f(x=[])`` default is shared across calls — state leaks between
    runs that should be independent.  Use ``None`` plus an in-body default.
    """

    name = "mutable-default"
    summary = "mutable default argument ([], {}, set())"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set"})

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self._violation(
                        relpath, default,
                        f"mutable default argument in {node.name}(); use None "
                        "and construct inside the body",
                    )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in self._MUTABLE_CALLS and not node.args
                and not node.keywords)


class FloatEqualityRule(LintRule):
    """``==`` / ``!=`` against a float constant.

    Event times are integers by design; a float exact-equality comparison
    in time or byte-accounting logic usually means a quantity that should
    have been an int (or an epsilon comparison) — rounding makes it flaky.
    """

    name = "float-eq"
    summary = "== / != against a float constant"
    excluded_prefixes = ("benchmarks/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if any(isinstance(side, ast.Constant) and type(side.value) is float
                       for side in (left, right)):
                    yield self._violation(
                        relpath, node,
                        "exact equality against a float constant; compare "
                        "integers or use an explicit tolerance",
                    )


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _iteration_sites(node: ast.AST) -> Iterator[ast.expr]:
    """Expressions a ``for`` statement or comprehension iterates over."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter


def _assigned_set_names(tree: ast.Module) -> frozenset[str]:
    """Names bound to an obvious set expression anywhere in the module.

    Deliberately an over-approximation (names are pooled across scopes, so a
    name that is a set in one function taints iteration over it in another);
    a false positive is suppressible with ``# repro: allow[set-iteration]``.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value: ast.expr | None = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if value is not None and _is_set_expr(value, frozenset()):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _is_set_expr(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Whether ``node`` is syntactically a set (literal, set() call, or a
    name assigned one in the same scope)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    # self.flows where flows is known to be a set cannot be resolved
    # syntactically; attribute sets are out of scope for the local pass.
    return False


#: Every registered rule, in reporting order.
RULES: tuple[LintRule, ...] = (
    RawRandomRule(),
    RawHeapqRule(),
    WallClockRule(),
    SetIterationRule(),
    IdKeyRule(),
    MutableDefaultRule(),
    FloatEqualityRule(),
)


def rule_names() -> tuple[str, ...]:
    """The names of all registered rules, in registry order."""
    return tuple(rule.name for rule in RULES)
