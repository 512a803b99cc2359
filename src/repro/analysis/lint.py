"""The determinism linter: ``python -m repro lint``.

Parses every Python file under the given paths (default: ``src`` and
``benchmarks``), runs the rule catalogue from :mod:`repro.analysis.rules`
over each, and prints one ``path:line: [rule] message`` line per finding.
Exit status is non-zero iff any violation survives suppression.

A finding is suppressed by a trailing comment on the offending line (or on
the line directly above, for multi-line statements)::

    lost = {s for s in dropped}
    for seq in lost:  # repro: allow[set-iteration] report order irrelevant

``allow[*]`` suppresses every rule on that line.  For a finding inside a
*decorated* function's signature, the comment may also sit directly above
the first decorator — the natural place to write it.  Suppressions are
per-line and per-rule by design — there is no file-wide opt-out, so a
module cannot silently drift out of coverage.

``--format`` selects the output: ``plain`` (the default
``path:line: [rule] message`` lines), ``json`` (a machine-readable array),
or ``github`` (workflow-command annotations that surface inline on pull
requests).
"""

from __future__ import annotations

import argparse
import ast
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import RULES, LintRule, Violation
from repro.errors import LintError

__all__ = ["DEFAULT_TARGETS", "lint_file", "lint_paths", "main"]

#: Directories linted when no paths are given on the command line.
DEFAULT_TARGETS = ("src", "benchmarks")

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_*,\- ]+)\]")


def _suppressions(source_lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule names allowed on that line."""
    allowed: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match:
            names = frozenset(n.strip() for n in match.group(1).split(",") if n.strip())
            allowed[lineno] = names
    return allowed


def _decorator_anchors(tree: ast.Module) -> dict[int, int]:
    """Map signature lines of decorated defs to their first decorator line.

    A violation in a decorated function's signature sits *below* the
    decorator stack, so "the line above" is a decorator, not the place a
    human writes the comment.  This map lets the suppression check walk
    past the decorators to the line above the first one.
    """
    anchors: dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.decorator_list or not node.body:
            continue
        first = min(d.lineno for d in node.decorator_list)
        for line in range(node.lineno, node.body[0].lineno):
            anchors[line] = first
    return anchors


def _is_suppressed(
    violation: Violation,
    allowed: dict[int, frozenset[str]],
    anchors: dict[int, int] | None = None,
) -> bool:
    # A comment suppresses its own line and the line below it, so multi-line
    # statements can carry the allow on the opening line (or a line of their
    # own just above).  For decorated defs, the line above the first
    # decorator also counts.
    lines = [violation.line, violation.line - 1]
    anchor = (anchors or {}).get(violation.line)
    if anchor is not None:
        lines.append(anchor - 1)
    for names in (allowed.get(line) for line in lines):
        if names is not None and (violation.rule in names or "*" in names):
            return True
    return False


def lint_file(
    path: Path, root: Path, rules: Sequence[LintRule] = RULES
) -> list[Violation]:
    """All unsuppressed violations in one file, sorted by line."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    allowed = _suppressions(source.splitlines())
    anchors = _decorator_anchors(tree)
    violations = [
        violation
        for rule in rules
        if rule.applies_to(relpath)
        for violation in rule.check(tree, relpath)
        if not _is_suppressed(violation, allowed, anchors)
    ]
    return sorted(violations, key=lambda v: (v.line, v.rule, v.message))


def _iter_python_files(paths: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise LintError(f"not a Python file or directory: {path}")
    return files


def lint_paths(
    paths: Sequence[Path] | None = None,
    root: Path | None = None,
    rules: Sequence[LintRule] = RULES,
) -> list[Violation]:
    """Lint files/directories; default targets are ``src`` and ``benchmarks``.

    ``root`` anchors the relative paths rules scope on (default: the
    current working directory, which is the repo root in CI).
    """
    root = root or Path.cwd()
    targets = list(paths) if paths else [root / t for t in DEFAULT_TARGETS]
    violations: list[Violation] = []
    for path in _iter_python_files(targets):
        violations.extend(lint_file(path, root, rules))
    return violations


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="determinism and correctness linter for the simulator",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, metavar="PATH",
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--format", choices=("plain", "json", "github"), default="plain",
        help="output format: plain path:line lines (default), a JSON array, "
             "or GitHub workflow annotations (::error file=...)",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name:<24} {rule.summary}")
        return 0
    try:
        violations = lint_paths(args.paths or None)
    except LintError as exc:
        print(f"lint error: {exc}")
        return 2
    if args.format == "json":
        print(json.dumps(
            [{"rule": v.rule, "path": v.path, "line": v.line,
              "message": v.message} for v in violations],
            indent=2,
        ))
        return 1 if violations else 0
    for violation in violations:
        if args.format == "github":
            message = violation.message.replace("%", "%25").replace(
                "\n", "%0A")
            print(f"::error file={violation.path},line={violation.line},"
                  f"title={violation.rule}::{message}")
        else:
            print(violation.render())
    if violations:
        # The human-readable tally would corrupt machine-parsed output:
        # github annotations are matched line-by-line by the runner.
        if args.format == "plain":
            names = ", ".join(sorted({v.rule for v in violations}))
            print(f"{len(violations)} violation(s) ({names}); "
                  f"suppress intentional ones with '# repro: allow[rule-name]'")
        return 1
    return 0

