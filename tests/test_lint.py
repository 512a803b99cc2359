"""The determinism linter: rule catalogue, suppressions, CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, lint_paths, main
from repro.analysis.rules import RULES, rule_names
from repro.errors import LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
BAD_EXAMPLE = Path(__file__).resolve().parent / "fixtures" / "lint_bad_example.py"


def lint_source(tmp_path: Path, source: str, name: str = "snippet.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, tmp_path)


class TestBadExampleFixture:
    def test_every_rule_fires_on_the_fixture(self):
        violations = lint_file(BAD_EXAMPLE, REPO_ROOT)
        assert {v.rule for v in violations} == set(rule_names())

    def test_cli_exits_nonzero_on_the_fixture(self, capsys):
        assert main([str(BAD_EXAMPLE)]) == 1
        out = capsys.readouterr().out
        assert "lint_bad_example.py" in out
        assert "violation(s)" in out


class TestRepoIsClean:
    def test_default_targets_have_no_violations(self):
        violations = lint_paths(root=REPO_ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)


class TestRuleFindings:
    """Each rule fires on a minimal bad snippet and stays quiet on clean code."""

    @pytest.mark.parametrize(
        "rule,source",
        [
            ("raw-random", "import random\n"),
            ("raw-random", "from random import choice\n"),
            ("raw-random", "rng = Random()\n"),
            ("wall-clock", "import time\nt = time.time()\n"),
            ("wall-clock", "from time import sleep\n"),
            ("wall-clock", "import datetime\nd = datetime.datetime.now()\n"),
            ("set-iteration", "for x in {1, 2}:\n    pass\n"),
            ("set-iteration", "s = set()\nfor x in s:\n    pass\n"),
            ("set-iteration", "out = [x for x in frozenset((1, 2))]\n"),
            ("id-key", "key = id(obj)\n"),
            ("mutable-default", "def f(a=[]):\n    pass\n"),
            ("mutable-default", "def f(*, a={}):\n    pass\n"),
            ("mutable-default", "def f(a=set()):\n    pass\n"),
            ("float-eq", "ok = x == 1.0\n"),
            ("float-eq", "ok = 0.5 != x\n"),
        ],
    )
    def test_rule_fires(self, tmp_path, rule, source):
        assert rule in {v.rule for v in lint_source(tmp_path, source)}

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.sim.rng import SimRandom, derive_stream\n",
            "rng = Random(42)\n",
            "import time\n",  # the import alone is fine; calls are flagged
            "s = set()\nfor x in sorted(s):\n    pass\n",
            "for x in [1, 2]:\n    pass\n",
            "def f(a=None, b=()):\n    pass\n",
            "ok = x == 1\n",
            "y = 2.0 * x\n",
        ],
    )
    def test_clean_code_is_quiet(self, tmp_path, source):
        assert lint_source(tmp_path, source) == []

    def test_scope_exclusions_apply(self, tmp_path):
        # The experiment harness legitimately measures wall time.
        source = "import time\nt = time.time()\n"
        violations = lint_source(
            tmp_path, source, name="src/repro/experiments/harness.py"
        )
        assert "wall-clock" not in {v.rule for v in violations}

    def test_rng_module_may_import_random(self, tmp_path):
        violations = lint_source(
            tmp_path, "import random\n", name="src/repro/sim/rng.py"
        )
        assert violations == []


class TestSuppressions:
    def test_same_line_comment_suppresses(self, tmp_path):
        source = "for x in {1, 2}:  # repro: allow[set-iteration] order-free\n    pass\n"
        assert lint_source(tmp_path, source) == []

    def test_line_above_suppresses_multiline_statements(self, tmp_path):
        source = (
            "total = sum(  # repro: allow[set-iteration] order-free count\n"
            "    1 for x in {1, 2}\n"
            ")\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_wildcard_suppresses_every_rule(self, tmp_path):
        source = "k = id(x) if y == 1.0 else 0  # repro: allow[*] test scaffolding\n"
        assert lint_source(tmp_path, source) == []

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        source = "key = id(x)  # repro: allow[float-eq] mislabeled\n"
        assert {v.rule for v in lint_source(tmp_path, source)} == {"id-key"}

    def test_comment_does_not_leak_two_lines_down(self, tmp_path):
        source = (
            "pass  # repro: allow[id-key]\n"
            "pass\n"
            "key = id(x)\n"
        )
        assert {v.rule for v in lint_source(tmp_path, source)} == {"id-key"}

    def test_comment_above_decorator_covers_the_signature(self, tmp_path):
        # A mutable-default violation anchors at the `def` line, but the
        # only place a human can hang the comment is above the decorator.
        source = (
            "# repro: allow[mutable-default] shared scratch, test-only\n"
            "@wraps(inner)\n"
            "@retry(3)\n"
            "def f(a=[]):\n"
            "    pass\n"
        )
        assert lint_source(tmp_path, source) == []

    def test_decorator_comment_does_not_cover_the_body(self, tmp_path):
        source = (
            "# repro: allow[id-key]\n"
            "@wraps(inner)\n"
            "def f(a):\n"
            "    return id(a)\n"
        )
        assert {v.rule for v in lint_source(tmp_path, source)} == {"id-key"}


class TestCli:
    def test_list_rules_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rule_names():
            assert name in out

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 2
        assert "lint error" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean."""\n')
        assert main([str(clean)]) == 0

    def test_non_python_target_exits_two(self, tmp_path):
        other = tmp_path / "notes.txt"
        other.write_text("hello")
        assert main([str(other)]) == 2

    def test_json_format_emits_machine_readable_records(self, capsys):
        assert main(["--format=json", str(BAD_EXAMPLE)]) == 1
        records = json.loads(capsys.readouterr().out)
        assert records, "expected findings on the bad-example fixture"
        assert {r["rule"] for r in records} == set(rule_names())
        for record in records:
            assert set(record) == {"rule", "path", "line", "message"}
            assert record["path"].endswith("lint_bad_example.py")
            assert isinstance(record["line"], int) and record["line"] > 0

    def test_json_format_empty_list_when_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean."""\n')
        assert main(["--format=json", str(clean)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_github_format_emits_error_annotations(self, capsys):
        assert main(["--format=github", str(BAD_EXAMPLE)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(l.startswith("::error file=") for l in lines)
        assert any(",title=raw-heapq::" in l for l in lines)

    def test_github_format_silent_when_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Clean."""\n')
        assert main(["--format=github", str(clean)]) == 0
        assert capsys.readouterr().out == ""


class TestRegistry:
    def test_rule_names_are_unique(self):
        names = rule_names()
        assert len(names) == len(set(names))
        assert len(names) == len(RULES)

    def test_unreadable_path_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            lint_file(tmp_path / "missing.py", tmp_path)
