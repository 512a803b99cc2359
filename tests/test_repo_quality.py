"""Repository hygiene meta-tests: docstrings, exports, example structure."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SUBPACKAGES = [
    "repro.sim", "repro.net", "repro.topology", "repro.transport",
    "repro.proxy", "repro.hoststack", "repro.detection", "repro.orchestration",
    "repro.patterns", "repro.abstraction", "repro.workloads", "repro.metrics",
    "repro.experiments", "repro.analysis", "repro.telemetry",
    "repro.competitors",
]


def iter_modules():
    for package_name in ["repro", *SUBPACKAGES]:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            yield importlib.import_module(info.name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = [m.__name__ for m in iter_modules()
                   if not (m.__doc__ and m.__doc__.strip())]
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_are_documented(self):
        import inspect
        undocumented = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"


class TestExports:
    @pytest.mark.parametrize("package_name", ["repro", *SUBPACKAGES])
    def test_subpackage_all_is_importable(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"

    def test_all_lists_are_sorted(self):
        unsorted = []
        for package_name in ["repro", *SUBPACKAGES]:
            package = importlib.import_module(package_name)
            exported = list(package.__all__)
            if exported != sorted(exported):
                unsorted.append(package_name)
        assert not unsorted, f"unsorted __all__: {unsorted}"


class TestFrozenBenchmarkSurface:
    """``benchmarks/ledger`` is frozen (BENCHMARK.json) and outside tier-1:
    a deletion under ``src/`` must trip here, not in the benchmark run."""

    def test_every_repro_name_the_ledger_imports_resolves(self):
        broken = []
        sources = sorted((REPO_ROOT / "benchmarks" / "ledger").glob("*.py"))
        assert sources, "benchmarks/ledger has no sources to scan"
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                if (node.module or "").split(".")[0] != "repro":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        continue
                    try:  # ``from repro import competitors``: a submodule
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        broken.append(
                            f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                        )
        assert not broken, f"the frozen benchmark imports missing names: {broken}"


class TestExamples:
    def examples(self):
        return sorted((REPO_ROOT / "examples").glob("*.py"))

    def test_at_least_nine_examples(self):
        assert len(self.examples()) >= 9

    def test_examples_have_docstring_and_main_guard(self):
        for path in self.examples():
            text = path.read_text()
            assert text.lstrip().startswith(('"""', "#!")), path.name
            assert 'if __name__ == "__main__":' in text, path.name

    def test_examples_reference_how_to_run(self):
        for path in self.examples():
            assert "Run:" in path.read_text(), f"{path.name} lacks a Run: line"


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                     "docs/INTERNALS.md"):
            assert (REPO_ROOT / name).exists(), name

    def test_experiments_covers_every_paper_figure(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for anchor in ("Figure 2 (Left)", "Figure 2 (Right)", "Figure 3",
                       "Figure 4", "Figure 5a", "Figure 5b"):
            assert anchor in text, f"EXPERIMENTS.md misses {anchor}"

    def test_design_lists_the_substitutions(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "htsim" in text
        assert "ConnectX-5" in text
