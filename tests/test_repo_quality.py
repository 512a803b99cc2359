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


SRC_ROOT = REPO_ROOT / "src"
#: Every package under ``src/repro``, found on disk (SUBPACKAGES is by hand).
ALL_PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC_ROOT).parts)
    for init in (SRC_ROOT / "repro").rglob("__init__.py")
)
#: Defines ``install()`` itself, so it keeps module-scope imports of its wirers.
EAGER_PACKAGES = {"repro.competitors"}


def lazy_table(package):
    """``name -> defining module``, read off the table in the package root."""
    for node in ast.walk(ast.parse(Path(package.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items() for name in names}
    return {}


def module_scope_imports(tree):
    """The modules a module imports when it is imported (the body of an
    ``if TYPE_CHECKING:`` never runs and is skipped)."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, ast.If) and "TYPE_CHECKING" not in ast.dump(node.test):
            yield from module_scope_imports(node)


class TestExports:
    @pytest.mark.parametrize("package_name", ALL_PACKAGES)
    def test_subpackage_all_is_importable(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        table = lazy_table(package)
        if package_name not in EAGER_PACKAGES:
            assert set(table) == set(package.__all__) - {"__version__"}
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"
            if name in table:
                defined = getattr(importlib.import_module(table[name]), name)
                assert getattr(package, name) is defined, f"{package_name}.{name}"
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize(
        "package_name", [p for p in ALL_PACKAGES if p not in EAGER_PACKAGES]
    )
    def test_lazy_export_is_resolved_once(self, package_name, monkeypatch):
        package = importlib.import_module(package_name)
        calls = []
        resolve = package.__getattr__
        monkeypatch.setattr(
            package, "__getattr__", lambda name: calls.append(name) or resolve(name)
        )
        name = next(iter(lazy_table(package)))
        vars(package).pop(name, None)  # as in a process that never asked for it
        assert getattr(package, name) is getattr(package, name)
        assert calls == [name]
        with pytest.raises(AttributeError, match=f"'{package_name}'.*'no_such_name'"):
            package.no_such_name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(repro.__all__)
        assert all(namespace[name] is getattr(repro, name) for name in namespace)

    def test_unlisted_submodule_resolves_as_an_attribute(self):
        # `import repro; repro.experiments.QueueEngine` worked when the root
        # imported the experiment stack eagerly, and still does.
        vars(repro).pop("experiments", None)
        assert repro.experiments is importlib.import_module("repro.experiments")
        from repro.experiments.service import QueueEngine
        assert repro.experiments.QueueEngine is QueueEngine

    def test_all_lists_are_sorted(self):
        unsorted = []
        for package_name in ["repro", *SUBPACKAGES]:
            package = importlib.import_module(package_name)
            exported = list(package.__all__)
            if exported != sorted(exported):
                unsorted.append(package_name)
        assert not unsorted, f"unsorted __all__: {unsorted}"


class TestImportLayout:
    """One lazy-export mechanism, and optional dependencies at their use site."""

    def sources(self, pattern="*.py"):
        for path in sorted((SRC_ROOT / "repro").rglob(pattern)):
            yield str(path.relative_to(SRC_ROOT)), ast.parse(path.read_text())

    def test_package_roots_import_no_sibling_at_module_scope(self):
        eager = [
            f"{path}: {module}"
            for path, tree in self.sources("__init__.py")
            if path != "repro/competitors/__init__.py"
            for module in module_scope_imports(tree)
            if module.split(".")[0] == "repro" and module != "repro._lazy"
        ]
        assert not eager, f"package roots importing eagerly: {eager}"

    def test_numpy_is_imported_at_module_scope_nowhere(self):
        offenders = [
            path for path, tree in self.sources()
            if any(m.split(".")[0] == "numpy" for m in module_scope_imports(tree))
        ]
        assert not offenders, f"module-scope numpy imports: {offenders}"

    def test_the_helper_is_the_only_lazy_export_implementation(self):
        # A PEP 562 hook is a module-scope ``def``; the roots *assign* theirs
        # from ``lazy_exports``, whose own two are nested in it.
        hand_written = [
            path for path, tree in self.sources() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name in ("__getattr__", "__dir__")
        ]
        assert not hand_written, f"hand-written module hooks: {hand_written}"


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
