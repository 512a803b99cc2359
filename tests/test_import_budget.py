"""The import budget, in module counts (they repeat exactly; seconds do not).

``setup_s`` — what every CLI call, every spawned queue worker and every
subprocess the tests start waits for first — is mostly import.  The
package roots re-export lazily through :mod:`repro._lazy` and numpy is
imported where it is used, so importing a module costs what that module
needs.  Every case starts a fresh interpreter and asserts on its
``sys.modules``; the in-process half (each export resolves to its defining
module's object, once) is ``test_repo_quality.py::TestExports``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``import repro`` alone may load these and nothing else of ours.
ROOT_ONLY = {"repro", "repro._lazy"}

#: What one plain cell must not load: the optional heavy dependency, the
#: sweep service's and the CLI's machinery, and every layer it does not run.
CELL_FORBIDDEN_EXACT = (
    "numpy", "sqlite3", "argparse", "socketserver", "multiprocessing",
    "concurrent.futures",
    "repro.analysis.lint", "repro.analysis.rules", "repro.analysis.ownership",
    "repro.analysis.races",
)
CELL_FORBIDDEN_PACKAGES = (
    "repro.hoststack", "repro.abstraction", "repro.patterns",
    "repro.workloads", "repro.orchestration", "repro.competitors",
)

#: ``repro.*`` modules after the ledger's set-up probe work (parent: 116).
LEDGER_SETUP_BUDGET = 89

#: The periodicity learner and what it imports.  Only the open-loop
#: engine's ``pattern_predictor`` and ``run_pattern_aware`` read it.
LEARNER = ("numpy", "repro.patterns.controller", "repro.patterns.predictor")

BUILT_INS = ["baseline", "naive", "streamlined", "trimless", "proxy-failover"]


def modules_after(code: str, tmp_path: Path) -> list[str]:
    """``sys.modules`` of a fresh interpreter after it ran ``code``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def ours(modules: list[str]) -> set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


class TestFreshInterpreter:
    def test_import_repro_loads_the_root_and_the_helper_only(self, tmp_path):
        modules = modules_after("import repro", tmp_path)
        assert "numpy" not in modules
        assert ours(modules) == ROOT_ONLY

    def test_a_plain_cell_loads_what_it_runs(self, tmp_path):
        modules = modules_after(
            "from repro import build_scenario, run_incast, small_interdc_config\n"
            "result = run_incast(build_scenario(\n"
            "    'streamlined', degree=2, total_bytes=200_000,\n"
            "    interdc=small_interdc_config()))\n"
            "assert result.completed",
            tmp_path,
        )
        loaded = [m for m in CELL_FORBIDDEN_EXACT if m in modules]
        loaded += [
            m for m in modules
            if m.startswith(CELL_FORBIDDEN_PACKAGES)
            or (m.startswith("repro.experiments.")
                and m != "repro.experiments.runner")
        ]
        assert not loaded, f"a plain cell loaded {loaded}"

    def test_ledger_setup_stays_inside_its_budget(self, tmp_path):
        modules = modules_after(
            "from pathlib import Path\n"
            "from benchmarks.ledger.workloads import make_workload\n"
            "make_workload('incast-d8', 3, Path.cwd()).setup()",
            tmp_path,
        )
        assert not [m for m in LEARNER if m in modules]
        assert len(ours(modules)) <= LEDGER_SETUP_BUDGET, sorted(ours(modules))

    def test_no_scheme_loads_the_learner(self, tmp_path):
        # The ledger's incast-d8 scale: long enough that Pulser's detector
        # fires often, so a learner fed from it would reach numpy.
        modules = modules_after(
            "from dataclasses import replace\n"
            "from repro import competitors\n"
            "from repro.config import TransportConfig, paper_interdc_config\n"
            "from repro.experiments.runner import IncastScenario, run_incast\n"
            "from repro.schemes import SCHEME_REGISTRY\n"
            "competitors.install()\n"
            "base = IncastScenario(\n"
            "    degree=8, total_bytes=40_000_000, interdc=paper_interdc_config(),\n"
            "    transport=TransportConfig(payload_bytes=8192), seed=3)\n"
            "assert len(SCHEME_REGISTRY.names()) == 8\n"
            "for name in SCHEME_REGISTRY.names():\n"
            "    assert run_incast(replace(base, scheme=name)).completed, name",
            tmp_path,
        )
        loaded = [m for m in LEARNER if m in modules]
        assert not loaded, f"an incast cell loaded {loaded}"

    def test_schemes_is_the_built_ins_whatever_is_imported_first(self, tmp_path):
        # On a lazy root nothing imports the runner before install() runs;
        # a snapshot taken in the runner would then read eight names.
        modules_after(
            "from repro import competitors\n"
            "competitors.install()\n"
            "from repro.experiments.runner import SCHEMES\n"
            "import repro, repro.experiments, repro.schemes\n"
            f"assert list(SCHEMES) == {BUILT_INS!r}, SCHEMES\n"
            "assert repro.SCHEMES is SCHEMES is repro.experiments.SCHEMES\n"
            "assert SCHEMES is repro.schemes.SCHEMES\n"
            "assert len(repro.SCHEME_REGISTRY.names()) == 8",
            tmp_path,
        )


#: Run in a process that has not imported numpy: the first use imports it
#: and returns what the same computation written directly in numpy returns.
CDF_FIRST_USE = """
import sys
from repro.metrics import EmpiricalCdf
assert "numpy" not in sys.modules
samples = [5.0, 1.0, 4.0, 2.5, 9.0, 3.0, 7.5]
cdf = EmpiricalCdf(samples)
got = (
    cdf.n, cdf.mean, cdf.median,
    [cdf.percentile(p) for p in (0, 12.5, 50, 99, 100)],
    [cdf.prob_le(x) for x in (0.0, 2.5, 2.6, 9.0, 10.0)],
    cdf.points(5),
)
import numpy as np
values = np.asarray(sorted(samples), dtype=float)
want = (
    7, float(values.mean()), float(np.percentile(values, 50)),
    [float(np.percentile(values, p)) for p in (0, 12.5, 50, 99, 100)],
    [float(np.searchsorted(values, x, side="right")) / 7
     for x in (0.0, 2.5, 2.6, 9.0, 10.0)],
    [(float(np.percentile(values, p)), p / 100.0)
     for p in np.linspace(0.0, 100.0, 5)],
)
assert got == want, (got, want)
"""

PREDICTOR_FIRST_USE = """
import sys
from repro.patterns import PatternAwareController, PeriodicIncastPredictor
from repro.units import milliseconds
assert "numpy" not in sys.modules
series = [9.0 if i % 7 == 3 else 0.5 * (i % 3) for i in range(70)]
estimate = PeriodicIncastPredictor().estimate(series)
controller = PatternAwareController()
for k in range(12):
    controller.observe_burst(milliseconds(5 * k), 1, 1000)
import numpy as np
x = np.asarray(series, dtype=float)
x = x - x.mean()
n = int(2 ** np.ceil(np.log2(2 * x.size)))
spectrum = np.fft.rfft(x, n)
acf = np.fft.irfft(spectrum * np.conj(spectrum), n)[: x.size] / float(np.dot(x, x))
window = acf[2 : x.size // 2 + 1]
assert estimate.period_samples == 2 + int(np.argmax(window)) == 7, estimate
assert estimate.confidence == float(np.clip(window.max(), 0.0, 1.0)), estimate
assert estimate.next_burst_index == 73, estimate
assert controller.predicted_period_ps(1) == milliseconds(5)
"""


@pytest.mark.parametrize(
    "code", [CDF_FIRST_USE, PREDICTOR_FIRST_USE], ids=["cdf", "predictor"]
)
def test_numpy_is_imported_at_first_use_and_computes_the_same(code, tmp_path):
    assert "numpy" in modules_after(code, tmp_path)
