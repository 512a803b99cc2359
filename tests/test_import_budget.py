"""The import budget, in module counts (they repeat exactly; seconds do not).

``setup_s`` — what every CLI call, every spawned queue worker and every
subprocess the tests start waits for first — is mostly import.  The
package roots re-export lazily through :mod:`repro._lazy`, and a module
imports another at module scope only if every run through it executes
that module; anything else is imported at its use site.  Every case starts
a fresh interpreter and asserts on its ``sys.modules``; the in-process half
(each export resolves to its defining module's object, once) is
``test_repo_quality.py::TestExports``.  A mistyped use-site import shows
only on the path that reaches it, so every deferred import has a
first-use case here that runs that path.
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
    "repro.analysis.lint", "repro.analysis.rules", "repro.analysis.races",
    "repro.analysis.sanitizer",
    "repro.control.controller", "repro.control.weights",
    "repro.faults.injector", "repro.net.buffers",
    "repro.telemetry.recorder", "repro.telemetry.sweep",
    "repro.transport.aimd", "repro.transport.rate_based",
)
CELL_FORBIDDEN_PACKAGES = (
    "repro.hoststack", "repro.abstraction", "repro.patterns",
    "repro.workloads", "repro.orchestration", "repro.competitors",
)

#: ``repro.*`` modules after the ledger's set-up probe work, per workload
#: (the incast ones share theirs).  They were 87 each before the optional
#: subsystems moved to their use sites, one more before the trimless
#: proxy became a detector on the streamlined one, and one more before the
#: packet pool went.
LEDGER_SETUP_BUDGET = {"incast-d8": 60, "openloop": 70}

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

    def assert_ledger_setup_inside_its_budget(self, workload, tmp_path):
        modules = modules_after(
            "from pathlib import Path\n"
            "from benchmarks.ledger.workloads import make_workload\n"
            f"make_workload({workload!r}, 3, Path.cwd()).setup()",
            tmp_path,
        )
        assert not [m for m in LEARNER if m in modules]
        budget = LEDGER_SETUP_BUDGET[workload]
        assert len(ours(modules)) <= budget, sorted(ours(modules))

    def test_ledger_setup_stays_inside_its_budget(self, tmp_path):
        self.assert_ledger_setup_inside_its_budget("incast-d8", tmp_path)

    def test_openloop_setup_stays_inside_its_budget(self, tmp_path):
        self.assert_ledger_setup_inside_its_budget("openloop", tmp_path)

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


#: One plain cell, built but not run; each first-use case below varies it.
CELL = """
from dataclasses import replace
from repro import build_scenario, run_incast, small_interdc_config
cell = build_scenario(
    "baseline", degree=2, total_bytes=200_000, interdc=small_interdc_config())
"""

#: name -> (what the rare path imports at its use site, the rare path).  The
#: path runs after ``CELL`` and asserts that it worked.
FIRST_USE = {
    "sanitizer": (("repro.analysis.sanitizer",), """
from repro.telemetry.options import RunOptions
tally = run_incast(cell, RunOptions(sanitize=True)).conservation
fates = sum(n for k, n in tally.items()
            if k.endswith("_packets") and k != "injected_packets")
assert tally["injected_packets"] == fates > 0, tally
"""),
    "recorder": (("repro.telemetry.recorder",), """
from repro.telemetry.options import RunOptions
snapshot = run_incast(cell, RunOptions(telemetry=True)).telemetry
from repro.telemetry.recorder import TelemetryRecorder, TelemetrySnapshot
assert isinstance(snapshot, TelemetrySnapshot) and snapshot.series
probed = run_incast(cell, RunOptions(probe=TelemetryRecorder())).telemetry
assert isinstance(probed, TelemetrySnapshot) and probed.series
"""),
    "controller": (
        ("repro.control.controller", "repro.control.weights", "repro.faults.injector"),
        """
from repro.control.config import ControlConfig
from repro.faults.plan import link_flap_plan
from repro.units import microseconds
flap = link_flap_plan("backbone:0", at_ps=microseconds(5), duration_ps=microseconds(50))
result = run_incast(replace(
    cell, control=ControlConfig(weight_model="delay"), faults=flap))
assert result.completed and result.fault_events_applied == 2
assert result.reroutes >= 1 and result.converged_at_ps is not None
"""),
    "pulser": (("repro.patterns.detector", "repro.patterns.distributed"), """
from repro import competitors
competitors.install()
for scheme in ("pulser", "pulser-dist"):
    result = run_incast(replace(cell, scheme=scheme, degree=4, total_bytes=2_000_000))
    assert result.completed and result.proxy_nacks_sent > 0, scheme
"""),
    "transport": (
        ("repro.transport.aimd", "repro.transport.rate_based", "repro.net.buffers"),
        """
from repro.config import TransportConfig
for cc in ("aimd", "bbr"):
    assert run_incast(replace(cell, transport=TransportConfig(cc=cc))).completed, cc
shared = small_interdc_config().with_shared_buffers(2.0)
assert run_incast(replace(cell, interdc=shared)).completed
"""),
    "engine": (
        ("repro.orchestration.run", "repro.orchestration.decentralized",
         "repro.workloads.registry", "repro.sim.checkpoint"),
        """
from pathlib import Path
from repro.units import milliseconds
from repro.workloads.engine import OpenLoopEngine, WorkloadEngineConfig
engine = OpenLoopEngine(WorkloadEngineConfig(
    strategy="decentralized", mix=(("moe-dispatch", 1.0), ("quorum", 1.0)),
    horizon_ps=milliseconds(50), segment_ps=milliseconds(50),
    peak_arrivals_per_s=200.0, seed=1))
result = engine.run(checkpoint_path=Path("engine.ckpt"))
assert engine.segments_done == 1 and result.jobs_proxied > 0, result
from repro.sim.checkpoint import load_checkpoint
assert load_checkpoint("engine.ckpt").result().digest == result.digest
"""),
}


@pytest.mark.parametrize("name", sorted(FIRST_USE))
def test_each_deferred_import_works_at_first_use(name, tmp_path):
    deferred, path = FIRST_USE[name]
    modules = modules_after(
        CELL
        + f"import sys\nearly = [m for m in {deferred!r} if m in sys.modules]\n"
        + "assert not early, f'loaded before first use: {early}'\n"
        + path,
        tmp_path,
    )
    assert set(deferred) <= set(modules)
