"""Self-tests of the ledger harness (``pytest benchmarks/ledger -q``).

Outside tier-1's ``testpaths`` on purpose: the last test runs traced
workloads end to end and takes a couple of minutes.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from benchmarks.ledger import calibration
from benchmarks.ledger.layers import (
    END_TO_END,
    LAYERS,
    classify,
    other_group,
    per_layer_metrics,
)
from benchmarks.ledger import selfcheck
from benchmarks.ledger.calibration import Clock
from benchmarks.ledger.measure import RUN_SECONDS, measure, summary
from benchmarks.ledger.workloads import REPO_ROOT, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_calibrated_seconds_arithmetic():
    k = calibration.K_REF
    clock = Clock()
    # quiet box: a calibrated second is a second, the passes' own time taken out
    clock.record("a", 2.0 + 10 * k, [k] * 10)
    # the whole interval ran 30 % slow, kernel included: same answer
    clock.record("a", 2.6 + 10 * 1.3 * k, [1.3 * k] * 10)
    # half the time at full speed, half at half speed: 0.5 + 0.25 of the work each second
    clock.record("a", 2.0 + 5 * k + 5 * 2 * k, [k] * 5 + [2 * k] * 5)
    assert [i["calibrated_s"] for i in clock.intervals] == pytest.approx([2.0, 2.0, 1.5])
    assert [i["work_s"] for i in clock.intervals] == pytest.approx([2.0, 2.6, 2.0])
    assert calibration.speed([k, 2 * k]) == pytest.approx(0.75)


def test_an_interval_is_discarded_on_the_kernel_alone():
    k = calibration.K_REF
    clock = Clock()
    clock.record("cell", 9.0, [k] * calibration.MIN_PASSES)       # slow, readable: kept
    clock.record("cell", 0.1, [k] * (calibration.MIN_PASSES - 1))  # fast, unreadable
    clock.record("cell", 0.1, [])
    assert [i["discarded"] for i in clock.intervals] == [False, True, True]
    # an unreadable interval stays in host seconds
    assert clock.intervals[2]["calibrated_s"] == clock.intervals[2]["work_s"] == 0.1


def test_clock_samples_inside_the_interval():
    clock = Clock()
    clock.unit = "unit1"

    def spin() -> int:
        deadline = time.perf_counter() + 6 * calibration.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
        return 42

    assert clock.timed("a", spin) == 42
    (interval,) = clock.intervals
    assert interval["unit"] == "unit1" and not interval["discarded"]
    assert 4 <= len(interval["passes"]) <= 7
    assert interval["work_s"] < 6 * calibration.INTERVAL_S + 0.05
    # the sampler is gone: nothing fires after the interval
    time.sleep(2 * calibration.INTERVAL_S)
    assert len(interval["passes"]) <= 7
    # an uncalibrated clock only runs the work
    quiet = Clock(calibrate=False)
    assert quiet.timed("a", lambda: 7) == 7 and not quiet.intervals


def test_summary_reports_median_quartiles_and_n():
    s = summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["value"], s["n"]) == (3.0, 5)
    assert s["q1"] < s["value"] < s["q3"]
    assert summary([7.0]) == {"value": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_kernel_does_fixed_work():
    assert calibration.kernel() > 0.0               # raises on a checksum change


def test_selfcheck_verdicts():
    # gap: half the bound; spread: within the bound, a third for ok
    assert selfcheck.verdict("unit_s", 0.04, 0.02, 0.08) == "ok"
    assert selfcheck.verdict("unit_s", 0.04, 0.05, 0.08) == "wide"
    assert selfcheck.verdict("unit_s", 0.041, 0.02, 0.08) == "NOISY"
    assert selfcheck.verdict("unit_s", 0.01, 0.09, 0.08) == "NOISY"
    # setup_s is judged on its gap alone, and is judged
    assert selfcheck.verdict("setup_s", 0.05, 0.30, 0.10) == "ok"
    assert selfcheck.verdict("setup_s", 0.06, 0.01, 0.10) == "NOISY"
    f = selfcheck.figures([[1.0, 1.1, 0.9, 1.0, 1.0], [1.05, 1.05, 1.05, 1.05, 1.05]])
    assert f["medians"] == [1.0, 1.05]
    assert f["gap"] == pytest.approx(0.05 / 1.025)
    assert f["spread"] == pytest.approx(0.10)


def test_classifier_covers_every_package_of_repro():
    source = REPO_ROOT / "src" / "repro"
    files = sorted(source.rglob("*.py"))
    assert files
    seen = set()
    for path in files:
        layer = classify(str(path))
        assert layer in LAYERS and layer != "other", path
        seen.add(layer)
    # every named layer is a real place in the tree
    assert seen == set(LAYERS) - {"other"}


def test_classifier_sends_everything_else_to_other():
    assert classify("/usr/lib/python3.11/heapq.py") == "other"
    assert classify("~") == "other"
    assert classify(str(Path(__file__))) == "other"
    assert other_group("~", "<built-in method _heapq.heappush>") == "heapq"
    assert other_group("~", "<method 'get' of 'dict' objects>") == "dict.get"
    assert other_group("/usr/lib/python3.11/json/encoder.py", "iterencode") == "json"
    assert other_group("/usr/lib/python3.11/random.py", "random") is None


def test_names_units_and_counts_fit_the_contract():
    layer = per_layer_metrics()
    names = [n for n, *_ in layer] + [n for n, *_ in END_TO_END] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [u for _, u, *_ in layer] + [u for _, u, *_ in END_TO_END]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(layer) <= 128
    # the issue's ceiling: no bound wider than 10 %, set-up's among the widest
    bounds = {name: bound for name, *_, bound in END_TO_END}
    assert max(bounds.values()) <= 0.10 == bounds["setup_s"]


def test_benchmark_json_matches_the_code():
    doc = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, why) for name, (_factory, why) in WORKLOADS.items()
    ]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == per_layer_metrics()


def test_traced_runs_repeat_exactly_and_follow_the_seed():
    """Counts repeat exactly for one seed; another seed is another input."""
    first = measure("incast-d256", 3, seconds=None, units=1, trace=True)
    again = measure("incast-d256", 3, seconds=None, units=1, trace=True)
    other = measure("incast-d256", 4, seconds=None, units=1, trace=True)
    for report in (first, again, other):
        assert report["uses_seed"]
        assert report["failures"] == [] and report["failed"] == 0
        assert report["attempted"] >= 1
        shares = [v for k, v in report["per_layer"].items()
                  if k.endswith(".self_share") and not k.startswith("mod.")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert set(report["per_layer"]) == {n for n, *_ in per_layer_metrics()}
    exact = [k for k in first["per_layer"]
             if k.endswith(".calls_per_kpkt") or k == "sim.events_per_pkt"]
    assert len(exact) == len(LAYERS) + 1
    for key in exact:
        assert first["per_layer"][key] == again["per_layer"][key], key
    assert first["packets_profiled"] == again["packets_profiled"]
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
