"""Ablation: streamlined proxying without switch trimming (paper §5, FW#1).

Trimming needs router support; the gap-detector proxy infers losses from
arrival sequences instead.  This bench quantifies what that future-work
design costs relative to trimming-assisted streamlined and how much it
still beats the baseline, plus the detector's sensitivity to its memory
bound (evict-as-lost vs evict-as-forget).
"""

from dataclasses import replace

from repro.detection.lossdetector import DetectorConfig
from repro.units import microseconds

from benchmarks.conftest import run_cells


def test_trimless_lands_between(benchmark, engine, reduced_scenario):
    """Detector-driven NACKs beat the baseline but cannot see tail losses
    the way trimming does (gaps need later arrivals), so trimless sits
    between the two."""
    results = run_cells(benchmark, engine, {
        scheme: replace(reduced_scenario, scheme=scheme)
        for scheme in ("baseline", "streamlined", "trimless")
    })
    icts = {scheme: r.ict_ps for scheme, r in results.items()}
    assert icts["streamlined"] < icts["trimless"] < icts["baseline"]


def test_detector_memory_policies_complete(benchmark, engine, reduced_scenario):
    """FW#1's FP-vs-FN knob under a tight (64-gap) memory bound: both
    eviction policies still carry the incast to completion."""
    run_cells(benchmark, engine, {
        policy: replace(
            reduced_scenario,
            scheme="trimless",
            detector=DetectorConfig(
                max_tracked_gaps=64,
                packet_threshold=8,
                reorder_window_ps=microseconds(20),
                evict_policy=policy,
            ),
        )
        for policy in ("lost", "forget")
    })
