"""Ablation: detector false positives vs congestion control (§5 FW#1).

The paper asks whether false positives or false negatives are more fatal
for a trimming-free proxy, and conjectures the answer depends on the
congestion control ("BBR is more resilient to loss").  We force the gap
detector into a false-positive-prone configuration (tiny reorder window,
eager packet threshold, evict-as-lost) and compare how much that costs a
DCTCP-like sender (every spurious NACK is a window cut) versus the
rate-based sender (spurious NACKs only cause spurious retransmissions).
"""

from dataclasses import replace

from repro.detection.lossdetector import DetectorConfig

from benchmarks.conftest import run_cells

#: Aggressive detector: will misread spraying reordering as loss.
FP_PRONE = DetectorConfig(
    max_tracked_gaps=32, packet_threshold=2, reorder_window_ps=1, evict_policy="lost"
)
#: Conservative detector: waits out reordering.
CAREFUL = DetectorConfig(max_tracked_gaps=1024, packet_threshold=16)
DETECTORS = {"careful": CAREFUL, "fp-prone": FP_PRONE}


def test_bbr_tolerates_false_positives_better(benchmark, engine, reduced_scenario):
    """The paper's conjecture, measured: the FP-prone detector degrades the
    loss-cutting sender proportionally more than the rate-based one."""
    results = run_cells(benchmark, engine, {
        (cc, kind): replace(
            reduced_scenario,
            scheme="trimless",
            detector=detector,
            transport=replace(reduced_scenario.transport, cc=cc),
        )
        for cc in ("dctcp", "bbr")
        for kind, detector in DETECTORS.items()
    })
    degradation = {
        cc: results[cc, "fp-prone"].ict_ps / max(results[cc, "careful"].ict_ps, 1)
        for cc in ("dctcp", "bbr")
    }
    assert degradation["bbr"] <= degradation["dctcp"] * 1.05
