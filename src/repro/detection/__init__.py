"""Loss detection at the proxy without switch trimming (paper §5, Future Work #1).

The challenge the paper poses: disambiguate *reordered* packets (rampant
under per-packet spraying) from *lost* packets, inside eBPF-like constraints
— bounded memory and simple primitives.  :class:`GapLossDetector` tracks a
bounded set of sequence gaps per flow and declares a gap lost when enough
later packets have arrived and enough time has passed; the eviction policy
decides whether memory pressure produces false positives (evict-as-lost)
or false negatives (evict-silently).  :mod:`repro.detection.evaluation`
measures FP/FN rates and detection latency against ground truth.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.detection.evaluation": [
        "DetectorEvaluation", "StreamEvent", "evaluate_detector", "synthesize_stream",
    ],
    "repro.detection.lossdetector": [
        "DetectorConfig", "FlowTracker", "GapLossDetector",
    ],
    "repro.detection.reorder": ["ReorderingEstimator"],
})

__all__ = [
    "DetectorConfig",
    "DetectorEvaluation",
    "FlowTracker",
    "GapLossDetector",
    "ReorderingEstimator",
    "StreamEvent",
    "evaluate_detector",
    "synthesize_stream",
]
