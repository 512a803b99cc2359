"""Incast pattern detection and prediction (paper §6, "pattern-aware rerouting").

Two mechanisms the research agenda calls for:

* :class:`OnlineIncastDetector` — reactive: per-destination sliding-window
  fan-in/byte counters over observed flow arrivals, flagging a destination
  as under incast the moment enough distinct sources converge on it.
* :class:`PeriodicIncastPredictor` — proactive: autocorrelation over a
  traffic time series (ML training synchronization phases are periodic)
  to estimate the period and predict the next burst, so the operator can
  stage a proxy *before* the incast starts.
* :class:`DistributedIncastDetector` — the in-network variant: per-switch
  constant-space sketches merged per destination, selectable (alongside
  the online detector) as a scheme detection backend through
  :func:`make_detection_backend`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.patterns.controller": ["ControllerConfig", "PatternAwareController"],
    "repro.patterns.detector": [
        "DetectionEvent", "DetectorSettings", "OnlineIncastDetector",
    ],
    "repro.patterns.distributed": [
        "DETECTION_BACKENDS", "DistributedIncastDetector", "LocalIncastSketch",
        "SketchSettings", "make_detection_backend",
    ],
    "repro.patterns.predictor": ["PeriodEstimate", "PeriodicIncastPredictor"],
    "repro.patterns.run": ["PatternAwareResult", "run_pattern_aware"],
})

__all__ = [
    "ControllerConfig",
    "DETECTION_BACKENDS",
    "DetectionEvent",
    "DetectorSettings",
    "DistributedIncastDetector",
    "LocalIncastSketch",
    "OnlineIncastDetector",
    "PatternAwareController",
    "PatternAwareResult",
    "PeriodEstimate",
    "PeriodicIncastPredictor",
    "SketchSettings",
    "make_detection_backend",
    "run_pattern_aware",
]
