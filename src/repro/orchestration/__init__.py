"""Proxy orchestration across concurrent incasts (paper §5, Future Work #3).

The paper's open questions: proxies must be selected quickly, avoid
contention with other incasts, and selection can be centralized (a global
orchestrator with fresh load state) or decentralized (repeated trials by
each incast, trading selection latency for probe overhead).  This package
provides both, plus the bookkeeping registry and pluggable policies, and a
runner that executes many concurrent incasts under a chosen strategy so
the trade-offs are measurable.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.orchestration.admission": ["AdmissionDecision", "ProxyAdmissionPolicy"],
    "repro.orchestration.central": ["CentralOrchestrator"],
    "repro.orchestration.decentralized": ["DecentralizedSelector"],
    "repro.orchestration.policies": [
        "least_bytes", "least_loaded", "make_queue_depth", "make_round_robin",
    ],
    "repro.orchestration.run": ["MultiIncastResult", "run_concurrent_incasts"],
    "repro.orchestration.state": ["ProxyInfo", "ProxyRegistry"],
})

__all__ = [
    "AdmissionDecision",
    "CentralOrchestrator",
    "DecentralizedSelector",
    "MultiIncastResult",
    "ProxyAdmissionPolicy",
    "ProxyInfo",
    "ProxyRegistry",
    "least_bytes",
    "least_loaded",
    "make_queue_depth",
    "make_round_robin",
    "run_concurrent_incasts",
]
