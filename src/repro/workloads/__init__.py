"""Workload generators for the paper's §2 motivating applications.

Each generator produces :class:`IncastJob` descriptions — groups of flows
converging on one receiver — which the experiment runner and the
open-loop engine turn into simulated traffic:

* :mod:`repro.workloads.incast` — the basic fixed-degree incast of §4 and
  the periodic incast train of ML-training synchronization;
* :mod:`repro.workloads.moe` — Mixture-of-Experts dispatch/combine
  all-to-all phases (each expert is an incast receiver);
* :mod:`repro.workloads.storage` — erasure-coded fragment reconstruction
  (k fragments read simultaneously to rebuild one);
* :mod:`repro.workloads.georeplication` — strongly consistent quorum
  writes aggregating at a primary.

Construction is registry-driven: every generator is registered in
:data:`repro.workloads.registry.WORKLOAD_REGISTRY` as a
:class:`~repro.workloads.registry.WorkloadSpec`, and
:func:`~repro.workloads.registry.build_workload` resolves by name.  The
:mod:`repro.workloads.engine` module is the one runner for incasts that
share a fabric.  It turns tenant-capable specs into open-loop production
traffic: seeded Poisson arrivals, heavy-tailed sizes
(:mod:`repro.workloads.sizes`), a diurnal load curve, and streaming
metric folds over minutes of simulated time.  Given a fixed job list
instead, it runs the list to its last completion (the orchestration
runner's concurrent incasts).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.engine import (
        DiurnalCurve,
        OpenLoopEngine,
        WorkloadEngineConfig,
        WorkloadFold,
        WorkloadResult,
        rss_plateau_ok,
    )
    from repro.workloads.georeplication import QuorumConfig, quorum_write_jobs
    from repro.workloads.incast import IncastJob, periodic_incasts, uniform_incast
    from repro.workloads.moe import MoEConfig, moe_combine_jobs, moe_dispatch_jobs
    from repro.workloads.registry import (
        WORKLOAD_REGISTRY,
        TenantRequest,
        WorkloadRegistry,
        WorkloadSpec,
        build_workload,
        register_workload,
        tenant_jobs,
    )
    from repro.workloads.sizes import HeavyTailConfig
    from repro.workloads.storage import ReconstructionConfig, reconstruction_jobs

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.engine": [
        "DiurnalCurve", "OpenLoopEngine", "WorkloadEngineConfig", "WorkloadFold",
        "WorkloadResult", "rss_plateau_ok",
    ],
    "repro.workloads.georeplication": ["QuorumConfig", "quorum_write_jobs"],
    "repro.workloads.incast": ["IncastJob", "periodic_incasts", "uniform_incast"],
    "repro.workloads.moe": ["MoEConfig", "moe_combine_jobs", "moe_dispatch_jobs"],
    "repro.workloads.registry": [
        "TenantRequest", "WORKLOAD_REGISTRY", "WorkloadRegistry", "WorkloadSpec",
        "build_workload", "register_workload", "tenant_jobs",
    ],
    "repro.workloads.sizes": ["HeavyTailConfig"],
    "repro.workloads.storage": ["ReconstructionConfig", "reconstruction_jobs"],
})

__all__ = [
    "DiurnalCurve",
    "HeavyTailConfig",
    "IncastJob",
    "MoEConfig",
    "OpenLoopEngine",
    "QuorumConfig",
    "ReconstructionConfig",
    "TenantRequest",
    "WORKLOAD_REGISTRY",
    "WorkloadEngineConfig",
    "WorkloadFold",
    "WorkloadRegistry",
    "WorkloadResult",
    "WorkloadSpec",
    "build_workload",
    "moe_combine_jobs",
    "moe_dispatch_jobs",
    "periodic_incasts",
    "quorum_write_jobs",
    "reconstruction_jobs",
    "register_workload",
    "rss_plateau_ok",
    "tenant_jobs",
    "uniform_incast",
]
