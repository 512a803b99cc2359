"""repro — reproduction of "Mitigating Inter-datacenter Incast with a Proxy"
(HotNets '25).

A from-scratch packet-level datacenter network simulator plus five built-in
schemes (the paper's Baseline, Proxy-Naive and Proxy-Streamlined, and the
trim-free and hot-standby variants of the last) and three competitors
from the related work (:mod:`repro.competitors`), a host-stack
latency model standing in for the paper's eBPF testbed, and working
versions of the paper's future-work directions (trimming-free loss
detection, proxy orchestration, incast programming abstractions and
pattern-aware detection).

Quick start::

    from repro import build_scenario, run_incast, small_interdc_config
    from repro.units import megabytes

    scenario = build_scenario(
        "streamlined", degree=4, total_bytes=megabytes(10),
        interdc=small_interdc_config(),
    )
    result = run_incast(scenario)
    print(f"incast completion time: {result.ict_ms:.2f} ms")

Schemes are data: every harness dispatches through
:data:`repro.schemes.SCHEME_REGISTRY`, and third parties add their own
with :func:`repro.schemes.register_scheme`.  Workloads follow the same
pattern: :data:`repro.workloads.registry.WORKLOAD_REGISTRY` maps names to
:class:`~repro.workloads.registry.WorkloadSpec` entries,
:func:`repro.build_workload` resolves them, and the open-loop engine
(``python -m repro workload``) mixes tenant-capable specs into
minutes-long production traffic with bounded-memory streaming metrics
(:class:`repro.metrics.MetricsConfig`) and checkpoint/restore.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import (
        FabricConfig,
        InterDcConfig,
        QueueSpec,
        TransportConfig,
        paper_interdc_config,
        small_interdc_config,
    )
    from repro.experiments.grid import run_grid
    from repro.experiments.parallel import ExperimentEngine, ResultCache
    from repro.experiments.runner import (
        IncastResult,
        IncastScenario,
        build_scenario,
        run_incast,
    )
    from repro.metrics.config import MetricsConfig
    from repro.net.network import Network
    from repro.schemes import (
        SCHEME_REGISTRY,
        SCHEMES,
        SchemeRegistry,
        SchemeSpec,
        register_scheme,
    )
    from repro.workloads.registry import (
        WORKLOAD_REGISTRY,
        WorkloadRegistry,
        WorkloadSpec,
        build_workload,
        register_workload,
    )
    from repro.sim.simulator import Simulator
    from repro.telemetry.options import RunOptions
    from repro.telemetry.recorder import TelemetryRecorder, TelemetrySnapshot
    from repro.telemetry.sweep import SweepTelemetry
    from repro.topology.interdc import build_interdc
    from repro.transport.connection import Connection

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": [
        "FabricConfig", "InterDcConfig", "QueueSpec", "TransportConfig",
        "paper_interdc_config", "small_interdc_config",
    ],
    "repro.experiments.grid": ["run_grid"],
    "repro.experiments.parallel": ["ExperimentEngine", "ResultCache"],
    "repro.experiments.runner": [
        "IncastResult", "IncastScenario", "build_scenario", "run_incast",
    ],
    "repro.metrics.config": ["MetricsConfig"],
    "repro.net.network": ["Network"],
    "repro.schemes": [
        "SCHEMES", "SCHEME_REGISTRY", "SchemeRegistry", "SchemeSpec", "register_scheme",
    ],
    "repro.sim.simulator": ["Simulator"],
    "repro.telemetry.options": ["RunOptions"],
    "repro.telemetry.recorder": ["TelemetryRecorder", "TelemetrySnapshot"],
    "repro.telemetry.sweep": ["SweepTelemetry"],
    "repro.topology.interdc": ["build_interdc"],
    "repro.transport.connection": ["Connection"],
    "repro.workloads.registry": [
        "WORKLOAD_REGISTRY", "WorkloadRegistry", "WorkloadSpec", "build_workload",
        "register_workload",
    ],
})

__version__ = "1.2.0"

__all__ = [
    "Connection",
    "ExperimentEngine",
    "FabricConfig",
    "IncastResult",
    "IncastScenario",
    "InterDcConfig",
    "MetricsConfig",
    "Network",
    "QueueSpec",
    "ResultCache",
    "RunOptions",
    "SCHEMES",
    "SCHEME_REGISTRY",
    "SchemeRegistry",
    "SchemeSpec",
    "Simulator",
    "SweepTelemetry",
    "TelemetryRecorder",
    "TelemetrySnapshot",
    "TransportConfig",
    "WORKLOAD_REGISTRY",
    "WorkloadRegistry",
    "WorkloadSpec",
    "__version__",
    "build_interdc",
    "build_scenario",
    "build_workload",
    "paper_interdc_config",
    "register_scheme",
    "register_workload",
    "run_grid",
    "run_incast",
    "small_interdc_config",
]
