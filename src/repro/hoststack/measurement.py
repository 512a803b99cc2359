"""Measurement harness for latency pipelines.

Mirrors the paper's methodology: generate a test load (the paper uses a
30 s iperf run at 10 Gb/s line rate) through a pipeline and report the
per-packet latency CDF.  Also exports :data:`PIPELINES`, the names an
``IncastScenario.proxy_overhead`` may take: each names the pipeline whose
draws the scenario's proxies charge as per-packet processing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.hoststack.deployments import (
    nic_offload_pipeline,
    tc_proxy_pipeline,
    xdp_proxy_pipeline,
)
from repro.hoststack.ebpf import ebpf_forward_path_pipeline
from repro.hoststack.pipeline import LatencyPipeline
from repro.hoststack.userspace import userspace_proxy_pipeline
from repro.metrics.cdf import EmpiricalCdf
from repro.sim.rng import derive_stream
from repro.units import to_microseconds


@dataclass
class LatencyMeasurement:
    """Samples + CDF of one pipeline run."""

    pipeline: str
    samples_ps: list[int]
    cdf: EmpiricalCdf

    def percentile_us(self, p: float) -> float:
        """Percentile in microseconds."""
        return to_microseconds(round(self.cdf.percentile(p)))

    def table(self, percentiles=(1, 5, 25, 50, 75, 90, 95, 99, 99.9)) -> dict[float, float]:
        """Percentile table in microseconds, ready to print."""
        return {p: self.percentile_us(p) for p in percentiles}


def measure_pipeline(
    pipeline: LatencyPipeline, packets: int = 100_000, seed: int = 0
) -> LatencyMeasurement:
    """Draw ``packets`` per-packet latencies from ``pipeline``."""
    if packets < 1:
        raise ConfigError("packets must be at least 1")
    rng = derive_stream(seed, "hoststack:measure")
    samples = [pipeline.sample(rng) for _ in range(packets)]
    return LatencyMeasurement(
        pipeline=pipeline.name, samples_ps=samples, cdf=EmpiricalCdf(samples)
    )


#: Pipeline name -> factory: the values ``IncastScenario.proxy_overhead``
#: accepts, and the hook placements the ablation benches compare.
PIPELINES: dict[str, Callable[[], LatencyPipeline]] = {
    "ebpf": ebpf_forward_path_pipeline,
    "userspace": userspace_proxy_pipeline,
    "tc": tc_proxy_pipeline,
    "xdp": xdp_proxy_pipeline,
    "offload": nic_offload_pipeline,
}
