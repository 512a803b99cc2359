"""Ablation: proxy hook placement — TC vs XDP vs NIC offload (§5, FW#2).

The paper: "moving to the eXpress Data Path (XDP) hook can further reduce
kernel overhead" and the program "has the potential of being offloaded to
the NIC directly".  We measure the pipeline latency of the three hook
points, then charge each inside the simulated streamlined proxy.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_incast
from repro.hoststack import PIPELINES, measure_pipeline

from benchmarks.conftest import run_once

HOOKS = ("tc", "xdp", "offload")


@pytest.mark.parametrize("hook", HOOKS)
def test_hook_pipeline_latency(benchmark, hook):
    """Per-packet latency distribution of one hook placement."""
    m = run_once(benchmark, lambda: measure_pipeline(PIPELINES[hook](), 100_000, seed=0))
    benchmark.extra_info.update(
        ablation="hooks", hook=hook,
        p50_us=m.percentile_us(50), p99_us=m.percentile_us(99),
    )


def test_hooks_are_strictly_ordered(benchmark):
    """offload < XDP < TC at both median and tail — the FW#2 ordering."""

    def medians():
        return {
            hook: measure_pipeline(PIPELINES[hook](), 100_000, seed=1).table((50, 99))
            for hook in HOOKS
        }

    tables = run_once(benchmark, medians)
    assert tables["offload"][50] < tables["xdp"][50] < tables["tc"][50]
    assert tables["offload"][99] < tables["xdp"][99] < tables["tc"][99]
    benchmark.extra_info.update(ablation="hooks", tables={
        hook: {str(p): round(v, 3) for p, v in t.items()} for hook, t in tables.items()
    })


@pytest.mark.parametrize("hook", HOOKS)
def test_hook_end_to_end(benchmark, reduced_scenario, hook):
    """Charging each hook's per-packet cost in the simulated proxy."""
    scenario = replace(reduced_scenario, scheme="streamlined", proxy_overhead=hook)
    result = run_once(benchmark, lambda: run_incast(scenario))
    assert result.completed
    benchmark.extra_info.update(
        ablation="hooks", hook=hook, ict_ms=result.ict_ps / 1e9
    )
