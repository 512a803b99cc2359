"""Ablation: proxy hook placement — TC vs XDP vs NIC offload (§5, FW#2).

The paper: "moving to the eXpress Data Path (XDP) hook can further reduce
kernel overhead" and the program "has the potential of being offloaded to
the NIC directly".  We measure the pipeline latency of the three hook
points, then charge each inside the simulated streamlined proxy.
"""

from dataclasses import replace

from repro.hoststack import PIPELINES, measure_pipeline

from benchmarks.conftest import run_cells

HOOKS = ("tc", "xdp", "offload")


def test_hooks_are_strictly_ordered(benchmark, engine, reduced_scenario):
    """offload < XDP < TC at both median and tail — the FW#2 ordering —
    and every hook's cost, charged in the simulated proxy, still lets
    the incast complete."""
    tables = {
        hook: measure_pipeline(PIPELINES[hook](), 100_000, seed=1).table((50, 99))
        for hook in HOOKS
    }
    assert tables["offload"][50] < tables["xdp"][50] < tables["tc"][50]
    assert tables["offload"][99] < tables["xdp"][99] < tables["tc"][99]
    run_cells(benchmark, engine, {
        hook: replace(reduced_scenario, scheme="streamlined", proxy_overhead=hook)
        for hook in HOOKS
    })
