"""Ablation: does proxy processing overhead defeat the proxy? (paper §5)

The paper argues a user-space proxy's per-packet cost "may defeat the
purpose of using a proxy", while the eBPF design adds only microseconds.
Here we charge each design's measured per-packet latency inside the
simulated streamlined proxy and compare end-to-end incast completion.
"""

from dataclasses import replace

from benchmarks.conftest import run_cells

#: variant -> IncastScenario.proxy_overhead (a repro.hoststack pipeline name)
OVERHEADS = {"zero": None, "ebpf": "ebpf", "userspace": "userspace"}


def test_ebpf_overhead_is_free_userspace_is_not(benchmark, engine, reduced_scenario):
    """The §5 claim, end to end: eBPF ~ zero-cost; user space visibly worse."""
    cells = {
        variant: replace(reduced_scenario, scheme="streamlined", proxy_overhead=overhead)
        for variant, overhead in OVERHEADS.items()
    }
    cells["baseline"] = replace(reduced_scenario, scheme="baseline")
    icts = {k: r.ict_ps for k, r in run_cells(benchmark, engine, cells).items()}
    # eBPF costs within a few percent of the ideal proxy
    assert icts["ebpf"] < 1.05 * icts["zero"]
    # the user-space proxy is measurably slower than the eBPF one...
    assert icts["userspace"] > icts["ebpf"]
    # ...yet even it still beats the no-proxy baseline at this scale
    assert icts["userspace"] < icts["baseline"]
