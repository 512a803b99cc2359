"""Ablation: does proxy processing overhead defeat the proxy? (paper §5)

The paper argues a user-space proxy's per-packet cost "may defeat the
purpose of using a proxy", while the eBPF design adds only microseconds.
Here we charge each design's measured per-packet latency inside the
simulated streamlined proxy and compare end-to-end incast completion.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_incast

from benchmarks.conftest import run_once

#: variant -> IncastScenario.proxy_overhead (a repro.hoststack pipeline name)
OVERHEADS = {"zero": None, "ebpf": "ebpf", "userspace": "userspace"}


@pytest.mark.parametrize("variant", list(OVERHEADS))
def test_overhead_variant(benchmark, reduced_scenario, variant):
    """Streamlined proxy with no / eBPF-level / user-space-level overhead."""
    scenario = replace(
        reduced_scenario, scheme="streamlined", proxy_overhead=OVERHEADS[variant]
    )
    result = run_once(benchmark, lambda: run_incast(scenario))
    assert result.completed
    benchmark.extra_info.update(
        ablation="proxy-overhead", variant=variant, ict_ms=result.ict_ps / 1e9
    )


def test_ebpf_overhead_is_free_userspace_is_not(benchmark, reduced_scenario):
    """The §5 claim, end to end: eBPF ~ zero-cost; user space visibly worse."""

    def compare():
        icts = {}
        for variant, overhead in OVERHEADS.items():
            scenario = replace(
                reduced_scenario, scheme="streamlined", proxy_overhead=overhead
            )
            icts[variant] = run_incast(scenario).ict_ps
        icts["baseline"] = run_incast(
            replace(reduced_scenario, scheme="baseline")
        ).ict_ps
        return icts

    icts = run_once(benchmark, compare)
    # eBPF costs within a few percent of the ideal proxy
    assert icts["ebpf"] < 1.05 * icts["zero"]
    # the user-space proxy is measurably slower than the eBPF one...
    assert icts["userspace"] > icts["ebpf"]
    # ...yet even it still beats the no-proxy baseline at this scale
    assert icts["userspace"] < icts["baseline"]
    benchmark.extra_info.update(
        ablation="proxy-overhead",
        ict_ms={k: round(v / 1e9, 3) for k, v in icts.items()},
    )
