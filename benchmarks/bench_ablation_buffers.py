"""Ablation: can buffers substitute for the proxy? (paper §1/§2 argument)

The paper dismisses deep/shared buffers as an answer to inter-DC incast:
absorbing a BDP-scale burst needs buffers "expensive to build" and the
long feedback loop remains.  We measure it: baseline ICT under
Dynamic-Threshold shared buffers at several alpha values, against the
streamlined proxy on unchanged (static per-port) buffers.
"""

from dataclasses import replace

from benchmarks.conftest import run_cells

ALPHAS = (0.5, 2.0, 8.0)


def test_buffer_sharing_does_not_substitute_for_the_proxy(
    benchmark, engine, reduced_scenario
):
    """No alpha setting approaches the proxy's ICT: the feedback loop, not
    buffer capacity, is the binding constraint."""
    cells = {
        alpha: replace(
            reduced_scenario,
            interdc=reduced_scenario.interdc.with_shared_buffers(alpha),
        )
        for alpha in ALPHAS
    }
    cells["proxy"] = replace(reduced_scenario, scheme="streamlined")
    results = run_cells(benchmark, engine, cells)
    proxy = results["proxy"].ict_ps
    for alpha in ALPHAS:
        assert proxy < 0.5 * results[alpha].ict_ps, (
            f"alpha={alpha} should not rival the proxy"
        )
