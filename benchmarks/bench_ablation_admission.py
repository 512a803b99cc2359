"""Ablation: selective proxying via the admission policy (§5, FW#3).

A mixed workload — one incast below the loss crossover, one above — run
three ways: never proxy, always proxy, and gated by the crossover policy.
Selective proxying should match always-proxy on the large incast while
sparing the small one the extra hop and the proxy a pointless assignment.
"""

from repro.config import TransportConfig, small_interdc_config
from repro.orchestration import ProxyAdmissionPolicy, run_concurrent_incasts
from repro.units import megabytes
from repro.workloads import uniform_incast

from benchmarks.conftest import run_once


def mixed_jobs():
    return [
        uniform_incast("below-crossover", degree=2, total_bytes=megabytes(2),
                       receiver_index=0, sender_offset=0),
        uniform_incast("above-crossover", degree=2, total_bytes=megabytes(20),
                       receiver_index=1, sender_offset=2),
    ]


def run(variant):
    cfg = small_interdc_config()
    transport = TransportConfig(payload_bytes=4096)
    if variant == "never":
        return run_concurrent_incasts(
            mixed_jobs(), scheme="baseline", strategy="none",
            interdc=cfg, transport=transport,
        )
    return run_concurrent_incasts(
        mixed_jobs(), scheme="streamlined", strategy="central",
        interdc=cfg, transport=transport,
        admission=ProxyAdmissionPolicy() if variant == "selective" else None,
    )


def test_selective_matches_always_where_it_matters(benchmark):
    """Gating keeps the big win and skips the pointless assignment."""
    results = run_once(benchmark, lambda: {
        variant: run(variant) for variant in ("never", "always", "selective")
    })
    for variant, result in results.items():
        assert result.completed, variant
    large = "above-crossover"
    small = "below-crossover"
    # the large incast keeps the full proxy benefit under gating
    assert results["selective"].ict_ps[large] < 0.5 * results["never"].ict_ps[large]
    # the small incast is within noise of direct transmission
    assert results["selective"].ict_ps[small] < 1.1 * results["never"].ict_ps[small]
    # and the policy assigned exactly one proxy
    assert sorted(results["selective"].proxy_assignments) == [large]
