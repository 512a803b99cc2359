"""Ablation: proxy selection strategies across concurrent incasts (§5, FW#3)."""

from repro.config import TransportConfig, small_interdc_config
from repro.orchestration import run_concurrent_incasts
from repro.units import megabytes
from repro.workloads import uniform_incast

from benchmarks.conftest import run_once

STRATEGIES = ("none", "shared", "round-robin", "central", "decentralized")


def make_jobs():
    return [
        uniform_incast(f"j{i}", degree=2, total_bytes=megabytes(12),
                       receiver_index=i, sender_offset=i * 2)
        for i in range(3)
    ]


def test_contention_ordering(benchmark):
    """Three concurrent incasts under every selection strategy: per-incast
    proxies beat the shared proxy, which beats no proxy."""
    results = run_once(benchmark, lambda: {
        strategy: run_concurrent_incasts(
            make_jobs(),
            scheme="baseline" if strategy == "none" else "streamlined",
            strategy=strategy,
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        for strategy in STRATEGIES
    })
    for strategy, result in results.items():
        assert result.completed, strategy
    icts = {strategy: r.mean_ict_ps for strategy, r in results.items()}
    assert icts["central"] < icts["shared"] < icts["none"]
