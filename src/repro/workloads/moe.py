"""Mixture-of-Experts all-to-all traffic (paper §2).

In MoE training, a gating function routes each token to an expert; the
dispatch (and the symmetric combine) phase is an all-to-all in which every
expert simultaneously receives token batches from many senders — one
concurrent incast per expert.  When experts are sharded across
datacenters, those incasts cross the long-haul links.

The generator assigns tokens to experts with a configurable Zipf skew
(real gating is rarely uniform), producing one :class:`IncastJob` per
remote expert per training step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.sim.rng import derive_stream
from repro.workloads.incast import IncastJob


@dataclass(frozen=True)
class MoEConfig:
    """One MoE layer's communication shape."""

    senders: int = 8  # devices holding tokens (sending datacenter)
    experts: int = 4  # experts in the remote datacenter
    tokens_per_sender: int = 4096
    token_bytes: int = 4096  # hidden-dim activation per token
    zipf_skew: float = 1.2  # 0 = uniform gating
    steps: int = 1
    step_interval_ps: int = 0  # gap between training steps
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.senders, self.experts, self.tokens_per_sender, self.token_bytes) < 1:
            raise WorkloadError("MoE dimensions must be at least 1")
        if self.zipf_skew < 0:
            raise WorkloadError("zipf_skew must be non-negative")
        if self.steps < 1:
            raise WorkloadError("steps must be at least 1")


def _expert_weights(cfg: MoEConfig) -> list[float]:
    if cfg.zipf_skew == 0:
        return [1.0] * cfg.experts
    return [1.0 / (rank + 1) ** cfg.zipf_skew for rank in range(cfg.experts)]


def moe_combine_jobs(cfg: MoEConfig) -> list[IncastJob]:
    """The combine phase: experts return processed tokens, so every *worker*
    becomes an incast receiver fed by all experts.  Both datacenters are
    built from one fabric config, so the runners send from datacenter 0
    and the experts' datacenter simply plays that role."""
    rng = derive_stream(cfg.seed, "workload:moe-combine")
    weights = _expert_weights(cfg)
    jobs: list[IncastJob] = []
    for step in range(cfg.steps):
        # bytes_back[s][e] = token bytes expert e returns to worker s
        bytes_back = [[0] * cfg.experts for _ in range(cfg.senders)]
        for sender in range(cfg.senders):
            assignments = rng.choices(
                range(cfg.experts), weights=weights, k=cfg.tokens_per_sender
            )
            for expert in assignments:
                bytes_back[sender][expert] += cfg.token_bytes
        for sender in range(cfg.senders):
            experts = tuple(
                e for e, volume in enumerate(bytes_back[sender]) if volume > 0
            )
            if not experts:
                continue
            jobs.append(
                IncastJob(
                    name=f"moe-combine-step{step}-worker{sender}",
                    sender_indices=experts,
                    receiver_index=sender,
                    flow_bytes=tuple(
                        bytes_back[sender][e] for e in experts
                    ),
                    start_ps=step * cfg.step_interval_ps,
                )
            )
    return jobs


def moe_dispatch_jobs(cfg: MoEConfig) -> list[IncastJob]:
    """One dispatch phase's incasts: job ``step<i>/expert<e>`` aggregates the
    token bytes every sender routes to expert ``e`` in step ``i``."""
    rng = derive_stream(cfg.seed, "workload:moe-dispatch")
    weights = _expert_weights(cfg)
    jobs: list[IncastJob] = []
    for step in range(cfg.steps):
        # tokens_to[e][s] = tokens sender s routes to expert e this step
        tokens_to = [[0] * cfg.senders for _ in range(cfg.experts)]
        for sender in range(cfg.senders):
            assignments = rng.choices(
                range(cfg.experts), weights=weights, k=cfg.tokens_per_sender
            )
            for expert in assignments:
                tokens_to[expert][sender] += 1
        for expert in range(cfg.experts):
            flow_bytes = tuple(
                tokens * cfg.token_bytes
                for tokens in tokens_to[expert]
                if tokens > 0
            )
            senders = tuple(
                s for s, tokens in enumerate(tokens_to[expert]) if tokens > 0
            )
            if not senders:
                continue
            jobs.append(
                IncastJob(
                    name=f"moe-step{step}-expert{expert}",
                    sender_indices=senders,
                    receiver_index=expert,
                    flow_bytes=flow_bytes,
                    start_ps=step * cfg.step_interval_ps,
                )
            )
    return jobs
