"""Datacenters in a line joined by long-haul backbones (paper §4.1).

An :class:`~repro.config.InterDcConfig` with ``k`` segment latencies
builds ``k + 1`` leaf–spine datacenters in a line, segment ``s`` bridging
DC ``s`` and DC ``s + 1``.  The paper's evaluation topology is the
one-segment line; longer lines are the substrate of the cascaded-proxy
extension.  Traffic enters at DC 0 and the receiver sits in the last DC.

In every segment, backbone router ``b`` connects spine
``b // backbone_per_spine`` on the left and spine ``b % spines`` on the
right; with ``backbone_per_spine == spines`` (the paper's 8) every
(spine, spine) pair is bridged and packet spraying can use all 64
long-haul paths.  Routers are named ``bb{i}`` by their index in build
order across all segments.  Backbone-router ports carry the deep-buffer
queue spec; spine-side ports toward the backbone keep the fabric switch
spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.config import InterDcConfig
from repro.net.network import Network
from repro.net.node import Host, Switch
from repro.sim.simulator import Simulator
from repro.topology.leafspine import Fabric, build_leafspine


@dataclass
class InterDcNetwork:
    """Handles to a built line of datacenters."""

    net: Network
    cfg: InterDcConfig
    fabrics: list[Fabric] = field(default_factory=list)
    #: every backbone router in build order, segment after segment
    backbone: list[Switch] = field(default_factory=list)

    def hosts(self, dc: int) -> list[Host]:
        """All servers in datacenter ``dc``."""
        return self.fabrics[dc].hosts

    def segment_backbone(self, segment: int) -> list[Switch]:
        """The backbone routers between DC ``segment`` and DC ``segment + 1``."""
        per_segment = self.cfg.fabric.spines * self.cfg.backbone_per_spine
        return self.backbone[segment * per_segment:(segment + 1) * per_segment]


def build_interdc(
    sim: Simulator,
    cfg: InterDcConfig,
    routing: str = "spray",
) -> InterDcNetwork:
    """Build the line of datacenters ``cfg`` describes on ``sim`` and finalize routing."""
    net = Network(sim)
    delays = cfg.segment_delays_ps
    fabrics = [
        build_leafspine(net, cfg.fabric, dc=dc, name_prefix=f"dc{dc}", trimming=cfg.trimming)
        for dc in range(len(delays) + 1)
    ]
    backbone_spec = cfg.backbone_queue.with_trimming(cfg.trimming)
    spine_spec = cfg.fabric.switch_queue.with_trimming(cfg.trimming)
    stream = sim.rng.stream

    backbone: list[Switch] = []
    spines = cfg.fabric.spines
    for segment, delay in enumerate(delays):
        left, right = fabrics[segment].spines, fabrics[segment + 1].spines
        for b in range(spines * cfg.backbone_per_spine):
            router = net.add_switch(f"bb{len(backbone)}", dc=-1)
            backbone.append(router)
            for spine in (left[b // cfg.backbone_per_spine], right[b % spines]):
                net.connect(
                    spine,
                    router,
                    cfg.backbone_rate_bps,
                    delay,
                    queue_ab=spine_spec.build(
                        partial(stream, f"queue:{spine.name}->{router.name}")
                    ),
                    queue_ba=backbone_spec.build(
                        partial(stream, f"queue:{router.name}->{spine.name}")
                    ),
                )
    net.finalize(routing=routing)
    return InterDcNetwork(net=net, cfg=cfg, fabrics=fabrics, backbone=backbone)
