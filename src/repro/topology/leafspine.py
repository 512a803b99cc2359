"""Single-datacenter leaf–spine fabric builder."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

from repro.config import FabricConfig
from repro.errors import ConfigError
from repro.net.network import Network
from repro.net.node import Host, Switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.buffers import SharedBuffer


@dataclass
class Fabric:
    """Handles to one built leaf–spine datacenter."""

    dc: int
    spines: list[Switch] = field(default_factory=list)
    leaves: list[Switch] = field(default_factory=list)
    hosts: list[Host] = field(default_factory=list)
    hosts_by_leaf: list[list[Host]] = field(default_factory=list)

    def host(self, index: int) -> Host:
        """The ``index``-th server of the datacenter."""
        return self.hosts[index]


def build_leafspine(
    net: Network,
    cfg: FabricConfig,
    dc: int = 0,
    name_prefix: str = "dc0",
    trimming: bool = False,
) -> Fabric:
    """Wire a leaf–spine fabric into ``net`` and return its handles.

    Every leaf connects to every spine; every server connects to one leaf.
    Switch-side output ports use the fabric's switch queue spec (optionally
    converted to a trimming queue); host NICs use the host queue spec.
    """
    fabric = Fabric(dc=dc)
    switch_spec = cfg.switch_queue.with_trimming(trimming)
    host_spec = cfg.host_queue
    # Each queue gets its ``queue:<port>`` stream as a deferred source and
    # seeds it only at its first in-band draw.
    stream = net.sim.rng.stream

    shared_alpha = cfg.shared_buffer_alpha
    if shared_alpha is not None and trimming:
        raise ConfigError(
            "shared buffers and trimming are mutually exclusive (trimming is "
            "modelled per-port, as in NDP-class switches)"
        )
    pools: dict[int, SharedBuffer] = {}
    if shared_alpha is not None:
        from repro.net.buffers import SharedBuffer, SharedEcnQueue

    def switch_queue(switch: Switch, name: str):
        """Static per-port queue, or a DT queue drawing on the switch pool."""
        source = partial(stream, f"queue:{name}")
        if shared_alpha is None:
            return switch_spec.build(source)
        pool = pools.get(switch.id)
        if pool is None:
            pool = SharedBuffer(cfg.switch_queue.capacity_bytes)
            pools[switch.id] = pool
        return SharedEcnQueue(
            pool,
            shared_alpha,
            cfg.switch_queue.ecn_low_bytes,
            cfg.switch_queue.ecn_high_bytes,
            source,
        )

    for s in range(cfg.spines):
        fabric.spines.append(net.add_switch(f"{name_prefix}-spine{s}", dc=dc))
    for l in range(cfg.leaves):
        leaf = net.add_switch(f"{name_prefix}-leaf{l}", dc=dc)
        fabric.leaves.append(leaf)
        for spine in fabric.spines:
            net.connect(
                leaf,
                spine,
                cfg.link_rate_bps,
                cfg.link_delay_ps,
                queue_ab=switch_queue(leaf, f"{leaf.name}->{spine.name}"),
                queue_ba=switch_queue(spine, f"{spine.name}->{leaf.name}"),
            )
        servers: list[Host] = []
        for h in range(cfg.servers_per_leaf):
            host = net.add_host(f"{name_prefix}-h{l}.{h}", dc=dc)
            servers.append(host)
            fabric.hosts.append(host)
            net.connect(
                host,
                leaf,
                cfg.link_rate_bps,
                cfg.link_delay_ps,
                queue_ab=host_spec.build(partial(stream, f"queue:{host.name}->{leaf.name}")),
                queue_ba=switch_queue(leaf, f"{leaf.name}->{host.name}"),
            )
        fabric.hosts_by_leaf.append(servers)
    return fabric
