"""Network-wide counter collection.

Walks every output port of a network after a run and aggregates queue
statistics — drops, trims, ECN marks, peak occupancy — which the
experiment reports use to explain *why* a scheme behaved as it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING


if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


@dataclass
class NetworkCounters:
    """Aggregated port/queue counters for one run."""

    packets_dropped: int = 0
    packets_lost_to_failures: int = 0
    packets_blackholed: int = 0
    packets_corrupted: int = 0
    corrupt_drops: int = 0
    packets_trimmed: int = 0
    packets_marked: int = 0
    bytes_dropped: int = 0
    max_queue_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    per_port_max: dict[str, int] = field(default_factory=dict)


def collect_network_counters(net: "Network", top_ports: int = 16) -> NetworkCounters:
    """Aggregate counters from every port in ``net``."""
    counters = NetworkCounters()
    for node in net.nodes.values():
        for port in node.ports.values():
            stats = port.queue.stats
            counters.packets_dropped += stats.dropped
            counters.packets_lost_to_failures += port.dropped_while_down
            counters.packets_blackholed += port.blackholed_packets
            counters.packets_corrupted += port.corrupted_packets
            counters.packets_trimmed += stats.trimmed
            counters.packets_marked += stats.marked
            counters.bytes_dropped += stats.dropped_bytes
            counters.tx_packets += port.tx_packets
            counters.tx_bytes += port.tx_bytes
            if stats.max_occupied_bytes > counters.max_queue_bytes:
                counters.max_queue_bytes = stats.max_occupied_bytes
            if stats.max_occupied_bytes > 0:
                counters.per_port_max[port.name] = stats.max_occupied_bytes
    for host in net.hosts:
        counters.corrupt_drops += host.corrupt_dropped
    if len(counters.per_port_max) > top_ports:
        counters.per_port_max = dict(
            sorted(counters.per_port_max.items(), key=lambda kv: -kv[1])[:top_ports]
        )
    return counters
