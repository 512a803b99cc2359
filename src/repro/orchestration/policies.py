"""Selection policies: given the registry, pick a proxy host id."""

from __future__ import annotations

from typing import Callable

from repro.errors import OrchestrationError
from repro.orchestration.state import ProxyRegistry

Policy = Callable[[ProxyRegistry], int]


def least_loaded(registry: ProxyRegistry) -> int:
    """Proxy with the fewest active incasts (ties: lowest assigned bytes)."""
    proxies = registry.proxies
    if not proxies:
        raise OrchestrationError("no registered proxies")
    best = min(proxies, key=lambda p: (p.load, p.assigned_bytes, p.host_id))
    return best.host_id


def least_bytes(registry: ProxyRegistry) -> int:
    """Proxy with the least outstanding assigned bytes."""
    proxies = registry.proxies
    if not proxies:
        raise OrchestrationError("no registered proxies")
    best = min(proxies, key=lambda p: (p.assigned_bytes, p.load, p.host_id))
    return best.host_id


def make_queue_depth(hosts_by_id: dict, net=None) -> Policy:
    """Telemetry-driven placement: pick the proxy whose local queues are
    shallowest *right now*.

    Depth is the candidate host's NIC backlog plus (when ``net`` is
    given) the backlog of every switch port feeding that host — the same
    signal the control plane's proxy pool uses to choose a migration
    target.  Ties break by registry load, then host id, so selection
    stays deterministic.  Registry-only policies see assignments; this
    one sees the actual bytes queued in the fabric.
    """
    return _QueueDepth(hosts_by_id, net)


def make_round_robin() -> Policy:
    """A stateful round-robin policy (ignores load)."""
    return _RoundRobin()


# Policies with state are module-level classes, not closures, so a
# checkpoint of the run holding them pickles them by reference.


class _QueueDepth:
    def __init__(self, hosts_by_id: dict, net) -> None:
        self.hosts_by_id = hosts_by_id
        self.net = net

    def depth(self, host_id: int) -> int:
        host = self.hosts_by_id[host_id]
        total = host.nic.backlog_bytes
        net = self.net
        if net is not None:
            for neighbor in net.adjacency.get(host.id, ()):
                port = net.nodes[neighbor].ports.get(host.id)
                if port is not None:
                    total += port.backlog_bytes
        return total

    def __call__(self, registry: ProxyRegistry) -> int:
        proxies = registry.proxies
        if not proxies:
            raise OrchestrationError("no registered proxies")
        best = min(proxies, key=lambda p: (self.depth(p.host_id), p.load, p.host_id))
        return best.host_id


class _RoundRobin:
    def __init__(self) -> None:
        self.cursor = 0

    def __call__(self, registry: ProxyRegistry) -> int:
        hosts = registry.host_ids
        if not hosts:
            raise OrchestrationError("no registered proxies")
        host = hosts[self.cursor % len(hosts)]
        self.cursor += 1
        return host
