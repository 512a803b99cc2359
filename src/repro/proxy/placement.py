"""Deterministic placement of incast senders, proxies and relays.

The experiment runner (and the orchestrator, for multi-incast runs) places
senders round-robin across the sending datacenter's leaves — spreading the
incast the way a scheduler with no incast-awareness would.  Every proxy,
standby and relay host is then chosen by :func:`place`: a free server on
the leaf carrying the fewest busy hosts, so the proxy's down-ToR link is a
clean bottleneck rather than sharing a ToR with most senders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.topology.leafspine import Fabric


def pick_senders(fabric: "Fabric", degree: int, exclude: set[int] | None = None) -> list["Host"]:
    """Choose ``degree`` sender hosts round-robin across leaves.

    ``exclude`` lists host ids that must not be chosen (e.g. the proxy).
    """
    excluded = exclude or set()
    chosen: list[Host] = []
    per_leaf = [list(hosts) for hosts in fabric.hosts_by_leaf]
    rank = 0
    while len(chosen) < degree:
        progressed = False
        for hosts in per_leaf:
            if len(chosen) >= degree:
                break
            if rank < len(hosts) and hosts[rank].id not in excluded:
                chosen.append(hosts[rank])
                progressed = True
        if not progressed and rank >= max(len(h) for h in per_leaf):
            raise TopologyError(
                f"cannot place {degree} senders in a fabric with "
                f"{sum(len(h) for h in per_leaf)} servers ({len(excluded)} excluded)"
            )
        rank += 1
    return chosen


def place(fabric: "Fabric", busy: list["Host"], n: int = 1) -> list["Host"]:
    """Choose ``n`` proxy or relay hosts in ``fabric``, none of them busy.

    Each is the last free server on the leaf with the fewest busy hosts;
    ties go to the last leaf, so the default small-degree layouts keep
    proxies and senders apart.  Hosts chosen earlier in the call count as
    busy, and ``busy`` hosts outside ``fabric`` count toward none of its
    leaves.
    """
    leaves = fabric.hosts_by_leaf
    taken = {h.id for h in busy}
    chosen: list[Host] = []
    for _ in range(n):
        load = [sum(h.id in taken for h in hosts) for hosts in leaves]
        order = sorted(range(len(leaves)), key=lambda i: (load[i], -i))
        free = [h for i in order for h in reversed(leaves[i]) if h.id not in taken]
        if not free:
            raise TopologyError("no free server available to host the proxy")
        taken.add(free[0].id)
        chosen.append(free[0])
    return chosen
