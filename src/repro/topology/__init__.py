"""Topology builders.

:func:`build_leafspine` wires one datacenter fabric;
:func:`build_interdc` wires a line of leaf–spine datacenters joined by
backbone routers over long-haul links — the paper's §4.1 evaluation
topology is its one-segment case.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.interdc": ["InterDcNetwork", "build_interdc"],
    "repro.topology.leafspine": ["Fabric", "build_leafspine"],
})

__all__ = [
    "Fabric",
    "InterDcNetwork",
    "build_interdc",
    "build_leafspine",
]
