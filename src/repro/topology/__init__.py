"""Topology builders.

:func:`build_leafspine` wires one datacenter fabric;
:func:`build_interdc` wires the paper's §4.1 evaluation topology — two
leaf–spine datacenters joined by backbone routers over long-haul links.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.interdc": ["InterDcNetwork", "build_interdc"],
    "repro.topology.leafspine": ["Fabric", "build_leafspine"],
    "repro.topology.multidc": ["MultiDcConfig", "MultiDcNetwork", "build_multidc"],
})

__all__ = [
    "Fabric",
    "InterDcNetwork",
    "MultiDcConfig",
    "MultiDcNetwork",
    "build_interdc",
    "build_leafspine",
    "build_multidc",
]
