"""Packet-level network substrate.

This package models the data plane the paper's simulations need:
packets, serializing links, output ports, queue disciplines (drop-tail,
RED/ECN-marking, NDP-style trimming), switches with pluggable routing
(per-packet spraying or flow-hash ECMP), and hosts with a demultiplexing
NIC.  The control plane — who sends what, when — lives in
:mod:`repro.transport` and :mod:`repro.proxy`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.network": ["Network"],
    "repro.net.node": ["Host", "Node", "Switch"],
    "repro.net.packet": ["Packet", "PacketType"],
    "repro.net.port": ["OutputPort"],
    "repro.net.queues": [
        "DropTailQueue", "EcnQueue", "EnqueueOutcome", "HostQueue", "QueueStats",
        "TrimmingQueue",
    ],
    "repro.net.routing": [
        "DisjointSprayRouting", "EcmpRouting", "SprayRouting", "build_next_hop_tables",
        "install_disjoint_spray",
    ],
})

__all__ = [
    "DisjointSprayRouting",
    "DropTailQueue",
    "EcmpRouting",
    "EcnQueue",
    "EnqueueOutcome",
    "Host",
    "HostQueue",
    "Network",
    "Node",
    "OutputPort",
    "Packet",
    "PacketType",
    "QueueStats",
    "SprayRouting",
    "Switch",
    "TrimmingQueue",
    "build_next_hop_tables",
    "install_disjoint_spray",
]
