"""Reliable windowed transport with the paper's DCTCP-like congestion control.

Public surface: :class:`Connection` (wires a sender/receiver pair across a
:class:`~repro.net.network.Network`), the endpoints themselves, the
congestion controllers, and the RTT estimator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transport.aimd": ["RenoAimd"],
    "repro.transport.cc_base": ["CongestionControl", "UnlimitedWindow"],
    "repro.transport.connection": ["Connection", "make_congestion_control"],
    "repro.transport.dctcp": ["DctcpLike"],
    "repro.transport.rate_based": ["RateBased"],
    "repro.transport.receiver": ["AckingReceiver", "ReceiverStats"],
    "repro.transport.rtt": ["RttEstimator"],
    "repro.transport.sender": ["SenderStats", "WindowedSender"],
})

__all__ = [
    "AckingReceiver",
    "CongestionControl",
    "Connection",
    "DctcpLike",
    "RateBased",
    "ReceiverStats",
    "RenoAimd",
    "RttEstimator",
    "SenderStats",
    "UnlimitedWindow",
    "WindowedSender",
    "make_congestion_control",
]
