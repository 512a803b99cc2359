"""Proxy schemes — the paper's contribution.

* :class:`StreamlinedProxy` (§3 Insight 3, §4.1 "Proxy (Streamlined)"):
  one end-to-end connection per flow routed via the proxy; switches trim
  overflowing packets to headers, the proxy reflects trimmed headers back
  to the sender as NACKs within microseconds and forwards everything else.
* :class:`NaiveProxy` (§4.1 "Proxy (Naive)"): two full connections per
  flow bridged at the proxy by an in-order relay; the long leg is
  NIC-paced, not window-paced.
* :class:`TrimlessStreamlinedProxy` (§5 Future Work #1): the streamlined
  scheme without switch trimming support — losses are *inferred* at the
  proxy by a bounded-memory detector (:mod:`repro.detection`).
* :mod:`repro.proxy.placement`: deterministic sender/proxy placement
  helpers shared by the experiment runner and the orchestrator.

Each proxy class wires its own flows: ``open(net, src, dst, total_bytes,
cfg, ...)`` takes :class:`~repro.transport.connection.Connection`'s
arguments and returns the flow to ``start()``; ``release(flow)`` tears it
down.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.proxy.cascade": ["RelayChain", "build_relay_chain"],
    "repro.proxy.naive": ["NaiveProxy", "NaiveRelayedFlow"],
    "repro.proxy.placement": ["pick_proxy_host", "pick_senders"],
    "repro.proxy.streamlined": ["ProxyStats", "StreamlinedProxy"],
    "repro.proxy.trimless": ["TrimlessStreamlinedProxy"],
})

__all__ = [
    "NaiveProxy",
    "NaiveRelayedFlow",
    "ProxyStats",
    "RelayChain",
    "StreamlinedProxy",
    "TrimlessStreamlinedProxy",
    "build_relay_chain",
    "pick_proxy_host",
    "pick_senders",
]
