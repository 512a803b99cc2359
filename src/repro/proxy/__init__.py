"""Proxy schemes — the paper's contribution.

* :class:`StreamlinedProxy` (§3 Insight 3, §4.1 "Proxy (Streamlined)"):
  one end-to-end connection per flow routed via the proxy; switches trim
  overflowing packets to headers, the proxy reflects trimmed headers back
  to the sender as NACKs within microseconds and forwards everything else.
  Without switch trimming (§5 Future Work #1) the same proxy takes a
  bounded-memory gap ``detector`` (:mod:`repro.detection`) and NACKs the
  losses it infers.
* :class:`NaiveProxy` (§4.1 "Proxy (Naive)"): two full connections per
  flow bridged at the proxy by an in-order relay; the long leg is
  NIC-paced, not window-paced.  The same relay repeated at every
  datacenter of a multi-DC line is :func:`build_relay_chain`.
* :mod:`repro.proxy.placement`: deterministic sender placement and the
  one proxy/relay placement call, :func:`place`.

Each proxy class wires its own flows: ``open(net, src, dst, total_bytes,
cfg, ...)`` takes :class:`~repro.transport.connection.Connection`'s
arguments and returns the flow to ``start()``; ``release(flow)`` tears it
down.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.proxy.naive": ["NaiveProxy", "RelayChain", "build_relay_chain"],
    "repro.proxy.placement": ["pick_senders", "place"],
    "repro.proxy.streamlined": ["ProxyStats", "StreamlinedProxy"],
})

__all__ = [
    "NaiveProxy",
    "ProxyStats",
    "RelayChain",
    "StreamlinedProxy",
    "build_relay_chain",
    "pick_senders",
    "place",
]
