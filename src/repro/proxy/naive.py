"""The Naive proxy (paper §4.1 "Proxy (Naive)", §5 "independent connections").

For each flow the proxy terminates two full connections:

* **sender → proxy_R** — an ordinary DCTCP-like connection contained in
  the sending datacenter, so all congestion feedback (ECN marks, loss,
  µs-level timeouts) reaches the sender within microseconds;
* **proxy_S → receiver** — the long-haul leg.  Per the paper, proxy_S
  "sends a packet onto the wire as long as the queue at proxy_R is
  non-empty and there is bandwidth available": it is NIC-paced (no
  congestion window) but still reliable (RACK/RTO-based retransmission).

The relay preserves byte-stream order: proxy_R delivers in-order segments
and each delivery releases one segment to proxy_S.

The same split connection, repeated at every datacenter of a longer
:class:`~repro.config.InterDcConfig` line, is the cascaded-relay
extension (:mod:`repro.experiments.cascade`): :func:`build_relay_chain`
wires ``src -> relays... -> dst`` as one leg per segment, so each segment
gets a window sized to *its own* BDP and loss recovery over *its own* RTT.
The Naive proxy is its two-leg case; the cascade's relay legs run the
scenario's congestion control, where Naive's long-haul leg is NIC-paced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.config import TransportConfig
from repro.errors import ProxyError
from repro.transport.connection import Connection
from repro.transport.receiver import AckingReceiver

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Host
    from repro.sim.simulator import Simulator
    from repro.transport.sender import WindowedSender


def _relay_one(next_sender: "WindowedSender", seq: int) -> None:
    """A leg delivered segment ``seq``: release one on the next leg.

    Module-level (bound with :func:`functools.partial`) so a checkpoint
    pickles it by reference.
    """
    next_sender.release(1)


@dataclass
class RelayChain:
    """The per-segment connections realizing one relayed flow.

    ``legs[0]`` leaves the source and ``legs[-1]`` reaches the destination;
    every later leg idles until the leg before it delivers in order.
    """

    legs: list[Connection]

    @property
    def completed(self) -> bool:
        """True once the final receiver has every byte."""
        return self.legs[-1].completed

    @property
    def hops(self) -> int:
        """Number of connections in the chain."""
        return len(self.legs)

    def start(self, delay_ps: int = 0) -> None:
        """Start every leg (downstream legs idle until data is relayed)."""
        for leg in self.legs:
            leg.start(delay_ps)

    def backlog_packets(self, hop: int) -> int:
        """Segments delivered to relay ``hop`` but not yet sent onward."""
        sender = self.legs[hop + 1].sender
        return sender.available - sender.next_new

    def teardown(self) -> None:
        """Unregister every leg's endpoints."""
        for leg in self.legs:
            leg.teardown()


def build_relay_chain(
    net: "Network",
    src: "Host",
    dst: "Host",
    total_bytes: int,
    cfg: TransportConfig,
    relay_hosts: list["Host"],
    *,
    relay_cc: str | None = None,
    on_complete: Callable[[AckingReceiver], None] | None = None,
    on_sender_fail: Callable[["WindowedSender"], None] | None = None,
    label: str = "chain",
) -> RelayChain:
    """Wire ``src -> relay_hosts... -> dst`` as chained connections.

    The first leg runs ``cfg.cc``; every leg a relay sends runs
    ``relay_cc`` (``None`` = ``cfg.cc`` too), starts with zero released
    packets and is fed by the previous leg's in-order delivery.  Any leg
    giving up kills the relayed flow (a dead leg starves the ones after
    it), so ``on_sender_fail`` rides every leg.
    """
    if not relay_hosts:
        raise ProxyError("a relay chain needs at least one relay host")
    stations = [src, *relay_hosts, dst]
    for a, b in zip(stations, stations[1:]):
        if a is b:
            raise ProxyError("consecutive chain stations must be distinct hosts")

    last = len(stations) - 2
    legs: list[Connection] = []
    # Build downstream-first so each leg's deliveries can release the next.
    for hop in range(last, -1, -1):
        legs.insert(0, Connection(
            net,
            stations[hop],
            stations[hop + 1],
            total_bytes,
            cfg,
            cc_name=None if hop == 0 else relay_cc,
            available_packets=None if hop == 0 else 0,
            on_deliver=partial(_relay_one, legs[0].sender) if legs else None,
            on_sender_fail=on_sender_fail,
            on_receiver_complete=on_complete if hop == last else None,
            label=f"{label}:hop{hop}",
        ))
    return RelayChain(legs)


class NaiveProxy:
    """Split-connection relay living on one host."""

    def __init__(self, sim: "Simulator", host: "Host") -> None:
        self.host = host
        self.flows: list[RelayChain] = []
        self.crashed = False
        self.crashes = 0
        if sim.probe is not None:
            sim.probe.on_proxy(self)

    # -- failure injection ------------------------------------------------------

    def crash(self) -> None:
        """Kill the proxy process.

        Both legs of every in-flight relay terminate *in this process*: the
        inner receiver's reassembly buffer and the outer sender's
        retransmission state are process memory, so a crash loses them for
        good.  The outer sender reports failure immediately (its half of
        the byte stream can never be completed); the inner sender is left
        retransmitting into the void until its own RTO machinery gives up.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        for flow in self.flows:
            if flow.completed:
                continue
            inner, outer = flow.legs
            self.host.unregister_handler(inner.flow_id)  # inner receiver
            self.host.unregister_handler(outer.flow_id)  # outer sender's ACKs
            inner.receiver.close()
            outer.sender.fail("proxy crash")

    def restart(self) -> None:
        """Restart the proxy process.

        Unlike the Streamlined proxy, restarting does not resurrect flows:
        split-connection state cannot be rebuilt, so existing relays stay
        dead and only flows created *after* the restart work.
        """
        self.crashed = False

    def open(
        self,
        net: "Network",
        src: "Host",
        dst: "Host",
        total_bytes: int,
        cfg: TransportConfig,
        *,
        on_receiver_complete: Callable[[AckingReceiver], None] | None = None,
        on_sender_fail: Callable[[WindowedSender], None] | None = None,
        label: str = "",
    ) -> RelayChain:
        """Wire one relayed flow ``src -> proxy -> dst``: a two-leg chain
        whose long leg is NIC-paced (``"unlimited"``).

        Takes :class:`~repro.transport.connection.Connection`'s arguments.
        """
        if self.crashed:
            raise ProxyError(f"proxy on {self.host.name} is crashed; restart() first")
        flow = build_relay_chain(
            net, src, dst, total_bytes, cfg, [self.host],
            relay_cc="unlimited",
            on_complete=on_receiver_complete,
            on_sender_fail=on_sender_fail,
            label=label or "naive",
        )
        self.flows.append(flow)
        return flow

    def release(self, flow: RelayChain) -> None:
        """Tear down a finished relay and forget it.

        Long-lived harnesses (the open-loop engine) relay thousands of
        flows through one proxy; without release, every finished flow's
        split-connection state stays live in ``self.flows`` and the host
        handler tables forever.
        """
        flow.teardown()
        try:
            self.flows.remove(flow)
        except ValueError:
            pass
