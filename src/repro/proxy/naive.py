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


def _relay_one(outer: "WindowedSender", seq: int) -> None:
    """The inner leg delivered segment ``seq``: release one on the outer leg.

    Module-level (bound with :func:`functools.partial`) so a checkpoint
    pickles it by reference.
    """
    outer.release(1)


@dataclass
class NaiveRelayedFlow:
    """The pair of connections realizing one relayed flow."""

    inner: Connection  # sender -> proxy
    outer: Connection  # proxy  -> receiver

    @property
    def completed(self) -> bool:
        """True once the *real* receiver has every byte."""
        return self.outer.completed

    @property
    def relay_backlog_packets(self) -> int:
        """Segments delivered to the proxy but not yet sent on the long leg."""
        return self.outer.sender.available - self.outer.sender.next_new

    def start(self, delay_ps: int = 0) -> None:
        """Start both legs (the outer leg idles until data is relayed)."""
        self.inner.start(delay_ps)
        self.outer.start(delay_ps)

    def teardown(self) -> None:
        """Unregister all endpoints."""
        self.inner.teardown()
        self.outer.teardown()


class NaiveProxy:
    """Split-connection relay living on one host."""

    def __init__(self, sim: "Simulator", host: "Host") -> None:
        self.host = host
        self.flows: list[NaiveRelayedFlow] = []
        self.crashed = False
        self.crashes = 0
        sim.instrumentation.on_proxy(self)

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
            self.host.unregister_handler(flow.inner.flow_id)  # inner receiver
            self.host.unregister_handler(flow.outer.flow_id)  # outer sender's ACKs
            flow.inner.receiver.close()
            flow.outer.sender.fail("proxy crash")

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
    ) -> NaiveRelayedFlow:
        """Wire one relayed flow ``src -> proxy -> dst``.

        Takes :class:`~repro.transport.connection.Connection`'s arguments.
        Either leg giving up kills the relayed flow (a dead inner leg
        starves the outer one forever), so ``on_sender_fail`` rides both.
        """
        if self.crashed:
            raise ProxyError(f"proxy on {self.host.name} is crashed; restart() first")
        outer = Connection(
            net,
            self.host,
            dst,
            total_bytes,
            cfg,
            cc_name="unlimited",
            available_packets=0,
            on_sender_fail=on_sender_fail,
            on_receiver_complete=on_receiver_complete,
            label=f"{label or 'naive'}:long",
        )
        inner = Connection(
            net,
            src,
            self.host,
            total_bytes,
            cfg,
            on_deliver=partial(_relay_one, outer.sender),
            on_sender_fail=on_sender_fail,
            label=f"{label or 'naive'}:local",
        )
        flow = NaiveRelayedFlow(inner=inner, outer=outer)
        self.flows.append(flow)
        return flow

    def release(self, flow: NaiveRelayedFlow) -> None:
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
