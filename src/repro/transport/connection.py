"""Connection wiring: builds a sender/receiver pair over the network.

A :class:`Connection` owns everything one reliable flow needs: a flow id,
path-derived defaults (initial window = 1 path BDP, RTO floor scaled to
the path RTT — both per paper §4.1), the congestion controller, and the
two endpoints registered on their hosts.  Optional ``via`` hosts insert
loose source-route stops, which is how the Streamlined proxy scheme routes
a single end-to-end connection through the proxy; the proxy itself
registers its forwarding handler separately.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.config import TransportConfig
from repro.errors import TransportError
from repro.transport.cc_base import CongestionControl, UnlimitedWindow
from repro.transport.dctcp import DctcpLike
from repro.transport.receiver import AckingReceiver
from repro.transport.rtt import RttEstimator
from repro.transport.sender import WindowedSender
from repro.units import bandwidth_delay_product_bytes, serialization_delay_ps

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import Host


def make_congestion_control(
    cfg: TransportConfig,
    initial_cwnd_packets: float,
    name: str | None = None,
    base_rtt_ps: int = 0,
) -> CongestionControl:
    """Instantiate the congestion controller named by ``name`` (or cfg.cc).

    ``base_rtt_ps`` seeds rate-based controllers (ignored by the others).
    """
    kind = name if name is not None else cfg.cc
    if kind == "dctcp":
        return DctcpLike(
            initial_cwnd_packets,
            min_cwnd_packets=cfg.min_cwnd_packets,
            gain=cfg.dctcp_gain,
            nack_cut_factor=cfg.nack_cut_factor,
        )
    if kind == "aimd":
        from repro.transport.aimd import RenoAimd

        return RenoAimd(initial_cwnd_packets, min_cwnd_packets=cfg.min_cwnd_packets)
    if kind == "bbr":
        from repro.transport.rate_based import make_rate_based

        return make_rate_based(cfg, initial_cwnd_packets, base_rtt_ps)
    if kind == "unlimited":
        return UnlimitedWindow()
    raise TransportError(f"unknown congestion control {kind!r}")


class Connection:
    """One reliable flow between two hosts, optionally via proxy stops."""

    def __init__(
        self,
        net: "Network",
        src: "Host",
        dst: "Host",
        total_bytes: int,
        cfg: TransportConfig,
        *,
        via: tuple["Host", ...] = (),
        cc_name: str | None = None,
        available_packets: int | None = None,
        on_deliver: Callable[[int], None] | None = None,
        on_sender_complete: Callable[[WindowedSender], None] | None = None,
        on_sender_fail: Callable[[WindowedSender], None] | None = None,
        on_receiver_complete: Callable[[AckingReceiver], None] | None = None,
        label: str = "",
    ) -> None:
        if total_bytes <= 0:
            raise TransportError("total_bytes must be positive")
        if src is dst:
            raise TransportError("src and dst must be distinct hosts")
        self.net = net
        self.src = src
        self.dst = dst
        self.via = via
        self.cfg = cfg
        self.total_bytes = total_bytes
        self.total_packets = math.ceil(total_bytes / cfg.payload_bytes)
        self.flow_id = net.new_flow_id()
        self.label = label or f"flow{self.flow_id}"

        via_ids = [h.id for h in via]
        prop_rtt = net.path_rtt_ps(src.id, dst.id, via=via_ids)
        rate = min(src.nic_rate_bps, dst.nic_rate_bps)
        wire_bytes = cfg.payload_bytes + cfg.header_bytes
        # Base RTT estimate: propagation plus a few serializations; exactness
        # does not matter, it only seeds the window and RTO defaults.
        self.base_rtt_ps = prop_rtt + 4 * serialization_delay_ps(wire_bytes, rate)
        self.bdp_bytes = bandwidth_delay_product_bytes(rate, self.base_rtt_ps)
        initial_cwnd = max(
            cfg.min_cwnd_packets,
            cfg.initial_window_bdp * self.bdp_bytes / cfg.payload_bytes,
        )
        min_rto = cfg.min_rto_ps
        if min_rto is None:
            min_rto = max(
                cfg.rto_absolute_floor_ps,
                round(cfg.rto_floor_rtt_multiple * self.base_rtt_ps),
            )
        self.cc = make_congestion_control(
            cfg, initial_cwnd, cc_name, base_rtt_ps=self.base_rtt_ps
        )
        self.rtt = RttEstimator(self.base_rtt_ps, min_rto, cfg.max_rto_ps)

        forward_stops = (*via_ids[1:], dst.id) if via_ids else ()
        first_dst = via_ids[0] if via_ids else dst.id
        return_route = (*reversed(via_ids), src.id)

        self.receiver = AckingReceiver(
            net.sim,
            dst,
            self.flow_id,
            self.total_packets,
            cfg,
            return_route,
            on_deliver=on_deliver,
            on_complete=on_receiver_complete,
            label=f"{self.label}:rcv",
        )
        self.sender = WindowedSender(
            net.sim,
            src,
            self.flow_id,
            first_dst,
            self.total_packets,
            total_bytes,
            cfg,
            self.cc,
            self.rtt,
            stops=forward_stops,
            return_stops=return_route,
            available_packets=available_packets,
            on_complete=on_sender_complete,
            on_fail=on_sender_fail,
            label=f"{self.label}:snd",
        )
        src.register_handler(self.flow_id, self.sender.on_packet)
        dst.register_handler(self.flow_id, self.receiver.on_packet)

    def start(self, delay_ps: int = 0) -> None:
        """Begin transmitting after ``delay_ps`` (0 = immediately)."""
        if delay_ps == 0:
            self.sender.start()
        else:
            self.net.sim.schedule(delay_ps, self.sender.start)

    @property
    def completed(self) -> bool:
        """True once the receiver has the whole flow."""
        return self.receiver.completed

    @property
    def failed(self) -> bool:
        """True once the sender has given up on the flow."""
        return self.sender.failed

    def reroute_via(self, via: tuple["Host", ...]) -> None:
        """Re-point the connection through new proxy stops (failover).

        Only *future* packets take the new path: copies already in flight
        toward the old proxy are lost if it is down, and the transport's
        normal RTO/RACK machinery recovers them over the new route.  ACKs
        the receiver emits from now on travel the new return route.
        """
        via_ids = [h.id for h in via]
        self.via = via
        self.sender.dst_id = via_ids[0] if via_ids else self.dst.id
        self.sender.stops = (*via_ids[1:], self.dst.id) if via_ids else ()
        return_route = (*reversed(via_ids), self.src.id)
        self.sender.return_stops = return_route
        self.receiver.return_route = return_route

    def teardown(self) -> None:
        """Unregister both endpoints and cancel their pending timers
        (for reusing hosts across runs; no stale callbacks fire after)."""
        self.sender.close()
        self.receiver.close()
        self.src.unregister_handler(self.flow_id)
        self.dst.unregister_handler(self.flow_id)
