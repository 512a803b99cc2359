"""The acknowledging receiver endpoint.

Per the paper's §4.1 transport: arriving data is acknowledged with ACKs
that echo the packet's ECN mark and timestamp and carry the cumulative
next-expected sequence.  A *trimmed* (header-only) packet produces a NACK
instead — when switches trim, either the proxy (Streamlined scheme) or the
real receiver turns the header into a loss signal.

ACKs default to per-packet (``ack_every=1``, the paper's setup) but can be
coalesced TCP-style: every Nth in-order packet is acknowledged, any
out-of-order arrival is acknowledged immediately (the sender's loss
detection depends on it), a delayed-ACK timer bounds the wait, and the ECN
echo is set if *any* packet in the batch carried a mark.

Receivers deliver the in-order byte stream through ``on_deliver`` — the
hook the Naive proxy uses to feed its relay sender — and report completion
once all ``total_packets`` segments have arrived.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.config import TransportConfig
from repro.errors import TransportError
from repro.net.packet import Packet, PacketType, make_ack, make_nack
from repro.sim.timers import Timer

# Read per packet: a module global loads faster than an enum member.
_DATA = PacketType.DATA

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.sim.simulator import Simulator


class ReceiverStats:
    """Counters a receiver maintains."""

    __slots__ = (
        "data_packets",
        "duplicate_packets",
        "trimmed_headers",
        "nacks_sent",
        "acks_sent",
        "bytes_received",
        "completed_at",
    )

    def __init__(self) -> None:
        self.data_packets = 0
        self.duplicate_packets = 0
        self.trimmed_headers = 0
        self.nacks_sent = 0
        self.acks_sent = 0
        self.bytes_received = 0
        self.completed_at: int | None = None

    def as_dict(self) -> dict[str, int | None]:
        """Snapshot for reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class AckingReceiver:
    """Receiver endpoint for one flow: ACK/NACK generation, in-order delivery."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow_id: int,
        total_packets: int,
        cfg: TransportConfig,
        return_route: tuple[int, ...],
        *,
        on_deliver: Callable[[int], None] | None = None,
        on_complete: Callable[["AckingReceiver"], None] | None = None,
        label: str = "",
    ) -> None:
        if total_packets <= 0:
            raise TransportError(f"flow {flow_id}: total_packets must be positive")
        if not return_route:
            raise TransportError(f"flow {flow_id}: receiver needs a return route")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.total_packets = total_packets
        self.cfg = cfg
        self.return_route = return_route
        self.on_deliver = on_deliver
        self.on_complete = on_complete
        self.label = label or f"rcv:{flow_id}"
        self.stats = ReceiverStats()
        self.cum = 0  # next expected sequence
        self.completed = False
        self._received: set[int] = set()
        self._pending_acks = 0
        self._ack_marked = False
        self._ack_tail: Packet | None = None
        self._closed = False
        self._delack = Timer(sim, self._flush_ack)
        if sim.probe is not None:
            sim.probe.on_receiver(self)

    # -- receive path -----------------------------------------------------------

    def close(self) -> None:
        """Cancel the delayed-ACK timer and stop reacting to packets.

        Called on connection teardown and when the hosting process crashes
        (Naive proxy) so no stale timer callback fires afterwards.  Any data
        packet held as the pending ACK-batch tail is dropped: its echo will
        never be sent, and a closed receiver should not pin it for as long
        as the receiver object itself lives.
        """
        self._closed = True
        self._delack.stop()
        self._ack_tail = None

    def on_packet(self, packet: Packet) -> None:
        """Entry point for packets delivered to the receiving host.

        The receiver keeps only the data packet feeding the current ACK
        batch, held (as ``_ack_tail``) until the batch flushes or a newer
        packet supersedes it; the ACK echoes that packet's seq and ts.
        """
        if self._closed:
            return
        if packet.kind != _DATA:
            return  # control addressed to a receiver: nothing to do
        if packet.trimmed:
            self._send_nack(packet)
            return
        self._accept(packet)

    # -- internals ----------------------------------------------------------------

    def _accept(self, packet: Packet) -> None:
        seq = packet.seq
        stats = self.stats
        in_order = seq == self.cum
        if seq >= self.cum and seq not in self._received:
            stats.data_packets += 1
            stats.bytes_received += packet.payload_bytes
            self._received.add(seq)
            received = self._received
            deliver = self.on_deliver
            while self.cum in received:
                received.discard(self.cum)
                if deliver is not None:
                    deliver(self.cum)
                self.cum += 1
        else:
            stats.duplicate_packets += 1
            in_order = False

        self._pending_acks += 1
        self._ack_marked = self._ack_marked or packet.ecn_ce
        # A newer packet supersedes the held batch tail: the ACK echoes the
        # latest arrival only.
        self._ack_tail = packet
        finished = self.cum >= self.total_packets
        if (
            self._pending_acks >= self.cfg.ack_every
            or not in_order
            or finished
        ):
            self._flush_ack()
        else:
            self._delack.start_if_idle(self.cfg.delack_timeout_ps)
        if not self.completed and finished:
            self.completed = True
            stats.completed_at = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    def _flush_ack(self) -> None:
        packet = self._ack_tail
        if packet is None:
            return
        self._delack.stop()
        route = self.return_route
        ack = make_ack(
            self.flow_id,
            self.host.id,
            route[0],
            stops=route[1:],
            ack_seq=self.cum,
            echo_seq=packet.seq,
            ecn_echo=self._ack_marked,
            ts_echo=packet.ts,
            ts=self.sim.now,
        )
        self._pending_acks = 0
        self._ack_marked = False
        self._ack_tail = None
        self.stats.acks_sent += 1
        self.host.send(ack)

    def _send_nack(self, packet: Packet) -> None:
        self.stats.trimmed_headers += 1
        route = self.return_route
        nack = make_nack(
            self.flow_id,
            packet.seq,
            self.host.id,
            route[0],
            stops=route[1:],
            ts_echo=packet.ts,
        )
        self.stats.nacks_sent += 1
        self.host.send(nack)
