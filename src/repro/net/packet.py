"""Packets.

A :class:`Packet` is a mutable, slotted record — mutability lets queues
trim payloads and mark ECN in place without reallocating on the hot path.
Retransmissions and ACKs always build *new* packets, so a copy held by a
sender's retransmission buffer is never aliased by one in flight.  A packet
is a plain object: it is freed when the last component holding it lets go.

Routing through a proxy uses loose source routing: ``dst`` is the host the
network should deliver the packet to *next*; ``stops`` lists the endpoints
still to visit after that.  A proxy pops the next stop when it forwards.
``return_stops`` tells the receiver which way ACKs should travel back.
"""

from __future__ import annotations

from enum import IntEnum


class PacketType(IntEnum):
    """Wire packet kinds."""

    DATA = 0
    ACK = 1
    NACK = 2


# Hoisted members: an attribute load off the enum class costs several times
# a module global's, and every packet built or dispatched pays one.
_DATA = PacketType.DATA
_ACK = PacketType.ACK
_NACK = PacketType.NACK


#: Wire size of protocol headers; also the size of a trimmed packet and of
#: ACK/NACK control packets.  64 B matches the header size htsim-style
#: simulators use for NDP-like trimming.
HEADER_BYTES = 64


class Packet:
    """One simulated packet."""

    __slots__ = (
        "flow_id",
        "kind",
        "is_control",
        "seq",
        "src",
        "dst",
        "stops",
        "return_stops",
        "size_bytes",
        "payload_bytes",
        "trimmed",
        "corrupted",
        "ecn_ce",
        "ecn_echo",
        "ack_seq",
        "echo_seq",
        "ts",
        "ts_echo",
        "retx",
    )

    def __init__(
        self,
        flow_id: int,
        kind: PacketType,
        seq: int,
        src: int,
        dst: int,
        *,
        stops: tuple[int, ...] = (),
        return_stops: tuple[int, ...] = (),
        payload_bytes: int = 0,
        header_bytes: int = HEADER_BYTES,
        ack_seq: int = -1,
        echo_seq: int = -1,
        ts: int = -1,
        ts_echo: int = -1,
        retx: int = 0,
    ) -> None:
        self.flow_id = flow_id
        self.kind = kind
        # Maintained as a plain attribute (not a property) because the queue
        # disciplines read it once per offered packet: ACKs, NACKs, and
        # trimmed headers ride the priority/control queue.  ``trim()`` is the
        # only mutation that changes the classification after construction.
        self.is_control = kind != _DATA
        self.seq = seq
        self.src = src
        self.dst = dst
        self.stops = stops
        self.return_stops = return_stops
        self.payload_bytes = payload_bytes
        self.size_bytes = payload_bytes + header_bytes
        self.trimmed = False
        self.corrupted = False
        self.ecn_ce = False
        self.ecn_echo = False
        self.ack_seq = ack_seq
        self.echo_seq = echo_seq
        self.ts = ts
        self.ts_echo = ts_echo
        self.retx = retx

    # -- mutation on the data path -------------------------------------------

    def trim(self, header_bytes: int = HEADER_BYTES) -> None:
        """Cut the payload, leaving a header-only packet (switch trimming)."""
        self.trimmed = True
        self.is_control = True
        self.payload_bytes = 0
        self.size_bytes = header_bytes

    def pop_stop(self) -> None:
        """Advance to the next source-route stop (proxy forwarding)."""
        self.dst = self.stops[0]
        self.stops = self.stops[1:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = " trimmed" if self.trimmed else ""
        extra += " CE" if self.ecn_ce else ""
        return (
            f"Packet(flow={self.flow_id}, {self.kind.name}, seq={self.seq}, "
            f"{self.src}->{self.dst}, {self.size_bytes}B{extra})"
        )


def make_data(
    flow_id: int,
    seq: int,
    src: int,
    dst: int,
    payload_bytes: int,
    *,
    stops: tuple[int, ...] = (),
    return_stops: tuple[int, ...] = (),
    ts: int = -1,
    retx: int = 0,
    header_bytes: int = HEADER_BYTES,
) -> Packet:
    """Build a DATA packet."""
    return Packet(
        flow_id,
        _DATA,
        seq,
        src,
        dst,
        stops=stops,
        return_stops=return_stops,
        payload_bytes=payload_bytes,
        header_bytes=header_bytes,
        ts=ts,
        retx=retx,
    )


def make_ack(
    flow_id: int,
    src: int,
    dst: int,
    *,
    ack_seq: int,
    echo_seq: int,
    ecn_echo: bool,
    ts_echo: int,
    stops: tuple[int, ...] = (),
    ts: int = -1,
) -> Packet:
    """Build an ACK carrying the cumulative ack and the echoed data seq."""
    packet = Packet(
        flow_id,
        _ACK,
        echo_seq,
        src,
        dst,
        stops=stops,
        ack_seq=ack_seq,
        echo_seq=echo_seq,
        ts=ts,
        ts_echo=ts_echo,
    )
    packet.ecn_echo = ecn_echo
    return packet


def make_nack(
    flow_id: int,
    seq: int,
    src: int,
    dst: int,
    *,
    ts_echo: int = -1,
    stops: tuple[int, ...] = (),
) -> Packet:
    """Build a NACK for one lost/trimmed data sequence number."""
    return Packet(
        flow_id,
        _NACK,
        seq,
        src,
        dst,
        stops=stops,
        echo_seq=seq,
        ts_echo=ts_echo,
    )
