"""Free-list packet pooling.

Every data packet, ACK, and NACK in a run is a short-lived slotted object:
built at a host NIC, carried through a handful of queues, and dead within a
few RTTs.  A :class:`PacketPool` recycles those carcasses through a free
list so steady-state traffic allocates no new objects at all — the pool's
``data``/``ack``/``nack`` constructors mirror the :mod:`repro.net.packet`
``make_*`` helpers but reinitialize a pooled packet in place when one is
available.

Ownership contract:

* The component that *terminates* a packet releases it: a sender releases
  the ACK/NACK it consumed, a receiver releases a data packet once its ACK
  batch no longer needs it, ports release packets they drop (link down,
  blackhole, queue overflow, wire loss), hosts release corrupt/stray
  arrivals, and a trimming proxy releases absorbed headers.
* Forwarding is NOT termination: proxies re-send the same object, so the
  release happens at the far end.
* ``Packet.release()`` on a packet that never came from a pool is a no-op,
  which keeps hand-built packets (tests, tools) safe.

Safety rails: releasing the same packet twice raises immediately (cheap
flag check, always on).  With ``sanitize`` enabled the pool also verifies
at *acquire* time — via ``sys.getrefcount`` — that nothing still references
a packet about to be recycled; acquire time is the reliable place to check
because the releasing call stack (which legitimately still holds the
packet) has exited by then.  A sanitizing pool additionally stamps each
packet with acquire/release *provenance* (the first caller frame outside
the pool, as ``file:line``), so a double release names both offending
sites instead of just the packet.

Checkpoints: the free list is a cache, not state.  A pickled pool carries
its counters and an *empty* free list (:meth:`PacketPool.__getstate__`), so
a checkpoint holds the packets in flight and none of the dead ones.  The
restored pool refills as traffic releases; every restored in-flight packet
still points at it, and ``allocated + reused - released`` (the live count)
is the same on both sides of a restore.  Only ``free`` — which restarts at
0 — and how the next acquisitions split between ``allocated`` and
``reused`` differ, and no digest reads those.
"""

from __future__ import annotations

import sys

from repro.errors import SanitizerError
from repro.net import packet as _packet_module
from repro.net.packet import HEADER_BYTES, Packet, PacketType

#: ``sys.getrefcount(packet)`` for a packet freshly popped off the free
#: list with no leaked references: the local variable plus the getrefcount
#: argument itself.
_CLEAN_REFCOUNT = 2

#: Files whose frames are skipped when resolving provenance call sites:
#: the pool's own machinery and ``Packet.release``'s delegation.  Exact
#: module files, not basenames, so callers that merely share a filename
#: (tests/test_pool.py, repro/control/pool.py) are reported correctly.
_INTERNAL_FRAMES = frozenset({__file__, _packet_module.__file__})


def _caller_site() -> str:
    """``file:line`` of the nearest caller frame outside the pool layer."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename not in _INTERNAL_FRAMES:
            return f"{filename.rsplit('/', 1)[-1]}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class PacketPool:
    """Recycles dead packets through a free list."""

    __slots__ = ("_free", "sanitize", "allocated", "reused", "released")

    def __init__(self, sanitize: bool = False) -> None:
        self._free: list[Packet] = []
        #: verify at acquire time that recycled packets are unreferenced
        self.sanitize = sanitize
        self.allocated = 0
        self.reused = 0
        self.released = 0

    def __getstate__(self) -> tuple[None, dict[str, object]]:
        """Pickle the counters and the sanitize flag with an empty free list.

        Nothing reads a dead packet's fields (every constructor rewrites
        them all), so carrying the carcasses across a checkpoint buys only
        the allocations the restored run would otherwise repeat.
        """
        state: dict[str, object] = {name: getattr(self, name) for name in self.__slots__}
        state["_free"] = []
        return None, state

    # -- internals ----------------------------------------------------------

    def _take(self) -> Packet | None:
        free = self._free
        if not free:
            return None
        packet = free.pop()
        if self.sanitize and sys.getrefcount(packet) != _CLEAN_REFCOUNT:
            raise SanitizerError(
                f"pool reuse of a packet still referenced elsewhere "
                f"(refcount {sys.getrefcount(packet)}, expected "
                f"{_CLEAN_REFCOUNT}): {packet!r} — some component kept a "
                f"packet past its release()"
                + self._provenance(packet)
            )
        packet._freed = False
        self.reused += 1
        return packet

    def _stamp(self, packet: Packet) -> Packet:
        """Record acquire provenance on a sanitizing pool; free otherwise."""
        if self.sanitize:
            packet._acquired_at = _caller_site()
            packet._released_at = None
        return packet

    @staticmethod
    def _provenance(packet: Packet) -> str:
        parts = []
        if packet._acquired_at is not None:
            parts.append(f"acquired at {packet._acquired_at}")
        if packet._released_at is not None:
            parts.append(f"released at {packet._released_at}")
        return f" ({', '.join(parts)})" if parts else ""

    def give(self, packet: Packet) -> None:
        """Return ``packet`` to the free list (packets call this via
        :meth:`~repro.net.packet.Packet.release`)."""
        if packet._freed:
            raise SanitizerError(
                f"packet released twice: {packet!r}"
                + self._provenance(packet)
                + f"; second release at {_caller_site()}"
            )
        packet._freed = True
        if self.sanitize:
            packet._released_at = _caller_site()
        self.released += 1
        self._free.append(packet)

    def __len__(self) -> int:
        """Packets currently sitting in the free list."""
        return len(self._free)

    def stats(self) -> dict[str, int]:
        """Snapshot for reports and benchmarks.

        ``allocated + reused - released`` is the number of packets in
        flight and survives a checkpoint restore; ``free`` restarts at 0
        there, because a checkpoint carries the counters, not the carcasses.
        """
        return {
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }

    # -- constructors (mirror repro.net.packet.make_*) ----------------------

    def data(
        self,
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
        """Pooled equivalent of :func:`repro.net.packet.make_data`."""
        packet = self._take()
        if packet is None:
            self.allocated += 1
            packet = Packet(
                flow_id,
                PacketType.DATA,
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
            packet._pool = self
            return self._stamp(packet)
        packet.flow_id = flow_id
        packet.kind = PacketType.DATA
        packet.is_control = False
        packet.seq = seq
        packet.src = src
        packet.dst = dst
        packet.stops = stops
        packet.return_stops = return_stops
        packet.payload_bytes = payload_bytes
        packet.size_bytes = payload_bytes + header_bytes
        packet.trimmed = False
        packet.corrupted = False
        packet.ecn_ce = False
        packet.ecn_echo = False
        packet.ack_seq = -1
        packet.echo_seq = -1
        packet.ts = ts
        packet.ts_echo = -1
        packet.retx = retx
        return self._stamp(packet)

    def ack(
        self,
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
        """Pooled equivalent of :func:`repro.net.packet.make_ack`."""
        packet = self._take()
        if packet is None:
            self.allocated += 1
            packet = Packet(
                flow_id,
                PacketType.ACK,
                echo_seq,
                src,
                dst,
                stops=stops,
                ack_seq=ack_seq,
                echo_seq=echo_seq,
                ts=ts,
                ts_echo=ts_echo,
            )
            packet._pool = self
            packet.ecn_echo = ecn_echo
            return self._stamp(packet)
        packet.flow_id = flow_id
        packet.kind = PacketType.ACK
        packet.is_control = True
        packet.seq = echo_seq
        packet.src = src
        packet.dst = dst
        packet.stops = stops
        packet.return_stops = ()
        packet.payload_bytes = 0
        packet.size_bytes = HEADER_BYTES
        packet.trimmed = False
        packet.corrupted = False
        packet.ecn_ce = False
        packet.ecn_echo = ecn_echo
        packet.ack_seq = ack_seq
        packet.echo_seq = echo_seq
        packet.ts = ts
        packet.ts_echo = ts_echo
        packet.retx = 0
        return self._stamp(packet)

    def nack(
        self,
        flow_id: int,
        seq: int,
        src: int,
        dst: int,
        *,
        ts_echo: int = -1,
        stops: tuple[int, ...] = (),
    ) -> Packet:
        """Pooled equivalent of :func:`repro.net.packet.make_nack`."""
        packet = self._take()
        if packet is None:
            self.allocated += 1
            packet = Packet(
                flow_id,
                PacketType.NACK,
                seq,
                src,
                dst,
                stops=stops,
                echo_seq=seq,
                ts_echo=ts_echo,
            )
            packet._pool = self
            return self._stamp(packet)
        packet.flow_id = flow_id
        packet.kind = PacketType.NACK
        packet.is_control = True
        packet.seq = seq
        packet.src = src
        packet.dst = dst
        packet.stops = stops
        packet.return_stops = ()
        packet.payload_bytes = 0
        packet.size_bytes = HEADER_BYTES
        packet.trimmed = False
        packet.corrupted = False
        packet.ecn_ce = False
        packet.ecn_echo = False
        packet.ack_seq = -1
        packet.echo_seq = seq
        packet.ts = -1
        packet.ts_echo = ts_echo
        packet.retx = 0
        return self._stamp(packet)
