"""The windowed sender endpoint.

One :class:`WindowedSender` pushes ``total_packets`` fixed-size segments to
a receiver, governed by a pluggable congestion controller:

* window-limited transmission (``pipe < cwnd``), retransmissions first;
* per-ACK RTT sampling from echoed timestamps (no Karn ambiguity: the echo
  always belongs to the delivered copy);
* RACK-style *time-based* loss inference — a packet is deemed lost when a
  packet sent sufficiently later has been ACKed — which stays correct under
  the paper's per-packet spraying, where dupACK counting would misfire;
* NACK handling (switch-trimmed packets reflected by the proxy or receiver)
  triggering immediate retransmission and a window cut;
* a Tail Loss Probe (RFC 8985 style): when ACKs stop while data is
  outstanding, the highest in-flight segment is re-sent after ~2 RTTs so
  the returning SACK evidence re-arms RACK instead of waiting for the RTO;
* RFC 6298 retransmission timeout with exponential backoff; on timeout the
  window *resets* (paper §4.1) and all in-flight packets are queued for
  retransmission.

Packets are timestamped with their *wire* emission time (the sender paces
a virtual NIC clock at line rate), so echoed timestamps, RACK comparisons,
and recovery epochs stay meaningful even though a window's worth of
packets is handed to the NIC queue in one burst.

Senders can also run as relays: construct with ``available_packets=0`` and
call :meth:`release` as upstream data arrives (used by the Naive proxy).
"""

from __future__ import annotations

import heapq  # repro: allow[raw-heapq] outstanding-seq heap, not events
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.config import TransportConfig
from repro.errors import TransportError
from repro.net.packet import Packet, PacketType, make_data
from repro.sim.timers import Timer
from repro.transport.cc_base import CongestionControl
from repro.transport.rtt import RttEstimator

# Read per packet: a module global loads faster than an enum member.
_ACK = PacketType.ACK
_NACK = PacketType.NACK

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.sim.simulator import Simulator

_INFLIGHT = 0  # copy believed to be in the network; holds a pipe slot
_LOST = 1  # declared lost (NACK/RACK/timeout); slot released, retransmission queued

_MAX_BACKOFF = 10


class SenderStats:
    """Counters a sender maintains for reports and tests."""

    __slots__ = (
        "data_packets_sent",
        "retransmissions",
        "timeouts",
        "nacks_received",
        "acks_received",
        "marked_acks",
        "rack_losses",
        "tlp_probes",
        "completed_at",
    )

    def __init__(self) -> None:
        self.data_packets_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.nacks_received = 0
        self.acks_received = 0
        self.marked_acks = 0
        self.rack_losses = 0
        self.tlp_probes = 0
        self.completed_at: int | None = None

    def as_dict(self) -> dict[str, int | None]:
        """Snapshot for reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class WindowedSender:
    """Reliable, window-limited sender endpoint for one flow."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        flow_id: int,
        dst_id: int,
        total_packets: int,
        total_bytes: int,
        cfg: TransportConfig,
        cc: CongestionControl,
        rtt: RttEstimator,
        *,
        stops: tuple[int, ...] = (),
        return_stops: tuple[int, ...] = (),
        available_packets: int | None = None,
        on_complete: Callable[["WindowedSender"], None] | None = None,
        on_fail: Callable[["WindowedSender"], None] | None = None,
        label: str = "",
    ) -> None:
        if total_packets <= 0:
            raise TransportError(f"flow {flow_id}: total_packets must be positive")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.dst_id = dst_id
        self.total_packets = total_packets
        self.total_bytes = total_bytes
        self.cfg = cfg
        self.cc = cc
        self.rtt = rtt
        self.stops = stops
        self.return_stops = return_stops
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.label = label or f"snd:{flow_id}"
        self.stats = SenderStats()

        self.available = total_packets if available_packets is None else available_packets
        self.next_new = 0
        self.cum_ack = 0
        self.highest_sacked = -1
        self.pipe = 0
        self.completed = False
        self.started = False
        self.failed = False
        self.fail_reason: str | None = None
        self._consecutive_timeouts = 0
        self._closed = False

        self._state: dict[int, int] = {}
        self._sent_ts: dict[int, int] = {}
        self._outstanding: list[int] = []
        self._retx: deque[int] = deque()
        self._backoff = 0
        self._rto = Timer(sim, self._on_rto)
        self._tlp = Timer(sim, self._on_tlp)
        self._wire_ts = 0
        wire_bytes = cfg.payload_bytes + cfg.header_bytes
        self._wire_step = round(wire_bytes * 8 * 1_000_000_000_000 / host.nic_rate_bps)

        # All packets carry a full payload except the final one.
        self._full_payload = cfg.payload_bytes
        tail = total_bytes - (total_packets - 1) * cfg.payload_bytes
        if not 0 < tail <= cfg.payload_bytes:
            raise TransportError(
                f"flow {flow_id}: {total_bytes} bytes do not fit in "
                f"{total_packets} x {cfg.payload_bytes}B packets"
            )
        self._tail_payload = tail
        # Build-time registration with an observer; never on the data path.
        if sim.probe is not None:
            sim.probe.on_sender(self)

    # -- driving ----------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (idempotent)."""
        if self.started:
            return
        self.started = True
        self._try_send()

    def release(self, packets: int) -> None:
        """Make ``packets`` more segments available (relay/streaming mode)."""
        if packets < 0:
            raise TransportError("release() takes a non-negative packet count")
        self.available = min(self.available + packets, self.total_packets)
        if self.started:
            self._try_send()

    # -- receive path --------------------------------------------------------------

    def fail(self, reason: str) -> None:
        """Declare the flow failed: stop all timers, drop pending work.

        Used when the RTO/backoff path gives up (``max_consecutive_timeouts``)
        and when an endpoint's process dies (proxy crash).  Idempotent; does
        nothing on an already completed flow.
        """
        if self.completed or self.failed:
            return
        self.failed = True
        self.fail_reason = reason
        self._rto.stop()
        self._tlp.stop()
        self._retx.clear()
        probe = self.sim.probe
        if probe is not None:
            probe.on_flow_failed(self, reason)
        if self.on_fail is not None:
            self.on_fail(self)

    def close(self) -> None:
        """Cancel pending timers and stop reacting to packets (teardown).

        Unlike :meth:`fail`, closing is silent — no callbacks fire — so it
        is safe to call from generic teardown paths after completion.
        """
        self._closed = True
        self._rto.stop()
        self._tlp.stop()

    def on_packet(self, packet: Packet) -> None:
        """Entry point for ACK/NACK packets delivered to the sending host.

        A finished, failed or closed sender ignores them; nothing keeps
        the packet once the handlers return.
        """
        if self.completed or self.failed or self._closed:
            return
        if packet.kind == _ACK:
            self._on_ack(packet)
        elif packet.kind == _NACK:
            self._on_nack(packet)

    # -- internals: ACK/NACK --------------------------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        now = self.sim.now
        stats = self.stats
        stats.acks_received += 1
        sample = now - packet.ts_echo if packet.ts_echo >= 0 else 0
        if sample > 0:
            self.rtt.on_sample(sample)
        if packet.ecn_echo:
            stats.marked_acks += 1
        seq = packet.echo_seq
        self.cc.on_ack(now, packet.ecn_echo, seq, self.next_new)
        # Forward progress = the cumulative ack or the SACK frontier advanced.
        # Stale/duplicate ACKs (reordered copies of old acknowledgments) must
        # not reset the exponential RTO backoff, or a reordering path could
        # defeat the backoff entirely while the connection is still stalled.
        progress = packet.ack_seq > self.cum_ack or seq > self.highest_sacked
        if seq > self.highest_sacked:
            self.highest_sacked = seq
        state = self._state.pop(seq, None)
        if state is not None:
            if state == _INFLIGHT:
                self.pipe -= 1
            self._sent_ts.pop(seq, None)

        if packet.ack_seq > self.cum_ack:
            self.cum_ack = packet.ack_seq
            self._purge_below_cum()
        if progress:
            self._backoff = 0
            self._consecutive_timeouts = 0

        self._detect_rack_losses(packet.ts_echo)

        probe = self.sim.probe
        if probe is not None:
            probe.on_ack(self)

        if self.cum_ack >= self.total_packets:
            self._complete()
            return
        if self.pipe > 0 or self._retx:
            self._rto.restart(self.rtt.rto_ps(self._backoff))
        else:
            self._rto.stop()
        self._try_send()
        if self.pipe > 0:
            self._tlp.restart(self._tlp_delay())
        else:
            self._tlp.stop()

    def _on_nack(self, packet: Packet) -> None:
        now = self.sim.now
        self.stats.nacks_received += 1
        seq = packet.echo_seq
        state = self._state.get(seq)
        if state != _INFLIGHT:
            return  # already ACKed, or already queued for retransmission
        self._state[seq] = _LOST
        self.pipe -= 1
        self._retx.append(seq)
        self.cc.on_congestion(now, seq, self.next_new, severe=True)
        self._try_send()

    def _purge_below_cum(self) -> None:
        """Drop per-seq state for everything cumulatively acknowledged."""
        outstanding = self._outstanding
        cum = self.cum_ack
        while outstanding and outstanding[0] < cum:
            seq = heapq.heappop(outstanding)
            state = self._state.pop(seq, None)
            if state is not None:
                if state == _INFLIGHT:
                    self.pipe -= 1
                self._sent_ts.pop(seq, None)

    def _detect_rack_losses(self, acked_sent_ts: int) -> None:
        """Time-based loss inference: anything sent one reorder-window before
        the send time of the newest ACKed packet, and still outstanding below
        the highest SACKed seq, is declared lost."""
        if acked_sent_ts < 0:
            return
        window = max(
            self.cfg.rack_window_min_ps,
            round(self.rtt.min_rtt * self.cfg.rack_window_rtt_fraction),
        )
        threshold = acked_sent_ts - window
        outstanding = self._outstanding
        state = self._state
        sent_ts = self._sent_ts
        now = self.sim.now
        while outstanding:
            seq = outstanding[0]
            current = state.get(seq)
            if current != _INFLIGHT:
                heapq.heappop(outstanding)
                continue
            if seq < self.highest_sacked and sent_ts[seq] <= threshold:
                heapq.heappop(outstanding)
                state[seq] = _LOST
                self.pipe -= 1
                self._retx.append(seq)
                self.stats.rack_losses += 1
                self.cc.on_congestion(now, seq, self.next_new, severe=True)
                continue
            break

    # -- internals: transmit ---------------------------------------------------------

    def _try_send(self) -> None:
        cc = self.cc
        while cc.can_send(self.pipe):
            pick = self._next_to_send()
            if pick is None:
                break
            seq, retransmit = pick
            self._transmit(seq, retransmit)

    def _next_to_send(self) -> tuple[int, bool] | None:
        retx = self._retx
        while retx:
            seq = retx.popleft()
            if self._state.get(seq) == _LOST:
                return seq, True
            # Otherwise stale: the seq was ACKed after it was queued.
        if self.next_new < min(self.available, self.total_packets):
            seq = self.next_new
            self.next_new += 1
            return seq, False
        return None

    def _transmit(self, seq: int, retransmit: bool) -> None:
        wire_ts = self._next_wire_ts()
        payload = self._tail_payload if seq == self.total_packets - 1 else self._full_payload
        packet = make_data(
            self.flow_id,
            seq,
            self.host.id,
            self.dst_id,
            payload,
            stops=self.stops,
            return_stops=self.return_stops,
            ts=wire_ts,
            retx=1 if retransmit else 0,
            header_bytes=self.cfg.header_bytes,
        )
        self.pipe += 1
        self._state[seq] = _INFLIGHT
        self._sent_ts[seq] = wire_ts
        heapq.heappush(self._outstanding, seq)
        if retransmit:
            self.stats.retransmissions += 1
        else:
            self.stats.data_packets_sent += 1
        self.host.send(packet)
        # Both timers are usually armed already: compute a delay only for
        # one that is idle.
        if not self._rto.armed:
            self._rto.restart(self.rtt.rto_ps(self._backoff))
        if not self._tlp.armed:
            self._tlp.restart(self._tlp_delay())

    def _next_wire_ts(self) -> int:
        """Estimated NIC wire-emission time for the next packet: the sender
        hands a whole window to the NIC at once, so timestamps are paced by a
        virtual line-rate clock to reflect when each packet actually leaves."""
        wire_ts = max(self.sim.now, self._wire_ts)
        self._wire_ts = wire_ts + self._wire_step
        return wire_ts

    # -- internals: tail loss probe -----------------------------------------------------

    def _tlp_delay(self) -> int:
        return round(2 * self.rtt.srtt) + self.cfg.rack_window_min_ps

    def _on_tlp(self) -> None:
        """No ACK for ~2 RTTs with data outstanding: re-send the highest
        in-flight segment so the returning (S)ACK re-arms RACK-based
        recovery instead of stalling until the RTO."""
        if self.completed or self.failed or self._closed or self.pipe == 0:
            return
        probe_seq = max(
            (s for s, st in self._state.items() if st == _INFLIGHT), default=None
        )
        if probe_seq is None:
            return
        wire_ts = self._next_wire_ts()
        payload = (
            self._tail_payload
            if probe_seq == self.total_packets - 1
            else self._full_payload
        )
        packet = make_data(
            self.flow_id,
            probe_seq,
            self.host.id,
            self.dst_id,
            payload,
            stops=self.stops,
            return_stops=self.return_stops,
            ts=wire_ts,
            retx=1,
            header_bytes=self.cfg.header_bytes,
        )
        # The probe is a duplicate copy: no state change, no pipe slot; the
        # original keeps its bookkeeping and the RTO remains the backstop.
        self._sent_ts[probe_seq] = wire_ts
        self.stats.tlp_probes += 1
        self.host.send(packet)

    # -- internals: timeout ----------------------------------------------------------

    def _on_rto(self) -> None:
        if self.completed or self.failed or self._closed:
            return
        if self.pipe == 0 and not self._retx:
            return  # nothing outstanding; timer was stale
        now = self.sim.now
        self.stats.timeouts += 1
        self._consecutive_timeouts += 1
        limit = self.cfg.max_consecutive_timeouts
        if limit is not None and self._consecutive_timeouts >= limit:
            self.fail(f"{limit} consecutive retransmission timeouts")
            return
        self.cc.on_timeout(now, self.next_new)
        # Everything in flight is presumed lost (paper §4.1: window reset):
        # all slots are released and the retransmissions start cwnd-limited.
        lost = sorted(s for s, st in self._state.items() if st == _INFLIGHT)
        for seq in lost:
            self._state[seq] = _LOST
            self._retx.append(seq)
        self.pipe = 0
        self._backoff = min(self._backoff + 1, _MAX_BACKOFF)
        self._rto.restart(self.rtt.rto_ps(self._backoff))
        probe = self.sim.probe
        if probe is not None:
            probe.on_timeout(self, len(lost))
        self._try_send()

    def _complete(self) -> None:
        self.completed = True
        self.stats.completed_at = self.sim.now
        self._rto.stop()
        self._tlp.stop()
        if self.on_complete is not None:
            self.on_complete(self)
