"""The Streamlined proxy (paper §3 Insight 3, §4.1, §5).

Each flow keeps a *single* end-to-end connection, loose-source-routed
through the proxy.  The proxy's entire data-plane logic is:

* full data packet  → pop the next route stop and forward to the receiver;
* trimmed header    → send a NACK straight back to the sender (do **not**
  forward the header — the sender will retransmit) — this is the early
  loss signal that shortens the feedback loop to microseconds;
* ACK/NACK from the receiver → forward transparently to the sender.

This mirrors the paper's eBPF prototype, whose measured per-packet cost is
modelled by :mod:`repro.hoststack`; pass ``processing_delay`` (a
zero-argument sampler, picklable so checkpoints can carry it) to charge
that cost on every packet the proxy touches.

Without switch trimming (paper §5, Future Work #1), pass a
:class:`~repro.detection.lossdetector.GapLossDetector` as ``detector``:
every full data packet feeds its flow's tracker before it is forwarded,
and inferred gaps become NACKs to the flow's sender, echoing the
timestamp of the packet that revealed the gap (a burst is sent
back-to-back, so it approximates the lost packet's send time).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.errors import ProxyError
from repro.net.packet import Packet, PacketType, make_nack
from repro.transport.connection import Connection

# Read per packet: a module global loads faster than an enum member.
_DATA = PacketType.DATA

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import TransportConfig
    from repro.detection.lossdetector import GapLossDetector
    from repro.net.network import Network
    from repro.net.node import Host
    from repro.sim.simulator import Simulator
    from repro.transport.receiver import AckingReceiver
    from repro.transport.sender import WindowedSender


class ProxyStats:
    """Counters all proxy flavours maintain."""

    __slots__ = (
        "data_forwarded",
        "control_forwarded",
        "trimmed_absorbed",
        "nacks_sent",
        "packets_processed",
    )

    def __init__(self) -> None:
        self.data_forwarded = 0
        self.control_forwarded = 0
        self.trimmed_absorbed = 0
        self.nacks_sent = 0
        self.packets_processed = 0

    def as_dict(self) -> dict[str, int]:
        """Snapshot for reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class StreamlinedProxy:
    """Trim-aware forwarding proxy living on one host, optionally inferring
    losses itself through a gap ``detector``."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        *,
        processing_delay: Callable[[], int] | None = None,
        detector: "GapLossDetector | None" = None,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.host = host
        self.processing_delay = processing_delay
        self.detector = detector
        self.label = label or f"sproxy:{host.name}"
        self.stats = ProxyStats()
        self.flows: set[int] = set()
        self.crashed = False
        self.crashes = 0
        if detector is not None:
            self._senders: dict[int, int] = {}  # flow -> sender host id
            self._flush_armed = False
        if sim.probe is not None:
            sim.probe.on_proxy(self)

    # -- wiring ------------------------------------------------------------------

    def open(
        self,
        net: "Network",
        src: "Host",
        dst: "Host",
        total_bytes: int,
        cfg: "TransportConfig",
        *,
        on_receiver_complete: Callable[["AckingReceiver"], None] | None = None,
        on_sender_fail: Callable[["WindowedSender"], None] | None = None,
        label: str = "",
    ) -> Connection:
        """Wire one end-to-end flow ``src -> dst``, loose-source-routed
        through this proxy (takes :class:`Connection`'s arguments)."""
        connection = Connection(
            net, src, dst, total_bytes, cfg,
            via=(self.host,),
            on_receiver_complete=on_receiver_complete,
            on_sender_fail=on_sender_fail,
            label=label,
        )
        self.attach(connection)
        return connection

    def release(self, connection: Connection) -> None:
        """Tear down a finished flow and stop relaying it."""
        connection.teardown()
        self.detach_flow(connection.flow_id)

    def attach(self, connection: Connection) -> None:
        """Relay one end-to-end connection through this proxy."""
        self.attach_flow(connection.flow_id)

    def attach_flow(self, flow_id: int) -> None:
        """Relay packets of ``flow_id`` (lower-level form of :meth:`attach`)."""
        self.host.register_handler(flow_id, self._handle)
        self.flows.add(flow_id)
        if self.detector is not None:
            self.detector.tracker(flow_id, partial(self._on_inferred_loss, flow_id))

    def detach_flow(self, flow_id: int) -> None:
        """Stop relaying ``flow_id`` and free its detector state."""
        if not self.crashed:
            self.host.unregister_handler(flow_id)
        self.flows.discard(flow_id)
        if self.detector is not None:
            self.detector.remove(flow_id)
            self._senders.pop(flow_id, None)

    # -- failure injection --------------------------------------------------------

    def crash(self) -> None:
        """Kill the proxy process: packets in flight toward it go stray.

        Forwarding is a pure function of the packet, so a later
        :meth:`restart` resumes relaying every attached flow.  Detector
        state (trackers, learned sender ids) is process memory and is lost
        for good.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        # Sorted so handler and detector churn is independent of set-hash order.
        for flow_id in sorted(self.flows):
            self.host.unregister_handler(flow_id)
            if self.detector is not None:
                self.detector.remove(flow_id)
        if self.detector is not None:
            self._senders.clear()
        probe = self.sim.probe
        if probe is not None:
            probe.on_proxy_crash(self)

    def restart(self) -> None:
        """Restart after a crash; stateless forwarding resumes immediately,
        each flow with a *fresh* tracker (gaps that straddled the outage
        fall back to the sender's RTO)."""
        if not self.crashed:
            return
        self.crashed = False
        for flow_id in sorted(self.flows):
            self.host.register_handler(flow_id, self._handle)
            if self.detector is not None:
                self.detector.tracker(flow_id, partial(self._on_inferred_loss, flow_id))
        probe = self.sim.probe
        if probe is not None:
            probe.on_proxy_restart(self)

    # -- data plane -----------------------------------------------------------------

    def _handle(self, packet: Packet) -> None:
        delay = self.processing_delay() if self.processing_delay is not None else 0
        if delay > 0:
            self.sim.schedule(delay, partial(self._process, packet))
        else:
            self._process(packet)

    def _process(self, packet: Packet) -> None:
        if self.crashed:
            # Packet was in the processing pipeline when we died; it
            # terminates here.
            return
        self.stats.packets_processed += 1
        if packet.kind == _DATA:
            if packet.trimmed:
                self._reflect_nack(packet)
            else:
                if self.detector is not None:
                    self._observe(self.detector, packet)
                self._forward(packet)
                self.stats.data_forwarded += 1
        else:
            self._forward(packet)
            self.stats.control_forwarded += 1

    def _forward(self, packet: Packet) -> None:
        if not packet.stops:
            raise ProxyError(
                f"{self.label}: packet for flow {packet.flow_id} has no further "
                "route stop — connection was not built with via=(proxy,)"
            )
        packet.pop_stop()
        self.host.send(packet)

    def _reflect_nack(self, packet: Packet) -> None:
        self.stats.trimmed_absorbed += 1
        nack = make_nack(
            packet.flow_id,
            packet.seq,
            self.host.id,
            packet.src,
            ts_echo=packet.ts,
        )
        self.stats.nacks_sent += 1
        # The absorbed header terminates here — only its NACK travels on.
        self.host.send(nack)

    # -- loss inference (with a detector) -------------------------------------------

    def _observe(self, detector: "GapLossDetector", packet: Packet) -> None:
        self._senders.setdefault(packet.flow_id, packet.src)
        tracker = detector.get(packet.flow_id)
        if tracker is not None:
            tracker.on_data(packet.seq, self.sim.now, packet.ts, packet.retx > 0)
            if tracker.pending_gaps():
                self._arm_flush(detector)

    def _on_inferred_loss(self, flow_id: int, seq: int, approx_ts: int) -> None:
        sender = self._senders.get(flow_id)
        if sender is None:
            return  # gap before any packet carries the sender id: impossible
        nack = make_nack(flow_id, seq, self.host.id, sender, ts_echo=approx_ts)
        self.stats.nacks_sent += 1
        self.host.send(nack)

    def _arm_flush(self, detector: "GapLossDetector") -> None:
        """Sweep quiet tails: a gap with no later arrival still ages out."""
        if self._flush_armed:
            return
        self._flush_armed = True
        self.sim.schedule(detector.cfg.reorder_window_ps + 1, self._flush)

    def _flush(self) -> None:
        self._flush_armed = False
        detector = self.detector
        if not self.crashed and detector is not None and detector.flush(self.sim.now):
            self._arm_flush(detector)
