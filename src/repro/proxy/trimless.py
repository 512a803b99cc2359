"""Streamlined proxying without switch trimming (paper §5, Future Work #1).

Same forwarding plane as :class:`~repro.proxy.streamlined.StreamlinedProxy`,
but the network gives no trimmed headers: drops at the proxy's down-ToR are
invisible until the arriving sequence stream betrays them.  A bounded-memory
:class:`~repro.detection.lossdetector.GapLossDetector` watches each flow and
turns inferred gaps into NACKs.  The NACK's echoed timestamp is borrowed
from the packet that revealed the gap — packets of a burst are sent
back-to-back, so it approximates the lost packet's send time closely enough
for the sender's feedback-delay bookkeeping.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.detection.lossdetector import DetectorConfig, FlowTracker, GapLossDetector
from repro.errors import ProxyError
from repro.net.packet import Packet, PacketType
from repro.proxy.streamlined import ProxyStats, StreamlinedProxy

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host
    from repro.sim.simulator import Simulator


class TrimlessStreamlinedProxy:
    """Forwarding proxy with detector-driven early NACKs."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        detector_cfg: DetectorConfig | None = None,
        *,
        label: str = "",
    ) -> None:
        self.sim = sim
        self.host = host
        self.label = label or f"tproxy:{host.name}"
        self.stats = ProxyStats()
        self.detector = GapLossDetector(detector_cfg)
        self.crashed = False
        self.crashes = 0
        self.flows: set[int] = set()
        self._senders: dict[int, int] = {}  # flow -> sender host id
        self._trackers: dict[int, FlowTracker] = {}
        self._flush_armed = False
        self._pool = sim.packet_pool
        if sim.probe is not None:
            sim.probe.on_proxy(self)

    # -- wiring -------------------------------------------------------------------

    # The same end-to-end flows as the Streamlined proxy; only the per-flow
    # state behind attach_flow / detach_flow differs.
    open = StreamlinedProxy.open
    release = StreamlinedProxy.release
    attach = StreamlinedProxy.attach

    def attach_flow(self, flow_id: int) -> None:
        """Relay packets of ``flow_id``."""
        self.host.register_handler(flow_id, self._handle)
        self.flows.add(flow_id)
        self._trackers[flow_id] = self.detector.tracker(
            flow_id, partial(self._on_inferred_loss, flow_id)
        )

    def detach_flow(self, flow_id: int) -> None:
        """Stop relaying ``flow_id`` and free its detector state."""
        if not self.crashed:
            self.host.unregister_handler(flow_id)
        self.flows.discard(flow_id)
        self._trackers.pop(flow_id, None)
        self._senders.pop(flow_id, None)
        self.detector.remove(flow_id)

    # -- failure injection ----------------------------------------------------------

    def crash(self) -> None:
        """Kill the proxy process: detector state (trackers, learned sender
        ids) is process memory and is lost for good."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        # Sorted so handler/detector churn is independent of set-hash order.
        for flow_id in sorted(self.flows):
            self.host.unregister_handler(flow_id)
            self.detector.remove(flow_id)
        self._trackers.clear()
        self._senders.clear()
        probe = self.sim.probe
        if probe is not None:
            probe.on_proxy_crash(self)

    def restart(self) -> None:
        """Restart after a crash: forwarding resumes, but each flow gets a
        *fresh* tracker — gaps that straddled the outage go undetected until
        the sender's own RTO machinery recovers them."""
        if not self.crashed:
            return
        self.crashed = False
        for flow_id in sorted(self.flows):
            self.host.register_handler(flow_id, self._handle)
            self._trackers[flow_id] = self.detector.tracker(
                flow_id, partial(self._on_inferred_loss, flow_id)
            )
        probe = self.sim.probe
        if probe is not None:
            probe.on_proxy_restart(self)

    # -- data plane ------------------------------------------------------------------

    def _handle(self, packet: Packet) -> None:
        if self.crashed:
            packet.release()  # dead process: the packet terminates here
            return
        self.stats.packets_processed += 1
        if packet.kind == PacketType.DATA:
            self._senders.setdefault(packet.flow_id, packet.src)
            tracker = self._trackers.get(packet.flow_id)
            if tracker is not None:
                tracker.on_data(packet.seq, self.sim.now, packet.ts, packet.retx > 0)
                if tracker.pending_gaps():
                    self._arm_flush()
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

    def _on_inferred_loss(self, flow_id: int, seq: int, approx_ts: int) -> None:
        sender = self._senders.get(flow_id)
        if sender is None:
            return  # gap before any packet carries the sender id: impossible
        nack = self._pool.nack(flow_id, seq, self.host.id, sender, ts_echo=approx_ts)
        self.stats.nacks_sent += 1
        self.host.send(nack)

    # -- quiet-tail sweep ---------------------------------------------------------------

    def _arm_flush(self) -> None:
        if self._flush_armed:
            return
        self._flush_armed = True
        self.sim.schedule(self.detector.cfg.reorder_window_ps + 1, self._flush)

    def _flush(self) -> None:
        self._flush_armed = False
        if self.crashed:
            return
        pending = False
        now = self.sim.now
        for tracker in self._trackers.values():
            if tracker.pending_gaps():
                tracker.flush(now)
                if tracker.pending_gaps():
                    pending = True
        if pending:
            self._arm_flush()
