"""Runtime simulation-invariant sanitizer (opt-in, ASan-style).

A :class:`Sanitizer` is a :class:`~repro.sim.probe.Probe`: installed in a
:class:`~repro.sim.simulator.Simulator`'s probe slot, it hears the event
loop, output ports, hosts, and transport senders and checks, *while the
run executes*:

* the sim clock never moves backwards (an event scheduled in the past
  surfaces here the moment it pops);
* accepted enqueues never leave a queue over its configured capacity;
* sender window invariants hold (``pipe >= 0``, ``cum_ack`` within the
  flow, ``cwnd >= min_cwnd``);

and, at :meth:`Sanitizer.finish`, the headline check — exact packet and
byte conservation: every packet injected at a host NIC is exactly one of
delivered, stray, corrupt-dropped, queue-dropped, dropped-while-down,
blackholed-by-fault, lost-on-a-dying-wire, still in flight, or still
queued.  The per-fate tallies are reconciled against the independent
port/queue counters, so the sanitizer catches both lost packets *and*
double counting.  :meth:`Sanitizer.check_ict_floor` holds a completed
incast to the physics floor.

Every check failure raises :class:`~repro.errors.SanitizerError`
immediately with the full tally.  When no probe is installed the hook
sites cost one attribute read and a ``None`` test each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import SanitizerError
from repro.net.queues import EcnQueue
from repro.sim.probe import Probe
from repro.units import serialization_delay_ps

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.net.network import Network
    from repro.net.node import Host, Node
    from repro.net.packet import Packet
    from repro.net.port import OutputPort
    from repro.sim.simulator import Simulator

__all__ = ["Sanitizer", "SanitizerReport"]


@dataclass
class SanitizerReport:
    """End-of-run conservation tally, one field per packet fate."""

    injected_packets: int = 0
    injected_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    stray_packets: int = 0
    stray_bytes: int = 0
    corrupt_dropped_packets: int = 0
    corrupt_dropped_bytes: int = 0
    queue_dropped_packets: int = 0
    queue_dropped_bytes: int = 0
    down_dropped_packets: int = 0
    down_dropped_bytes: int = 0
    blackholed_packets: int = 0
    blackholed_bytes: int = 0
    wire_lost_packets: int = 0
    wire_lost_bytes: int = 0
    trimmed_packets: int = 0
    trimmed_bytes_cut: int = 0
    in_transit_packets: int = 0
    in_transit_bytes: int = 0
    queued_packets: int = 0
    queued_bytes: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0
    checks_passed: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (stable key order) for results and reports."""
        return {name: int(getattr(self, name)) for name in self.__dataclass_fields__}


class Sanitizer(Probe):
    """Collects per-fate packet counters through the probe hooks.

    Create one, :meth:`install` it on the simulator *before* building the
    network, run, then call :meth:`finish` to get the reconciled
    :class:`SanitizerReport` (or a :class:`~repro.errors.SanitizerError`).
    """

    __slots__ = (
        "sim",
        "injected", "injected_bytes",
        "delivered", "delivered_bytes",
        "stray", "stray_bytes",
        "corrupt_dropped", "corrupt_dropped_bytes",
        "queue_dropped", "queue_dropped_bytes",
        "down_dropped", "down_dropped_bytes",
        "blackholed", "blackholed_bytes",
        "wire_lost", "wire_lost_bytes",
        "trimmed", "trimmed_bytes_cut",
        "in_transit", "in_transit_bytes",
        "checks_passed",
    )

    def __init__(self) -> None:
        self.sim: "Simulator | None" = None
        self.injected = 0
        self.injected_bytes = 0
        self.delivered = 0
        self.delivered_bytes = 0
        self.stray = 0
        self.stray_bytes = 0
        self.corrupt_dropped = 0
        self.corrupt_dropped_bytes = 0
        self.queue_dropped = 0
        self.queue_dropped_bytes = 0
        self.down_dropped = 0
        self.down_dropped_bytes = 0
        self.blackholed = 0
        self.blackholed_bytes = 0
        self.wire_lost = 0
        self.wire_lost_bytes = 0
        self.trimmed = 0
        self.trimmed_bytes_cut = 0
        self.in_transit = 0
        self.in_transit_bytes = 0
        self.checks_passed = 0

    def install(self, sim: "Simulator") -> "Sanitizer":
        """Occupy ``sim``'s probe slot; returns self for chaining."""
        if sim.probe is not None:
            raise SanitizerError("simulator already has a probe installed")
        sim.probe = self
        self.sim = sim
        return self

    # -- host hooks ---------------------------------------------------------

    def on_inject(self, host: "Host", packet: "Packet") -> None:
        """A host handed ``packet`` to its NIC (includes proxy re-sends)."""
        self.injected += 1
        self.injected_bytes += packet.size_bytes

    def on_deliver(self, host: "Host", packet: "Packet") -> None:
        """A host is about to invoke the flow handler for ``packet``."""
        self.delivered += 1
        self.delivered_bytes += packet.size_bytes

    def on_stray(self, host: "Host", packet: "Packet") -> None:
        """A host received a packet with no registered handler."""
        self.stray += 1
        self.stray_bytes += packet.size_bytes

    def on_corrupt_drop(self, host: "Host", packet: "Packet") -> None:
        """A host NIC checksum rejected a fault-corrupted packet."""
        self.corrupt_dropped += 1
        self.corrupt_dropped_bytes += packet.size_bytes

    # -- port hooks ---------------------------------------------------------

    def on_down_drop(self, port: "OutputPort", packet: "Packet") -> None:
        """A packet was offered to a port whose link is down."""
        self.down_dropped += 1
        self.down_dropped_bytes += packet.size_bytes

    def on_blackhole(self, port: "OutputPort", packet: "Packet") -> None:
        """A fault-injection blackhole window swallowed a packet."""
        self.blackholed += 1
        self.blackholed_bytes += packet.size_bytes

    def on_offer(self, port: "OutputPort", packet: "Packet", dropped: bool,
                 size_before: int) -> None:
        """A queue resolved an ``offer``; checks the occupancy bound."""
        size_after = packet.size_bytes
        if size_after != size_before:
            self.trimmed += 1
            self.trimmed_bytes_cut += size_before - size_after
        if dropped:
            self.queue_dropped += 1
            self.queue_dropped_bytes += size_after
        else:
            self._check_queue_bound(port.queue)
        self.checks_passed += 1

    def on_tx_start(self, port: "OutputPort", packet: "Packet") -> None:
        """A port dequeued ``packet`` and began serializing it."""
        self.in_transit += 1
        self.in_transit_bytes += packet.size_bytes

    def on_wire_lost(self, port: "OutputPort", packet: "Packet") -> None:
        """The link died while ``packet`` was serializing; it is gone."""
        self.in_transit -= 1
        self.in_transit_bytes -= packet.size_bytes
        self.wire_lost += 1
        self.wire_lost_bytes += packet.size_bytes

    def on_land(self, node: "Node", packet: "Packet") -> None:
        """An in-flight packet reached ``node``: it is no longer in transit."""
        self.in_transit -= 1
        self.in_transit_bytes -= packet.size_bytes

    # -- transport hooks ----------------------------------------------------

    def on_ack(self, sender: Any) -> None:
        """Window invariants after an ACK was processed."""
        if sender.pipe < 0:
            raise SanitizerError(
                f"{sender.label}: pipe went negative ({sender.pipe}) — a "
                "packet left the pipe twice"
            )
        if sender.cum_ack > sender.total_packets:
            raise SanitizerError(
                f"{sender.label}: cum_ack {sender.cum_ack} beyond flow end "
                f"{sender.total_packets}"
            )
        cc = sender.cc
        min_cwnd = getattr(cc, "min_cwnd", None)
        if min_cwnd is not None and cc.cwnd < min_cwnd:
            raise SanitizerError(
                f"{sender.label}: cwnd {cc.cwnd} fell below min_cwnd {min_cwnd}"
            )
        self.checks_passed += 1

    # -- internal -----------------------------------------------------------

    def _check_queue_bound(self, queue: Any) -> None:
        """An accepted enqueue must leave each lane within its bound."""
        if not isinstance(queue, EcnQueue):
            # Shared-buffer queue: the pool is the only hard bound.
            shared = queue.shared
            if shared.occupied_bytes > shared.total_bytes:
                raise SanitizerError(
                    f"shared buffer pool over capacity: {shared.occupied_bytes} "
                    f"> {shared.total_bytes}"
                )
        elif queue.trim:
            # Trimming queue: the lanes are bounded apart.
            if queue.data_bytes > queue.capacity_bytes:
                raise SanitizerError(
                    f"trimming queue data lane over capacity: {queue.data_bytes} > "
                    f"{queue.capacity_bytes}"
                )
            if queue.control_bytes > queue.control_capacity_bytes:
                raise SanitizerError(
                    f"trimming queue control lane over capacity: "
                    f"{queue.control_bytes} > {queue.control_capacity_bytes}"
                )
        elif queue.occupied_bytes > queue.capacity_bytes:
            # One FIFO, or a host's two lanes: one shared budget.
            raise SanitizerError(
                f"queue over capacity after accepted enqueue: "
                f"{queue.occupied_bytes} > {queue.capacity_bytes}"
            )

    # -- end of run ---------------------------------------------------------

    def check_ict_floor(self, net: "Network", senders: "list[Host]",
                        receiver: "Host", total_bytes: int, ict_ps: int) -> None:
        """A completed incast cannot beat the speed of light and the wire.

        Every payload byte crosses the receiver's access link, so the last
        one lands no sooner than the nearest sender's one-way propagation
        delay plus ``total_bytes`` serialized at the bottleneck rate.
        """
        rate = max(net.bottleneck_rate_bps(h.id, receiver.id) for h in senders)
        delay = min(net.min_delay_ps(h.id, receiver.id) for h in senders)
        floor = serialization_delay_ps(total_bytes, rate) + delay
        if ict_ps < floor:
            raise SanitizerError(
                f"ICT {ict_ps} ps is below the physics floor {floor} ps "
                f"({total_bytes} B at {rate:.3g} b/s + {delay} ps propagation)"
            )

    def finish(self, net: "Network",
               injector: "FaultInjector | None" = None) -> SanitizerReport:
        """Reconcile the tallies and return the conservation report.

        Raises :class:`~repro.errors.SanitizerError` if any packet is
        unaccounted for, double counted, or the sanitizer's tallies
        disagree with the ports' own counters.
        """
        report = self._build_report(net, injector)
        self._reconcile_against_ports(net)
        d = report.as_dict()
        accounted = (
            report.delivered_packets + report.stray_packets
            + report.corrupt_dropped_packets + report.queue_dropped_packets
            + report.down_dropped_packets + report.blackholed_packets
            + report.wire_lost_packets + report.in_transit_packets
            + report.queued_packets
        )
        if accounted != report.injected_packets:
            raise SanitizerError(
                f"packet conservation violated: injected "
                f"{report.injected_packets} != accounted {accounted}; tally: {d}"
            )
        accounted_bytes = (
            report.delivered_bytes + report.stray_bytes
            + report.corrupt_dropped_bytes + report.queue_dropped_bytes
            + report.down_dropped_bytes + report.blackholed_bytes
            + report.wire_lost_bytes + report.trimmed_bytes_cut
            + report.in_transit_bytes + report.queued_bytes
        )
        if accounted_bytes != report.injected_bytes:
            raise SanitizerError(
                f"byte conservation violated: injected {report.injected_bytes} "
                f"!= accounted {accounted_bytes}; tally: {d}"
            )
        return report

    def _build_report(self, net: "Network",
                      injector: "FaultInjector | None") -> SanitizerReport:
        queued_packets = 0
        queued_bytes = 0
        for node in net.nodes.values():
            for port in node.ports.values():
                queued_packets += len(port.queue)
                queued_bytes += port.queue.occupied_bytes
        return SanitizerReport(
            injected_packets=self.injected,
            injected_bytes=self.injected_bytes,
            delivered_packets=self.delivered,
            delivered_bytes=self.delivered_bytes,
            stray_packets=self.stray,
            stray_bytes=self.stray_bytes,
            corrupt_dropped_packets=self.corrupt_dropped,
            corrupt_dropped_bytes=self.corrupt_dropped_bytes,
            queue_dropped_packets=self.queue_dropped,
            queue_dropped_bytes=self.queue_dropped_bytes,
            down_dropped_packets=self.down_dropped,
            down_dropped_bytes=self.down_dropped_bytes,
            blackholed_packets=self.blackholed,
            blackholed_bytes=self.blackholed_bytes,
            wire_lost_packets=self.wire_lost,
            wire_lost_bytes=self.wire_lost_bytes,
            trimmed_packets=self.trimmed,
            trimmed_bytes_cut=self.trimmed_bytes_cut,
            in_transit_packets=self.in_transit,
            in_transit_bytes=self.in_transit_bytes,
            queued_packets=queued_packets,
            queued_bytes=queued_bytes,
            faults_applied=injector.applied if injector is not None else 0,
            faults_skipped=injector.skipped if injector is not None else 0,
            checks_passed=self.checks_passed,
        )

    def _reconcile_against_ports(self, net: "Network") -> None:
        """The sanitizer's fate tallies must match the data plane's own."""
        port_blackholed = port_down = port_qdrop = port_trim = 0
        for node in net.nodes.values():
            for port in node.ports.values():
                port_blackholed += port.blackholed_packets
                port_down += port.dropped_while_down
                port_qdrop += port.queue.stats.dropped
                port_trim += port.queue.stats.trimmed
        host_corrupt = sum(host.corrupt_dropped for host in net.hosts)
        mismatches = [
            name
            for name, mine, theirs in (
                ("blackholed", self.blackholed, port_blackholed),
                ("dropped-while-down", self.down_dropped, port_down),
                ("queue-dropped", self.queue_dropped, port_qdrop),
                ("trimmed", self.trimmed, port_trim),
                ("corrupt-dropped", self.corrupt_dropped, host_corrupt),
            )
            if mine != theirs
        ]
        if mismatches:
            raise SanitizerError(
                "sanitizer tallies disagree with port counters for: "
                + ", ".join(mismatches)
                + " (was the sanitizer installed before the network was built?)"
            )
