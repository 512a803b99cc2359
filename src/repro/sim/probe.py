"""The simulator's one observation slot.

``Simulator.probe`` is None by default.  When a :class:`Probe` is
installed, every data-path branch that a run can report — a packet
injected, dropped, trimmed, blackholed, corrupted or delivered, a sender
timing out or giving up, a proxy crashing, a failover or a route
recomputation — calls the matching hook.  Each site pays one ``probe is
not None`` test when nothing is installed.

The base class is a set of no-op hooks; an observer subclasses it,
overrides the events it cares about, and is set as ``sim.probe`` before
the network is built (``RunOptions(probe=...)`` does that per run).
:class:`~repro.analysis.sanitizer.Sanitizer` is one: it tallies every
packet fate and checks conservation at the end of the run.  Installing
any probe also arms the run loop's backwards-clock guard.

Hooks run inside the event that produced them.  A probe observes; it
must not schedule events, draw from the simulator's RNG or touch the
packet, or the run stops being the one it observes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host, Node
    from repro.net.packet import Packet
    from repro.net.port import OutputPort

__all__ = ["Probe"]


class Probe:
    """No-op hooks for every event a run reports; subclass to observe."""

    __slots__ = ()

    # -- hosts ------------------------------------------------------------------

    def on_inject(self, host: "Host", packet: "Packet") -> None:
        """``host`` handed ``packet`` to its NIC (includes proxy re-sends)."""

    def on_deliver(self, host: "Host", packet: "Packet") -> None:
        """``host`` is about to invoke the flow handler for ``packet``."""

    def on_stray(self, host: "Host", packet: "Packet") -> None:
        """``host`` received a packet with no registered handler."""

    def on_corrupt_drop(self, host: "Host", packet: "Packet") -> None:
        """``host``'s NIC checksum rejected a fault-corrupted packet."""

    # -- ports ------------------------------------------------------------------

    def on_down_drop(self, port: "OutputPort", packet: "Packet") -> None:
        """``packet`` was offered to ``port`` while its link is down."""

    def on_blackhole(self, port: "OutputPort", packet: "Packet") -> None:
        """A fault-injection blackhole window at ``port`` swallowed a packet."""

    def on_corrupt_mark(self, port: "OutputPort", packet: "Packet") -> None:
        """A corruption window at ``port`` flipped bits in ``packet``.

        The packet travels on; its destination host drops it
        (:meth:`on_corrupt_drop`).
        """

    def on_offer(self, port: "OutputPort", packet: "Packet", dropped: bool,
                 size_before: int) -> None:
        """``port``'s queue resolved an offer: a drop when ``dropped``.

        ``size_before`` is the packet size before the offer, so a trim
        (NDP: payload cut to header) shows as a size change, even when the
        trimmed header is then dropped from a full control lane.
        """

    def on_tx_start(self, port: "OutputPort", packet: "Packet") -> None:
        """``port`` dequeued ``packet`` and began serializing it."""

    def on_wire_lost(self, port: "OutputPort", packet: "Packet") -> None:
        """``port``'s link died while ``packet`` was serializing; it is gone."""

    def deliver(self, node: "Node", packet: "Packet") -> None:
        """Lands an in-flight packet at ``node``, in place of ``node.receive``."""
        node.receive(packet)

    # -- transport --------------------------------------------------------------

    def on_ack(self, sender: Any) -> None:
        """``sender`` has processed an ACK (its window state is settled)."""

    def on_timeout(self, sender: Any, lost: int) -> None:
        """``sender``'s RTO fired and presumed ``lost`` packets lost."""

    def on_flow_failed(self, sender: Any, reason: str) -> None:
        """``sender`` gave its flow up."""

    # -- proxies and control ----------------------------------------------------

    def on_proxy_crash(self, proxy: Any) -> None:
        """``proxy``'s process died."""

    def on_proxy_restart(self, proxy: Any) -> None:
        """``proxy``'s process came back."""

    def on_failover(self, manager: Any, kind: str, flows: int) -> None:
        """The pool ``manager`` moved ``flows`` flows.

        ``kind`` is ``"migrate"`` (to another member), ``"failback"`` (to
        the preferred member) or ``"degrade"`` (direct, no live member).
        """

    def on_reroute(self, controller: Any) -> None:
        """``controller`` installed recomputed routes after a link event."""
