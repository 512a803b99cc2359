"""The simulator's one observer slot.

``Simulator.probe`` is None by default.  An installed :class:`Probe`
hears three kinds of hook, each a notification:

* *build time* — every output port, sender, receiver and proxy, and an
  armed fault injector, announces itself once (``on_port`` …
  ``on_fault_injector``);
* *the run's lifecycle* — the runner marks wall-clock phases
  (``phase``), the start and the end of the run loop (``begin_run``,
  ``end_run``), and the loop reports each event's handler time
  (``on_event``);
* *the data path* — every branch a run can report: a packet injected,
  dropped, trimmed, blackholed, corrupted, landed or delivered, a sender
  timing out or giving up, a proxy crashing, a failover or a route
  recomputation.

Each site pays one ``probe is not None`` test when nothing is installed.
The run loop decides once per run, from the installed probe's class,
whether to time events: only a class that overrides ``on_event`` pays a
clock read per event.  Installing any probe also arms the loop's
backwards-clock guard.

The base class is a set of no-op hooks; an observer subclasses it,
overrides what it cares about, and is set as ``sim.probe`` before the
network is built (``RunOptions(probe=...)`` does that per run).
:class:`~repro.analysis.sanitizer.Sanitizer` tallies every packet fate
and checks conservation; :class:`~repro.telemetry.recorder
.TelemetryRecorder` samples time-series and profiles the run.  A
:class:`FanOut` holds several observers in the one slot.

Hooks run inside the event that produced them.  A probe observes: it
must not draw from the simulator's RNG or touch a packet or a
component's state, or the run stops being the one it observes.  The one
kind of event it may schedule is a read-only sampler tick (started in
``begin_run``): ticks move only ``events_executed``, which no result
digest reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Host, Node
    from repro.net.packet import Packet
    from repro.net.port import OutputPort
    from repro.sim.simulator import Simulator

__all__ = ["FanOut", "Probe"]


class Probe:
    """No-op hooks for everything a run reports; subclass to observe."""

    __slots__ = ()

    # -- build time -------------------------------------------------------------

    def on_port(self, port: "OutputPort") -> None:
        """An output port was built."""

    def on_sender(self, sender: Any) -> None:
        """A :class:`~repro.transport.sender.WindowedSender` was built."""

    def on_receiver(self, receiver: Any) -> None:
        """An :class:`~repro.transport.receiver.AckingReceiver` was built."""

    def on_proxy(self, proxy: Any) -> None:
        """A proxy (naive, or streamlined with or without a detector) was built."""

    def on_fault_injector(self, injector: Any) -> None:
        """A :class:`~repro.faults.injector.FaultInjector` was armed."""

    # -- run lifecycle ----------------------------------------------------------

    def phase(self, name: str) -> None:
        """The runner entered wall-clock phase ``name`` (build/run/collect)."""

    def begin_run(self, sim: "Simulator") -> None:
        """The run loop is about to start; start read-only samplers here."""

    def on_event(self, callback: Callable[[], Any], seconds: float) -> None:
        """One event handler finished after ``seconds`` of wall-clock."""

    def end_run(self) -> None:
        """The run is over and its results are collected."""

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
        """``port`` dequeued ``packet``, whose serialization has started.

        A queued packet is dequeued lazily, so this can come after the
        tick its serialization started (never after it lands).
        """

    def on_wire_lost(self, port: "OutputPort", packet: "Packet") -> None:
        """``port``'s link died while ``packet`` was serializing; it is gone.

        Reported at the tick the packet would have landed.
        """

    def on_land(self, node: "Node", packet: "Packet") -> None:
        """An in-flight packet reached ``node``, which forwards or delivers it."""

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


class FanOut(Probe):
    """Several observers in the one slot: each hook goes to every member,
    in order.  It overrides ``on_event``, so a fanned-out run times events."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Probe]) -> None:
        self.members: tuple[Probe, ...] = tuple(members)


def _forward(name: str) -> Callable[..., None]:
    def hook(self: FanOut, *args: Any) -> None:
        for member in self.members:
            getattr(member, name)(*args)

    return hook


for _name, _hook in list(vars(Probe).items()):
    if callable(_hook) and not _name.startswith("_"):
        setattr(FanOut, _name, _forward(_name))
