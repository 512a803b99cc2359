"""The instrumentation protocol: named probe points with a near-free off switch.

One :class:`Instrumentation` object rides on the simulator
(``sim.instrumentation``) the same way the sanitizer does: components
*register* themselves at build time (``on_port`` / ``on_sender`` /
``on_receiver`` / ``on_proxy`` / ``on_fault_injector``), the experiment
runner marks phase boundaries (``phase`` / ``begin_run`` / ``finish``),
and the event loop reports per-event handler time through ``on_event``.

The contract that keeps the disabled path cheap: the run loop hoists
``sim.instrumentation.enabled`` into a local **once per run**, so a
simulation without telemetry pays one attribute check total — not one per
event.  Registration hooks are called unconditionally (they run once per
component at build time, not on any hot path) and are no-ops here.

This module deliberately imports nothing from the rest of the library so
the simulator core can depend on it without cycles; the concrete recorder
lives in :mod:`repro.telemetry.recorder`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator
    from repro.telemetry.recorder import TelemetrySnapshot


class Instrumentation:
    """Base class / protocol for run instrumentation.

    Every hook is a documented no-op so concrete recorders override only
    what they need.  Hot paths read ``enabled`` once and skip every call
    when it is False.
    """

    #: Hot paths hoist this once per run; False means every hook is dead.
    enabled = False

    # -- build-time registration (cold path, called once per component) ----

    def on_port(self, port: Any) -> None:
        """An :class:`~repro.net.port.OutputPort` was built."""

    def on_sender(self, sender: Any) -> None:
        """A :class:`~repro.transport.sender.WindowedSender` was built."""

    def on_receiver(self, receiver: Any) -> None:
        """An :class:`~repro.transport.receiver.AckingReceiver` was built."""

    def on_proxy(self, proxy: Any) -> None:
        """A proxy (naive / streamlined / trimless) was built."""

    def on_fault_injector(self, injector: Any) -> None:
        """A :class:`~repro.faults.injector.FaultInjector` was armed."""

    # -- run lifecycle ------------------------------------------------------

    def phase(self, name: str) -> None:
        """The runner entered wall-clock phase ``name`` (build/run/collect)."""

    def begin_run(self, sim: "Simulator") -> None:
        """The simulation loop is about to start; attach samplers here."""

    def on_event(self, callback: Callable[[], Any], seconds: float) -> None:
        """One event handler finished after ``seconds`` of wall-clock."""

    def finish(self) -> "TelemetrySnapshot | None":
        """The run is over; return the snapshot (None when recording nothing)."""
        return None


class NullInstrumentation(Instrumentation):
    """The disabled instrumentation: every hook inherited, every hook dead."""

    enabled = False

    def __reduce__(self) -> str:
        # Pickle the singleton by reference: a restored graph shares the
        # module's NULL_INSTRUMENTATION instead of holding a copy.
        return "NULL_INSTRUMENTATION"


#: Module-level singleton the simulator defaults to, so the disabled path
#: allocates nothing per run.
NULL_INSTRUMENTATION = NullInstrumentation()
