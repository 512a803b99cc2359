"""The simulator facade: clock + scheduler + RNG + probe slot.

A :class:`Simulator` owns the run loop.  Components hold a reference to it
and use :meth:`schedule` / :meth:`schedule_at` to arrange future work and
:attr:`now` to read the clock.  The loop runs until the event queue drains,
a time horizon is reached, or a registered stop predicate fires.
"""

from __future__ import annotations

import gc
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import SanitizerError, SchedulingError, SimulationError
from repro.sim.events import Event
from repro.sim.probe import Probe
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import EventScheduler


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a stretch that builds no garbage cycles.

    The run loop and the fabric build allocate heavily (entry tuples,
    packets, table rows) but nothing in them dies cyclic, so generational
    passes inside are pure overhead.  What *does* die cyclic is a whole
    finished run (its fabric is one blob of cycles); everything allocated
    under the pause is still in the young generation, so the first young
    collection after the window — or the ``gc.collect(0)`` that opens the
    next one — frees it cheaply, instead of whichever full collection the
    allocation pattern happens to trigger.  Nested use is a no-op; the
    prior state is restored on the way out, also when the body raises.
    """
    if not gc.isenabled():
        yield
        return
    gc.collect(0)
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Simulator:
    """Discrete-event run loop with an integer-picosecond clock."""

    def __init__(self, seed: int = 0) -> None:
        self.now: int = 0
        self.scheduler = EventScheduler()
        self.rng = RngRegistry(seed)
        self.events_executed: int = 0
        #: Opt-in observer (see :mod:`repro.sim.probe`); every hook site
        #: tests ``sim.probe is not None`` once.
        self.probe: Probe | None = None
        self._running = False
        self._stop_requested = False

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` after ``delay`` picoseconds."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        return self.scheduler.schedule_at(self.now + delay, callback)

    def schedule_call(self, delay: int, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after ``delay`` ps with no cancellation handle.

        The fire-and-forget fast path: no :class:`Event` is allocated, so
        the caller cannot cancel.  Ports skip this wrapper and bind
        :meth:`~repro.sim.scheduler.EventScheduler.schedule_call` directly,
        with absolute times, for their serialization and wire-propagation
        events.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        self.scheduler.schedule_call(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` at absolute tick ``time`` (must not be in the past)."""
        self.scheduler.validate_time(self.now, time)
        return self.scheduler.schedule_at(time, callback)

    # -- running ------------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the final clock value.

        ``until`` is an absolute tick; when it cuts the run short the clock
        is advanced to it so a later ``run`` call resumes consistently.
        """
        if self._running:
            raise SimulationError("run() re-entered from inside an event")
        self._running = True
        self._stop_requested = False
        scheduler = self.scheduler
        # Hoisted once per run: with no probe and no hook, each costs the
        # run loop only a local test.  Events are timed only for a probe
        # whose class overrides on_event.
        hook = scheduler.tie_break
        probe = self.probe
        probed = probe is not None
        on_event = (
            probe.on_event
            if probe is not None and type(probe).on_event is not Probe.on_event
            else None
        )
        budget = sys.maxsize if max_events is None else max_events
        executed = 0
        try:
            with collector_paused():
                # Every entry runs straight from the drain cursor: nothing
                # leaves the calendar until it runs, so stop() and the
                # max_events budget simply break, and a later run() resumes
                # at the cursor.
                while executed < budget and not self._stop_requested:
                    cur = scheduler._cur
                    idx = scheduler._idx
                    if idx >= len(cur):
                        if scheduler.next_time() is None:
                            break  # drained: clock fix-up below
                        continue  # loaded the next bucket
                    t, obj = cur[idx]
                    if until is not None and t > until:
                        break  # horizon: clock fix-up below
                    if hook is not None and idx >= scheduler._hooked:
                        scheduler.permute_tick()
                        continue  # run the tick in the hook's order
                    scheduler._idx = idx + 1
                    if obj.__class__ is Event:
                        if obj.cancelled:
                            continue
                        obj.cancelled = True  # consumed; pending -> False
                        obj = obj.callback
                    if probed and t < self.now:
                        self._backwards(t)
                    self.now = t
                    if on_event is None:
                        obj()
                    else:
                        started = time.perf_counter()  # repro: allow[wall-clock] profiler
                        obj()
                        ended = time.perf_counter()  # repro: allow[wall-clock] profiler
                        on_event(obj, ended - started)
                    executed += 1
        finally:
            self._running = False
            self.events_executed += executed
        if until is not None and self.now < until:
            # Advance the clock to the horizon when the queue drained or the
            # next event lies beyond it; a stop()/max_events break with work
            # still due keeps the clock.
            next_time = scheduler.next_time()
            if next_time is None or next_time > until:
                self.now = until
        return self.now

    def _backwards(self, t: int) -> None:
        """Probed runs: an event slipped into the past through the raw
        scheduler (Simulator.schedule_at validates up front)."""
        raise SanitizerError(
            f"clock would move backwards: event at {t} popped at now={self.now}"
        )

    def stop(self) -> None:
        """Request the run loop to return after the current event."""
        self._stop_requested = True

    # -- convenience --------------------------------------------------------

    def pending_events(self) -> int:
        """Number of live events still queued (counted on ask, O(pending))."""
        return len(self.scheduler)
