"""Differential property test: ``Simulator.run`` against the heap reference.

Hypothesis generates scripts of ``schedule``, ``schedule_at``,
``schedule_call``, ``cancel`` and ``stop`` calls, made both from the top
level and from inside callbacks, with same-tick clusters, times on and
beside bucket edges (k·2**19 ± 1), and ``run(until=)`` / ``run(max_events=)``
segments that may stop in the middle of a tick and resume.  The same
script runs on a :class:`~repro.sim.simulator.Simulator` (calendar queue,
every entry dispatched from the drain cursor in the run loop) and on a
plain one-event-at-a-time driver over
:meth:`~repro.sim.scheduler.HeapEventScheduler.pop_next`, the ``(time,
seq)`` reference.  Both must fire the same callbacks in the same order and
agree on ``now``, ``events_executed`` and ``pending_events()`` every time a
``run`` returns.  Every script runs twice: in FIFO order, and with a
tie-break hook that reverses each tick installed on both backends.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.scheduler import BUCKET_SHIFT, HeapEventScheduler
from repro.sim.simulator import Simulator

EDGE = 1 << BUCKET_SHIFT

#: Absolute times: dense clusters near zero, bucket edges, anything between.
TIMES = st.one_of(
    st.integers(0, 12),
    st.sampled_from([k * EDGE + d for k in range(1, 4) for d in (-1, 0, 1)]),
    st.integers(0, 4 * EDGE),
)
#: Relative delays: zero (same tick), tiny, and one bucket width ± 1.
DELAYS = st.one_of(st.integers(0, 3), st.sampled_from([EDGE - 1, EDGE, EDGE + 1]))

ACTIONS = st.one_of(
    st.tuples(st.just("at"), TIMES),
    st.tuples(st.just("in"), DELAYS),
    st.tuples(st.just("call"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("stop")),
)
#: Callback bodies, chosen per event by its creation index.
BODIES = st.lists(st.lists(ACTIONS, max_size=3), min_size=1, max_size=8)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ops"), st.lists(ACTIONS, max_size=6)),
        st.tuples(
            st.just("run"),
            st.none() | TIMES,
            st.none() | st.integers(0, 12),
        ),
    ),
    max_size=8,
)

#: Events one script may create; keeps self-scheduling bodies finite.
MAX_EVENTS_CREATED = 150


def reverse_tick(time, entries):
    """A deterministic tie-break hook: run each tick back to front."""
    return entries[::-1]


class HeapSim:
    """``Simulator``'s scheduling and run surface over the heap reference."""

    def __init__(self) -> None:
        self.scheduler = HeapEventScheduler()
        self.now = 0
        self.events_executed = 0
        self._stop = False

    def schedule(self, delay, callback):
        return self.scheduler.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        self.scheduler.validate_time(self.now, time)
        return self.scheduler.schedule_at(time, callback)

    def schedule_call(self, delay, callback):
        self.scheduler.schedule_at(self.now + delay, callback)

    def stop(self):
        self._stop = True

    def pending_events(self):
        return len(self.scheduler)

    def run(self, until=None, max_events=None):
        self._stop = False
        scheduler = self.scheduler
        executed = 0
        while not self._stop:
            if max_events is not None and executed >= max_events:
                break
            next_time = scheduler.next_time()
            if next_time is None or (until is not None and next_time > until):
                break
            event = scheduler.pop_next()
            self.now = event.time
            event.cancelled = True
            event.callback()
            executed += 1
        self.events_executed += executed
        if until is not None and self.now < until:
            next_time = scheduler.next_time()
            if next_time is None or next_time > until:
                self.now = until
        return self.now


class Script:
    """Runs one generated script against one backend, recording what fires."""

    def __init__(self, backend, bodies) -> None:
        self.sim = backend
        self.bodies = bodies
        self.fired: list[int] = []
        self.handles: list = []
        self.created = 0

    def _callback(self, eid):
        def fire():
            self.fired.append(eid)
            for action in self.bodies[eid % len(self.bodies)]:
                self.apply(action)
        return fire

    def apply(self, action) -> None:
        kind = action[0]
        sim = self.sim
        if kind == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
            return
        if kind == "stop":
            sim.stop()
            return
        if self.created >= MAX_EVENTS_CREATED:
            return
        callback = self._callback(self.created)
        self.created += 1
        if kind == "at":
            time = action[1]
            if time < sim.now:
                time = sim.now + time % 3
            self.handles.append(sim.schedule_at(time, callback))
        elif kind == "in":
            self.handles.append(sim.schedule(action[1], callback))
        else:
            sim.schedule_call(action[1], callback)

    def play(self, steps) -> list[tuple]:
        """Apply every step; returns the observation after each run()."""
        observed = []
        for step in [*steps, ("run", None, None)]:  # end with a full drain
            if step[0] == "ops":
                for action in step[1]:
                    self.apply(action)
                continue
            _, until, max_events = step
            returned = self.sim.run(until=until, max_events=max_events)
            observed.append((
                returned,
                self.sim.now,
                self.sim.events_executed,
                self.sim.pending_events(),
                tuple(self.fired),
            ))
        return observed


def assert_matches(bodies, steps, hook) -> None:
    sim = Simulator(seed=0)
    sim.scheduler.tie_break = hook
    heap = HeapSim()
    heap.scheduler.tie_break = hook
    calendar = Script(sim, bodies).play(steps)
    reference = Script(heap, bodies).play(steps)
    assert calendar == reference


@settings(max_examples=300, deadline=None)
@given(BODIES, STEPS)
# Always tried: four same-tick events, the second stops the run and cancels
# the fourth, the resume runs the third alone, then the next bucket.
@example(
    bodies=[[], [("stop",), ("cancel", 3)], [], [], []],
    steps=[
        ("ops", [("in", 5), ("in", 5), ("in", 5), ("in", 5), ("in", EDGE)]),
        ("run", None, None),
        ("run", 5, None),
    ],
)
def test_run_matches_the_heap_reference(bodies, steps):
    assert_matches(bodies, steps, hook=None)


@settings(max_examples=300, deadline=None)
@given(BODIES, STEPS)
# run(max_events=1) on a four-entry tick fires the hook's first entry
# (the whole tick is permuted before anything runs).
@example(
    bodies=[[]],
    steps=[("ops", [("in", 5)] * 4), ("run", None, 1)],
)
# The first entry to run (entry 3) stops the run; the resume finishes the
# tick in the order already permuted (2, 1, 0), without hooking it again.
@example(
    bodies=[[], [], [], [("stop",)]],
    steps=[("ops", [("in", 5)] * 4), ("run", None, None)],
)
def test_run_matches_the_heap_reference_under_a_hook(bodies, steps):
    assert_matches(bodies, steps, hook=reverse_tick)

