"""The discrete-event kernel: scheduler, simulator, timers, RNG."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import EventScheduler, HeapEventScheduler
from repro.sim.simulator import Simulator
from repro.sim.timers import Timer


@pytest.fixture(params=[EventScheduler, HeapEventScheduler], ids=["wheel", "heap"])
def sched_cls(request):
    """Both schedulers must honor the identical (time, seq) FIFO contract."""
    return request.param


class TestEventScheduler:
    def test_pops_in_time_order(self, sched_cls):
        sched = sched_cls()
        order = []
        sched.schedule_at(30, lambda: order.append(30))
        sched.schedule_at(10, lambda: order.append(10))
        sched.schedule_at(20, lambda: order.append(20))
        while (event := sched.pop_next()) is not None:
            event.callback()
        assert order == [10, 20, 30]

    def test_same_tick_is_fifo(self, sched_cls):
        # The determinism contract the cache digests depend on: events
        # scheduled for the same tick fire in insertion order.
        sched = sched_cls()
        order = []
        for i in range(5):
            sched.schedule_at(7, lambda i=i: order.append(i))
        while (event := sched.pop_next()) is not None:
            event.callback()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_are_skipped(self, sched_cls):
        sched = sched_cls()
        keep = sched.schedule_at(2, lambda: None)
        drop = sched.schedule_at(1, lambda: None)
        drop.cancel()
        assert sched.next_time() == 2
        assert sched.pop_next() is keep

    def test_len_counts_only_pending(self, sched_cls):
        sched = sched_cls()
        events = [sched.schedule_at(i, lambda: None) for i in range(4)]
        events[1].cancel()
        events[3].cancel()
        assert len(sched) == 2

    def test_bool_reflects_pending(self, sched_cls):
        sched = sched_cls()
        assert not sched
        event = sched.schedule_at(1, lambda: None)
        assert sched
        event.cancel()
        assert not sched

    def test_validate_time_rejects_past(self, sched_cls):
        sched = sched_cls()
        with pytest.raises(SchedulingError):
            sched.validate_time(now=100, time=99)
        sched.validate_time(now=100, time=100)  # boundary is fine

    def test_len_tracks_push_pop_cancel(self, sched_cls):
        sched = sched_cls()
        events = [sched.schedule_at(i, lambda: None) for i in range(5)]
        assert len(sched) == 5
        events[0].cancel()
        assert len(sched) == 4
        events[0].cancel()  # double-cancel must not decrement twice
        assert len(sched) == 4
        assert sched.pop_next() is events[1]
        assert len(sched) == 3
        events[2].cancel()
        events[3].cancel()
        assert len(sched) == 1
        assert sched.pop_next() is events[4]
        assert len(sched) == 0
        assert sched.pop_next() is None
        assert len(sched) == 0

    def test_len_matches_brute_force_under_churn(self, sched_cls):
        sched = sched_cls()
        live = [sched.schedule_at(i % 7, lambda: None) for i in range(50)]
        for event in live[::3]:
            event.cancel()
        for _ in range(10):
            sched.pop_next()
        remembered = len(sched)
        drained = 0
        while sched.pop_next() is not None:
            drained += 1
        assert remembered == drained

    def test_cancel_after_pop_does_not_corrupt_count(self, sched_cls):
        sched = sched_cls()
        event = sched.schedule_at(1, lambda: None)
        other = sched.schedule_at(2, lambda: None)
        assert sched.pop_next() is event
        event.cancel()  # already popped: must be a no-op for the counter
        assert len(sched) == 1
        assert sched.pop_next() is other


def _reverse(t, entries):
    return entries[::-1]


class TestStopMidTick:
    """``stop()`` in the middle of a tick leaves the unrun entries queued.

    Nothing leaves the calendar until it runs, so a later ``run()`` resumes
    at the drain cursor in the exact order the heap reference produces,
    including entries scheduled *between* the stop and the resume, and with
    or without a tie-break hook permuting the tick.
    """

    SCRIPT = [(5, "a"), (5, "b"), (5, "c"), (7, "d"), (5, "e"), (5, "f"), (9, "g")]

    @pytest.mark.parametrize("hook", [None, _reverse], ids=["fifo", "reverse"])
    def test_resume_after_stop_matches_heap_order(self, hook):
        def drive_sim():
            sim = Simulator(seed=0)
            sim.scheduler.tie_break = hook
            order = []

            def mk(tag):
                def fire():
                    order.append(tag)
                    if len(order) == 2:
                        sim.stop()
                return fire

            handles = [sim.schedule_at(t, mk(tag)) for t, tag in self.SCRIPT]
            handles[4].cancel()  # "e": lazily cancelled inside the tick
            sim.run()
            assert len(order) == 2 and sim.now == 5
            sim.schedule_at(5, mk("h"))  # lands after the unrun rest of t=5
            sim.run()
            return order

        def drive_heap():
            sched = HeapEventScheduler()
            sched.tie_break = hook
            order = []
            mk = lambda tag: (lambda: order.append(tag))
            handles = [sched.schedule_at(t, mk(tag)) for t, tag in self.SCRIPT]
            handles[4].cancel()
            for _ in range(2):  # the heap has no run loop: just pop two
                sched.pop_next().callback()
            sched.schedule_at(5, mk("h"))
            while (event := sched.pop_next()) is not None:
                event.callback()
            return order

        ran, heap = drive_sim(), drive_heap()
        assert ran == heap
        if hook is None:
            assert ran == ["a", "b", "c", "f", "h", "d", "g"]
        else:
            assert ran == ["f", "c", "b", "a", "h", "d", "g"]

    def test_cancel_unrun_same_tick_entry_after_stop(self, sim):
        fired = []

        def a():
            fired.append("a")
            sim.stop()

        sim.schedule(3, a)
        b = sim.schedule(3, lambda: fired.append("b"))
        sim.schedule(3, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events() == 2
        b.cancel()  # a handle stays cancellable while its tick is stopped
        assert sim.pending_events() == 1
        sim.run()
        assert fired == ["a", "c"]
        assert sim.events_executed == 2
        assert sim.pending_events() == 0

    def test_stop_mid_tick_resumes_in_order(self, sim):
        # Four same-tick events, the second stops the run; a later run()
        # fires the rest of the tick in the original order.
        fired = []

        def second():
            fired.append("b")
            sim.stop()

        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(5, second)
        sim.schedule(5, lambda: fired.append("c"))
        sim.schedule(5, lambda: fired.append("d"))
        sim.run()
        assert fired == ["a", "b"]
        sim.run()
        assert fired == ["a", "b", "c", "d"]


class TestSameTickCancellation:
    """An event cancelled by an earlier callback of its own tick never fires.

    The heap reference skips it (the pop sees the flag); the run loop
    must too, whether or not a tie-break hook permutes
    the tick, and the skipped entry is not an executed event.
    """

    @pytest.mark.parametrize("hook", [None, lambda t, entries: None],
                             ids=["fifo", "tie-break-hook"])
    def test_cancelled_earlier_in_its_tick_is_skipped(self, hook):
        sim = Simulator(seed=0)
        sim.scheduler.tie_break = hook
        fired = []
        handles = {}

        def a():
            fired.append("a")
            handles["b"].cancel()

        sim.schedule(5, a)
        handles["b"] = sim.schedule(5, lambda: fired.append("b"))
        sim.schedule(5, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "c"]
        assert sim.events_executed == 2


class TestSimulator:
    def test_clock_advances_with_events(self, sim):
        times = []
        sim.schedule(5, lambda: times.append(sim.now))
        sim.schedule(15, lambda: times.append(sim.now))
        sim.run()
        assert times == [5, 15]

    def test_schedule_is_relative(self, sim):
        seen = []
        def chain():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule(10, chain)
        sim.schedule(10, chain)
        sim.run()
        assert seen == [10, 20, 30]

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=500)
        assert sim.now == 500

    def test_run_until_leaves_future_events(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [] and sim.now == 50
        sim.run()
        assert fired == [1] and sim.now == 100

    def test_stop_halts_immediately(self, sim):
        fired = []
        def first():
            fired.append(1)
            sim.stop()
        sim.schedule(1, first)
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_bounds_execution(self, sim):
        count = [0]
        for i in range(10):
            sim.schedule(i + 1, lambda: count.__setitem__(0, count[0] + 1))
        sim.run(max_events=4)
        assert count[0] == 4

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(5, lambda: None)

    def test_reentrant_run_rejected(self, sim):
        def evil():
            sim.run()
        sim.schedule(1, evil)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_accumulates(self, sim):
        for i in range(3):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_pending_events_counts_through_run(self, sim):
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        kept = sim.schedule(3, lambda: None)
        assert sim.pending_events() == 3
        sim.run(until=2)
        assert sim.pending_events() == 1
        kept.cancel()
        assert sim.pending_events() == 0

    def test_deterministic_given_seed(self):
        def run_once(seed):
            s = Simulator(seed=seed)
            draws = []
            s.schedule(1, lambda: draws.append(s.rng.stream("x").random()))
            s.run()
            return draws[0]
        assert run_once(1) == run_once(1)
        assert run_once(1) != run_once(2)


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(100)
        sim.run()
        assert fired == [100]

    def test_restart_supersedes(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(100)
        sim.schedule(50, lambda: timer.restart(100))
        sim.run()
        assert fired == [150]

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.restart(10)
        timer.stop()
        sim.run()
        assert fired == []

    def test_start_if_idle_does_not_rearm(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(100)
        timer.start_if_idle(5)
        sim.run()
        assert fired == [100]

    def test_armed_and_expires_at(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed and timer.expires_at is None
        timer.restart(42)
        assert timer.armed and timer.expires_at == 42
        sim.run()
        assert not timer.armed

    def test_can_rearm_after_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(10)
        sim.run()
        timer.restart(10)
        sim.run()
        assert fired == [10, 20]


class TestRngRegistry:
    def test_streams_are_deterministic(self):
        a = RngRegistry(1).stream("spray")
        b = RngRegistry(1).stream("spray")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        reg = RngRegistry(1)
        x = reg.stream("x")
        seq1 = [x.random() for _ in range(3)]
        reg2 = RngRegistry(1)
        reg2.stream("y").random()  # interleave another consumer
        seq2 = [reg2.stream("x").random() for _ in range(3)]
        assert seq1 == seq2

    def test_same_stream_returned(self):
        reg = RngRegistry(0)
        assert reg.stream("a") is reg.stream("a")

    def test_len_counts_the_streams_seeded_so_far(self):
        reg = RngRegistry(0)
        assert len(reg) == 0
        reg.stream("a")
        reg.stream("a")
        reg.stream("b")
        assert len(reg) == 2

    def test_fork_differs(self):
        reg = RngRegistry(5)
        forked = reg.fork(1)
        assert reg.stream("x").random() != forked.stream("x").random()

