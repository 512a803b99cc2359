"""The unobserved-path gate on the simulator's event loop.

``Simulator.run()`` with no probe installed (so no per-event clock read)
must stay within 2 % of the pre-telemetry loop it replaced; the raw throughput of the event
loop, ports and transport is recorded by the perf ledger
(``python3 -m benchmarks.ledger``: ``pkts_per_s`` and the per-layer
``*.calls_per_kpkt``), not here.
"""

from repro.sim.simulator import Simulator


def _drive_reference_loop(sim, until=None, max_events=None):
    """The pre-telemetry ``Simulator.run`` loop, verbatim minus telemetry.

    Replicates every check the shipping loop performs (stop request,
    ``max_events``, horizon, the probed run's backwards-clock guard) but
    dispatches ``event.callback()`` directly — no event-timing arm.
    Kept as the measurement baseline for
    :func:`test_disabled_instrumentation_overhead`: the simulator's
    unobserved path must stay within noise of this.
    """
    scheduler = sim.scheduler
    executed = 0
    while True:
        if sim._stop_requested:
            break
        if max_events is not None and executed >= max_events:
            break
        next_time = scheduler.next_time()
        if next_time is None:
            break
        if until is not None and next_time > until:
            sim.now = until
            break
        event = scheduler.pop_next()
        assert event is not None
        if sim.probe is not None and event.time < sim.now:
            raise AssertionError("clock would move backwards")
        sim.now = event.time
        event.cancelled = True
        event.callback()
        executed += 1
    sim.events_executed += executed
    return executed


def _chained_events(sim, total):
    """Seed ``total`` self-rescheduling tick events onto ``sim``."""
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < total:
            sim.schedule(1, tick)

    sim.schedule(1, tick)
    return count


def test_disabled_instrumentation_overhead():
    """``Simulator.run()`` with no probe pays <= 2% vs the pre-telemetry
    reference loop.

    The unobserved path decides once per ``run()`` call, from the probe's
    class, not to time events, and adds one ``is None`` branch per event;
    this guards against anyone moving real work onto it.  Min-of-N with interleaved reps so scheduler
    jitter and cache warmth hit both sides alike.
    """
    import time

    total = 200_000
    reps = 7
    ref_times, run_times = [], []
    for _ in range(reps):
        sim = Simulator()
        count = _chained_events(sim, total)
        t0 = time.perf_counter()
        _drive_reference_loop(sim)
        ref_times.append(time.perf_counter() - t0)
        assert count[0] == total

        sim = Simulator()
        count = _chained_events(sim, total)
        t0 = time.perf_counter()
        sim.run()
        run_times.append(time.perf_counter() - t0)
        assert count[0] == total

    best_ref, best_run = min(ref_times), min(run_times)
    # 2% relative budget plus a small absolute floor for timer noise.
    assert best_run <= best_ref * 1.02 + 0.005, (
        f"disabled instrumentation overhead too high: "
        f"run {best_run:.4f}s vs reference {best_ref:.4f}s"
    )
