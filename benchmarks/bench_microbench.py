"""Microbenchmarks of the simulator substrate itself.

These track the kernel's raw throughput — event scheduling, queue
operations, packet forwarding across a small fabric — so performance
regressions in the hot path are visible independently of experiment
results.
"""

from functools import partial

from repro.analysis.sanitizer import Sanitizer
from repro.config import QueueSpec, TransportConfig, small_interdc_config
from repro.net.packet import make_data
from repro.sim.rng import derive_stream
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.transport.connection import Connection
from repro.units import megabytes, milliseconds


def test_scheduler_throughput(benchmark):
    """Schedule + execute 100k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 100_000:
                sim.schedule(1, tick)

        sim.schedule(1, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 100_000


def test_queue_offer_pop_throughput(benchmark):
    """50k ECN-queue offer/pop pairs."""
    spec = QueueSpec(kind="ecn", capacity_bytes=10**9,
                     ecn_low_bytes=10**6, ecn_high_bytes=10**7)

    def run():
        q = spec.build(partial(derive_stream, 0, "bench:queue"))
        for i in range(50_000):
            q.offer(make_data(1, i, 0, 1, payload_bytes=1500))
        drained = 0
        while q.pop() is not None:
            drained += 1
        return drained

    assert benchmark(run) == 50_000


def test_end_to_end_transfer_throughput(benchmark):
    """A 10 MB flow across the small two-DC fabric, measured in wall time."""

    def run():
        sim = Simulator(seed=0)
        topo = build_interdc(sim, small_interdc_config())
        conn = Connection(
            topo.net,
            topo.hosts(0)[0],
            topo.hosts(1)[0],
            megabytes(10),
            TransportConfig(payload_bytes=4096),
        )
        conn.start()
        sim.run(until=milliseconds(10_000))
        assert conn.completed
        return sim.events_executed

    events = benchmark(run)
    assert events > 0


def _drive_reference_loop(sim, until=None, max_events=None):
    """The pre-telemetry ``Simulator.run`` loop, verbatim minus telemetry.

    Replicates every check the shipping loop performs (stop request,
    ``max_events``, horizon, the probed run's backwards-clock guard) but
    dispatches ``event.callback()`` directly — no instrumentation arm.
    Kept as the measurement baseline for
    :func:`test_disabled_instrumentation_overhead`: the instrumented
    simulator's *disabled* path must stay within noise of this.
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
    """``Simulator.run()`` with instrumentation *off* pays <= 2% vs the
    pre-telemetry reference loop.

    The disabled path hoists one ``enabled`` check per ``run()`` call and
    adds one ``is None`` branch per event; this guards against anyone
    moving real work onto it.  Min-of-N with interleaved reps so scheduler
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


def test_end_to_end_transfer_sanitized(benchmark):
    """The same 10 MB flow with the invariant sanitizer installed.

    Compare against ``test_end_to_end_transfer_throughput`` to read the
    sanitizer's overhead; the probe hook sites are one attribute read +
    ``None`` test when no probe is installed, and per-packet counter
    updates when the sanitizer occupies the slot.
    """

    def run():
        sim = Simulator(seed=0)
        san = Sanitizer().install(sim)
        topo = build_interdc(sim, small_interdc_config())
        conn = Connection(
            topo.net,
            topo.hosts(0)[0],
            topo.hosts(1)[0],
            megabytes(10),
            TransportConfig(payload_bytes=4096),
        )
        conn.start()
        sim.run(until=milliseconds(10_000))
        assert conn.completed
        report = san.finish(topo.net)
        assert report.injected_packets > 0
        return sim.events_executed

    events = benchmark(run)
    assert events > 0
