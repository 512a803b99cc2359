"""Property-based tests (hypothesis) on core data structures and invariants."""

import random
from functools import partial

# EmpiricalCdf imports numpy lazily; import it here so no example's deadline pays for it.
import numpy  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.detection.lossdetector import DetectorConfig, FlowTracker
from repro.detection.reorder import ReorderingEstimator
from repro.metrics.cdf import EmpiricalCdf
from repro.metrics.summary import summarize
from repro.net.packet import make_data
from repro.net.queues import DropTailQueue, EcnQueue, EnqueueOutcome, TrimmingQueue
from repro.sim.scheduler import EventScheduler
from repro.transport.dctcp import DctcpLike
from repro.transport.rtt import RttEstimator


class TestUnitProperties:
    @given(st.integers(min_value=0, max_value=10**9))
    def test_serialization_scales_linearly_at_100g(self, nbytes):
        # 100 Gb/s is exactly 80 ps/byte: no rounding error ever.
        assert units.serialization_delay_ps(nbytes, units.gbps(100)) == 80 * nbytes

    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_duration_parse_format_consistency(self, ms_value):
        ps = units.milliseconds(ms_value)
        assert units.parse_duration(f"{ms_value}ms") == ps

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=10**10))
    def test_bdp_non_negative_and_monotone(self, rate, rtt):
        bdp = units.bandwidth_delay_product_bytes(float(rate), rtt)
        assert bdp >= 0
        assert units.bandwidth_delay_product_bytes(float(rate), rtt + 10**6) >= bdp


class TestSchedulerProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sched = EventScheduler()
        fired = []
        for t in times:
            sched.schedule_at(t, lambda t=t: fired.append(t))
        while (event := sched.pop_next()) is not None:
            event.callback()
        assert fired == sorted(times)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100),
        st.sets(st.integers(min_value=0, max_value=99)),
    )
    def test_cancellation_removes_exactly_the_cancelled(self, times, cancel_indices):
        sched = EventScheduler()
        events = [sched.schedule_at(t, lambda: None) for t in times]
        for index in cancel_indices:
            if index < len(events):
                events[index].cancel()
        surviving = sum(1 for e in events if not e.cancelled)
        popped = 0
        while sched.pop_next() is not None:
            popped += 1
        assert popped == surviving


class TestQueueProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=200))
    def test_droptail_conservation(self, sizes):
        q = DropTailQueue(50_000)
        accepted = 0
        for i, payload in enumerate(sizes):
            if q.offer(make_data(1, i, 0, 1, payload_bytes=payload)) is EnqueueOutcome.ENQUEUED:
                accepted += 1
        drained = 0
        while q.pop() is not None:
            drained += 1
        assert drained == accepted
        assert q.stats.dropped == len(sizes) - accepted
        assert q.occupied_bytes == 0

    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=200),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_ecn_queue_never_exceeds_capacity(self, sizes, seed):
        capacity = 20_000
        q = EcnQueue(capacity, 2_000, 10_000, partial(random.Random, seed))
        peak = 0
        for i, payload in enumerate(sizes):
            q.offer(make_data(1, i, 0, 1, payload_bytes=payload))
            peak = max(peak, q.occupied_bytes)
        assert peak <= capacity
        assert q.stats.max_occupied_bytes == peak

    @given(st.lists(st.integers(min_value=100, max_value=5000), min_size=1, max_size=200))
    def test_trimming_conserves_packets(self, sizes):
        q = TrimmingQueue(10_000, 1_000, 5_000, partial(random.Random, 0),
                          control_capacity_bytes=10**9)
        for i, payload in enumerate(sizes):
            outcome = q.offer(make_data(1, i, 0, 1, payload_bytes=payload))
            assert outcome is not EnqueueOutcome.DROPPED  # control lane is huge
        drained = 0
        while q.pop() is not None:
            drained += 1
        # with an unbounded control lane, trimming never loses a packet
        assert drained == len(sizes)


class TestTransportProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10**10), min_size=1, max_size=100))
    def test_rtt_estimator_stays_within_sample_range(self, samples):
        est = RttEstimator(10**6, min_rto_ps=1, max_rto_ps=10**12)
        for s in samples:
            est.on_sample(s)
        assert min(samples) <= est.min_rtt <= min(min(samples), 10**6) or est.min_rtt == min(
            min(samples), 10**6
        )
        assert est.srtt <= max(max(samples), 10**6)
        assert est.rto_ps() >= 1

    @given(
        st.lists(
            st.tuples(st.sampled_from(["ack", "mark", "loss", "timeout"]),
                      st.integers(min_value=0, max_value=10**6)),
            min_size=1, max_size=300,
        )
    )
    def test_dctcp_window_invariants(self, events):
        cc = DctcpLike(1000, min_cwnd_packets=1)
        now = 0
        snd_nxt = 0
        for kind, _ in events:
            now += 10
            snd_nxt += 5
            if kind == "ack":
                cc.on_ack(now, False, snd_nxt - 1, snd_nxt)
            elif kind == "mark":
                cc.on_ack(now, True, snd_nxt - 1, snd_nxt)
            elif kind == "loss":
                cc.on_congestion(now, snd_nxt - 1, snd_nxt, severe=True)
            else:
                cc.on_timeout(now, snd_nxt)
            assert cc.cwnd >= cc.min_cwnd
            assert 0.0 <= cc.alpha <= 1.0


class TestDetectorProperties:
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    def test_each_seq_declared_at_most_once(self, seqs):
        cfg = DetectorConfig(max_tracked_gaps=16, packet_threshold=2,
                             reorder_window_ps=10, evict_policy="lost")
        declared = []
        tracker = FlowTracker(cfg, lambda seq, ts: declared.append(seq))
        for i, seq in enumerate(seqs):
            tracker.on_data(seq, now=(i + 1) * 100, packet_ts=i, is_retransmit=False)
        tracker.flush(10**9)
        assert len(declared) == len(set(declared))

    @given(st.permutations(list(range(30))))
    def test_reorder_estimator_accounts_every_seq(self, order):
        est = ReorderingEstimator()
        for seq in order:
            est.on_arrival(seq)
        assert est.outstanding == 0
        assert est.arrivals == 30


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                    min_size=1, max_size=200))
    def test_cdf_percentiles_monotone(self, samples):
        cdf = EmpiricalCdf(samples)
        ps = [0, 10, 25, 50, 75, 90, 99, 100]
        values = [cdf.percentile(p) for p in ps]
        assert values == sorted(values)
        assert values[0] == min(samples)
        assert values[-1] == max(samples)

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                    min_size=1, max_size=200))
    def test_summary_bounds(self, values):
        s = summarize(values)
        slack = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))  # fp summation
        assert s.minimum - slack <= s.mean <= s.maximum + slack
        assert s.stdev >= 0
        assert s.count == len(values)
