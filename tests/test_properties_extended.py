"""Additional property-based tests for the newer subsystems."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.evaluation import evaluate_detector, synthesize_stream
from repro.detection.lossdetector import DetectorConfig
from repro.metrics.summary import jain_fairness
from repro.net.buffers import SharedBuffer, SharedEcnQueue
from repro.net.packet import make_data
from repro.orchestration.admission import ProxyAdmissionPolicy
from repro.transport.rate_based import RateBased
from repro.units import gbps, megabytes, microseconds, milliseconds
from repro.workloads.incast import uniform_incast


class TestAdmissionProperties:
    @given(
        small_mb=st.integers(min_value=1, max_value=50),
        extra_mb=st.integers(min_value=1, max_value=200),
        degree=st.integers(min_value=2, max_value=32),
    )
    def test_size_test_is_monotone(self, small_mb, extra_mb, degree):
        """Growing the incast can only flip direct->proxy, never back."""
        policy = ProxyAdmissionPolicy()
        kwargs = dict(
            bottleneck_bps=gbps(100),
            interdc_rtt_ps=milliseconds(4),
            intra_rtt_ps=microseconds(8),
            bottleneck_buffer_bytes=17_015_000,
        )
        small = policy.decide(
            uniform_incast("s", degree=degree, total_bytes=megabytes(small_mb)), **kwargs
        )
        large = policy.decide(
            uniform_incast("l", degree=degree,
                           total_bytes=megabytes(small_mb + extra_mb)), **kwargs
        )
        assert large.overload_bytes >= small.overload_bytes
        if small.use_proxy:
            assert large.use_proxy

    @given(degree=st.integers(min_value=2, max_value=60))
    def test_overload_never_exceeds_burst(self, degree):
        policy = ProxyAdmissionPolicy()
        job = uniform_incast("j", degree=degree, total_bytes=megabytes(100))
        decision = policy.decide(
            job,
            bottleneck_bps=gbps(100),
            interdc_rtt_ps=milliseconds(4),
            intra_rtt_ps=microseconds(8),
            bottleneck_buffer_bytes=17_015_000,
        )
        assert decision.overload_bytes <= job.total_bytes


class TestSharedBufferProperties:
    @given(
        sizes=st.lists(st.integers(min_value=64, max_value=9000),
                       min_size=1, max_size=300),
        alpha=st.floats(min_value=0.1, max_value=16.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_pool_accounting_balances(self, sizes, alpha, seed):
        pool = SharedBuffer(64_000)
        rng = random.Random(seed)
        queues = [SharedEcnQueue(pool, alpha, 1_000, 8_000, lambda: rng) for _ in range(3)]
        for i, size in enumerate(sizes):
            queues[i % 3].offer(make_data(1, i, 0, 1, payload_bytes=size))
            assert 0 <= pool.occupied_bytes <= pool.total_bytes
        drained = 0
        for q in queues:
            while q.pop() is not None:
                drained += 1
        assert pool.occupied_bytes == 0
        accepted = sum(q.stats.enqueued for q in queues)
        assert drained == accepted


class TestRateBasedProperties:
    @given(
        spacings=st.lists(st.integers(min_value=1_000, max_value=10**9),
                          min_size=10, max_size=120),
    )
    def test_window_always_at_least_min(self, spacings):
        cc = RateBased(100, payload_bytes=4096, min_rtt_ps=microseconds(50))
        now = 0
        for i, gap in enumerate(spacings):
            now += gap
            cc.on_ack(now, False, i, i + 1)
            assert cc.cwnd >= cc.min_cwnd
            assert cc.btlbw_bps >= 0


class TestDetectorScoreProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        loss=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_in_order_streams_score_perfect_precision(self, loss, seed):
        """Without reordering, the detector never false-positives."""
        events, lost = synthesize_stream(
            600, loss_rate=loss, reorder_rate=0, reorder_depth=0, seed=seed
        )
        result = evaluate_detector(
            events, lost,
            DetectorConfig(packet_threshold=2, reorder_window_ps=microseconds(1)),
        )
        assert result.false_positives == 0
        assert result.precision == 1.0


class TestFairnessProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=1e9), min_size=1, max_size=64))
    def test_jain_bounds(self, values):
        index = jain_fairness(values)
        assert 1 / len(values) - 1e-9 <= index <= 1 + 1e-9

    @given(st.floats(min_value=0.001, max_value=1e6), st.integers(min_value=1, max_value=50))
    def test_equal_values_are_perfectly_fair(self, value, n):
        assert abs(jain_fairness([value] * n) - 1.0) < 1e-9
