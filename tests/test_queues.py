"""Queue disciplines: drop-tail, ECN marking, trimming, host priority."""

import random
from functools import partial

import pytest

from repro.net.packet import HEADER_BYTES, make_ack, make_data
from repro.net.queues import (
    DropTailQueue,
    EcnQueue,
    EnqueueOutcome,
    HostQueue,
    TrimmingQueue,
)


def data(seq=0, payload=1000, flow=1):
    return make_data(flow, seq, 1, 2, payload_bytes=payload)


def ack(flow=1):
    return make_ack(flow, 2, 1, ack_seq=0, echo_seq=0, ecn_echo=False, ts_echo=1)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10_000)
        packets = [data(seq=i) for i in range(3)]
        for p in packets:
            assert q.offer(p) is EnqueueOutcome.ENQUEUED
        assert [q.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_drops_when_full(self):
        q = DropTailQueue(2_200)
        assert q.offer(data()) is EnqueueOutcome.ENQUEUED
        assert q.offer(data()) is EnqueueOutcome.ENQUEUED
        assert q.offer(data()) is EnqueueOutcome.DROPPED
        assert q.stats.dropped == 1
        assert q.stats.dropped_bytes == 1064

    def test_byte_accounting(self):
        q = DropTailQueue(10_000)
        q.offer(data(payload=500))
        assert q.occupied_bytes == 500 + HEADER_BYTES
        q.pop()
        assert q.occupied_bytes == 0

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(100).pop() is None

    def test_max_occupancy_tracked(self):
        q = DropTailQueue(10_000)
        q.offer(data())
        q.offer(data())
        q.pop()
        assert q.stats.max_occupied_bytes == 2 * 1064

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestEcnQueue:
    def make(self, capacity=100_000, low=2_000, high=5_000, seed=0):
        return EcnQueue(capacity, low, high, partial(random.Random, seed))

    def test_no_marking_below_low(self):
        q = self.make()
        p1 = data()
        q.offer(p1)  # occupancy at enqueue time = 0
        assert not p1.ecn_ce

    def test_always_marks_above_high(self):
        q = self.make(low=100, high=2_000)
        for i in range(3):
            q.offer(data(seq=i))
        p = data(seq=99)
        q.offer(p)  # occupancy 3 * 1064 > high
        assert p.ecn_ce
        assert q.stats.marked >= 1

    def test_probabilistic_band_marks_some(self):
        q = self.make(capacity=10_000_000, low=1_000, high=1_000_000)
        marked = 0
        for i in range(500):
            p = data(seq=i)
            q.offer(p)
            marked += p.ecn_ce
        assert 0 < marked < 500  # linear RED band: neither none nor all

    def test_control_packets_never_marked(self):
        q = self.make(low=0, high=1)
        q.offer(data())
        a = ack()
        q.offer(a)
        assert not a.ecn_ce

    def test_still_drops_at_capacity(self):
        q = self.make(capacity=1_100)
        assert q.offer(data()) is EnqueueOutcome.ENQUEUED
        assert q.offer(data()) is EnqueueOutcome.DROPPED

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            EcnQueue(1000, 500, 100, partial(random.Random, 0))


class TestTrimmingQueue:
    def make(self, capacity=3_000, low=500, high=2_000, control=10_000):
        return TrimmingQueue(capacity, low, high, partial(random.Random, 0),
                             control_capacity_bytes=control)

    def test_overflow_trims_instead_of_dropping(self):
        q = self.make(capacity=2_200)
        q.offer(data(seq=0))
        q.offer(data(seq=1))
        victim = data(seq=2)
        outcome = q.offer(victim)
        assert outcome is EnqueueOutcome.TRIMMED
        assert victim.trimmed and victim.size_bytes == HEADER_BYTES
        assert q.stats.trimmed == 1

    def test_trimmed_header_dequeued_first(self):
        q = self.make(capacity=2_200)
        q.offer(data(seq=0))
        q.offer(data(seq=1))
        q.offer(data(seq=2))  # trimmed
        first = q.pop()
        assert first.trimmed and first.seq == 2

    def test_control_lane_priority_over_data(self):
        q = self.make()
        q.offer(data(seq=0))
        q.offer(ack())
        assert q.pop().is_control

    def test_control_lane_overflow_drops(self):
        q = self.make(control=HEADER_BYTES)
        q.offer(ack())
        assert q.offer(ack()) is EnqueueOutcome.DROPPED
        assert q.stats.dropped == 1

    def test_data_marked_against_data_occupancy(self):
        q = self.make(capacity=100_000, low=100, high=1_500)
        q.offer(data(seq=0))
        q.offer(data(seq=1))
        p = data(seq=2)
        q.offer(p)  # data occupancy 2128 > high
        assert p.ecn_ce

    def test_byte_accounting_per_lane(self):
        q = self.make()
        q.offer(data())
        q.offer(ack())
        assert q.data_bytes == 1064
        assert q.control_bytes == HEADER_BYTES
        assert q.occupied_bytes == 1064 + HEADER_BYTES
        q.pop()
        q.pop()
        assert q.occupied_bytes == 0 and q.is_empty

    def test_len_counts_both_lanes(self):
        q = self.make()
        q.offer(data())
        q.offer(ack())
        assert len(q) == 2


class TestHostQueue:
    def test_control_priority_default(self):
        q = HostQueue()
        q.offer(data(seq=0))
        q.offer(ack())
        assert q.pop().is_control

    def test_priority_disabled_is_fifo(self):
        q = HostQueue(control_priority=False)
        q.offer(data(seq=0))
        q.offer(ack())
        assert not q.pop().is_control

    def test_drops_only_when_out_of_memory(self):
        q = HostQueue(capacity_bytes=1_100)
        assert q.offer(data()) is EnqueueOutcome.ENQUEUED
        assert q.offer(data()) is EnqueueOutcome.DROPPED

    def test_trimmed_data_rides_priority_lane(self):
        q = HostQueue()
        q.offer(data(seq=0))
        trimmed = data(seq=1)
        trimmed.trim()
        q.offer(trimmed)
        assert q.pop().seq == 1
