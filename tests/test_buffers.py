"""Shared switch buffers with Dynamic Threshold admission."""

import random
from functools import partial

import pytest

from repro.config import FabricConfig, small_interdc_config
from repro.errors import ConfigError
from repro.net.buffers import SharedBuffer, SharedEcnQueue
from repro.net.packet import make_data
from repro.net.port import OutputPort
from repro.net.queues import EnqueueOutcome
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.topology.leafspine import build_leafspine
from repro.net.network import Network
from repro.units import kilobytes


def data(seq=0, payload=1000):
    return make_data(1, seq, 0, 1, payload_bytes=payload)


class TestSharedBuffer:
    def test_accounting(self):
        pool = SharedBuffer(10_000)
        pool.acquire(4_000)
        assert pool.occupied_bytes == 4_000
        assert pool.free_bytes == 6_000
        pool.release(4_000)
        assert pool.occupied_bytes == 0
        assert pool.peak_bytes == 4_000

    def test_positive_capacity_required(self):
        with pytest.raises(ConfigError):
            SharedBuffer(0)


class TestSharedEcnQueue:
    def make(self, total=100_000, alpha=1.0, low=2_000, high=5_000):
        pool = SharedBuffer(total)
        q1 = SharedEcnQueue(pool, alpha, low, high, partial(random.Random, 0))
        q2 = SharedEcnQueue(pool, alpha, low, high, partial(random.Random, 1))
        return pool, q1, q2

    def test_single_port_can_take_alpha_share(self):
        # alpha=1: a lone port may fill up to half the pool
        # (occupancy == free at the fixed point).
        pool, q, _ = self.make(total=10_000, alpha=1.0)
        accepted = 0
        for i in range(20):
            if q.offer(data(seq=i, payload=436)) is EnqueueOutcome.ENQUEUED:
                accepted += 1
        assert q.occupied_bytes <= pool.total_bytes // 2 + 500
        assert accepted < 20

    def test_busy_neighbor_shrinks_threshold(self):
        pool, q1, q2 = self.make(total=20_000, alpha=0.5)
        before = q1.threshold_bytes()
        for i in range(10):
            q2.offer(data(seq=i))
        assert q1.threshold_bytes() < before

    def test_draining_restores_capacity(self):
        pool, q1, q2 = self.make(total=20_000, alpha=0.5)
        for i in range(10):
            q2.offer(data(seq=i))
        shrunk = q1.threshold_bytes()
        while q2.pop() is not None:
            pass
        assert q1.threshold_bytes() > shrunk
        assert pool.occupied_bytes == 0

    def test_pool_never_overcommitted(self):
        pool, q1, q2 = self.make(total=8_000, alpha=4.0)
        for i in range(30):
            (q1 if i % 2 else q2).offer(data(seq=i))
        assert pool.occupied_bytes <= pool.total_bytes

    def test_ecn_marks_on_own_occupancy(self):
        pool, q, _ = self.make(total=1_000_000, alpha=8.0, low=1_000, high=2_000)
        marked = 0
        for i in range(10):
            p = data(seq=i)
            q.offer(p)
            marked += p.ecn_ce
        assert marked > 0

    def test_fifo_order_preserved(self):
        _, q, _ = self.make()
        for i in range(3):
            q.offer(data(seq=i))
        assert [q.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_alpha_validation(self):
        pool = SharedBuffer(1000)
        with pytest.raises(ConfigError):
            SharedEcnQueue(pool, 0, 0, 0, partial(random.Random, 0))


class TestTopologyIntegration:
    def test_switch_ports_share_one_pool(self, sim):
        net = Network(sim)
        cfg = FabricConfig(spines=1, leaves=1, servers_per_leaf=2,
                           shared_buffer_alpha=1.0)
        fabric = build_leafspine(net, cfg)
        leaf = fabric.leaves[0]
        pools = {id(port.queue.shared) for port in leaf.ports.values()}
        assert len(pools) == 1
        spine = fabric.spines[0]
        assert id(next(iter(spine.ports.values())).queue.shared) not in pools

    def test_shared_buffers_with_trimming_rejected(self, sim):
        net = Network(sim)
        cfg = FabricConfig(spines=1, leaves=1, servers_per_leaf=1,
                           shared_buffer_alpha=1.0)
        with pytest.raises(ConfigError):
            build_leafspine(net, cfg, trimming=True)

    def test_interdc_with_shared_buffers_runs(self, sim, transport_cfg):
        from repro.experiments.runner import IncastScenario, run_incast
        from repro.units import megabytes
        cfg = small_interdc_config().with_shared_buffers(2.0)
        result = run_incast(IncastScenario(
            degree=4, total_bytes=megabytes(12), interdc=cfg, transport=transport_cfg,
        ))
        assert result.completed

    def test_invalid_alpha_in_config(self):
        with pytest.raises(ConfigError):
            FabricConfig(shared_buffer_alpha=0)


class TestPoolPortsCatchUp:
    def test_an_offer_sees_the_pool_its_neighbours_have_drained(self):
        # Port a's queued packets start lazily (its link is 1 ms long, so
        # no arrival pops them soon).  Once their start ticks have passed,
        # an offer at port b reads a pool that no longer holds them: every
        # port of the pool catches up before any of them offers.
        sim = Simulator()
        pool = SharedBuffer(100_000)
        ports = []
        for name in ("a", "b"):
            queue = SharedEcnQueue(pool, 1.0, 50_000, 90_000,
                                   lambda: random.Random(0))
            ports.append(OutputPort(sim, name, queue, 1e9, 1_000_000_000, None))
        a, b = ports
        assert pool.ports == [a, b]
        for seq in range(3):
            a.send(data(seq))  # the first starts, two wait in the pool
        assert pool.occupied_bytes == 2 * data().size_bytes
        tx = round(data().size_bytes * 8_000)  # ps at 1 Gb/s
        sim.schedule_at(2 * tx, lambda: b.send(data(9)))
        sim.run(until=2 * tx)
        assert pool.occupied_bytes == 0  # both of a's started; b's too
        assert a.tx_packets == 3 and b.tx_packets == 1
