"""One output port against a closed-form store-and-forward schedule.

Hypothesis draws offer ticks, packet sizes and kinds, a queue discipline,
its capacity and ECN threshold, and a link delay (zero included).  The
port runs them in the simulator; a reference computes the schedule
directly from the offers, one recurrence and no events:

* a packet offered to an idle link starts at its offer tick; every other
  packet starts the tick the link finishes the packet served before it,
  in the discipline's service order;
* it lands ``tx + delay`` after its start;
* dequeue first: an offer at tick ``t`` sees exactly the accepted packets
  that start after ``t``.  A packet starting at ``t`` has left.

Every packet's land tick (so its start tick), the occupancy each offer
leaves, each drop, trim and ECN mark must match.  Offers are scheduled
before the run, so the offers of one tick precede the port's own
arrivals at that tick; by the rule, that order does not matter.

The probe that reads each offer makes the port take its full path.  Each
example therefore runs a second time with no probe, where an idle port
starts a packet its empty queue would admit unchanged without entering
the queue: the land ticks and the queue's counters must not move.  The
explicit cases below are the packets that must *not* pass: one larger
than an empty queue, a control packet over a trimming queue's control
cap, and one larger than a capacity shrunk after the port was built.
"""

from __future__ import annotations

from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import HEADER_BYTES, Packet, PacketType
from repro.net.port import OutputPort
from repro.net.queues import (
    DropTailQueue,
    EcnQueue,
    EnqueueOutcome,
    HostQueue,
    TrimmingQueue,
)
from repro.sim.probe import Probe
from repro.sim.simulator import Simulator

RATE_BPS = 100e9  # 80 ps per byte
PS_PER_BYTE = 80
#: Offer ticks on a grid of 64 B serializations, so offers collide with
#: start ticks and with each other.
GRID_PS = 64 * PS_PER_BYTE
DISCIPLINES = ("droptail", "ecn", "trimming", "host")
CONTROL_CAPACITY = 400


class _Sink:
    """A destination node that records when each packet lands."""

    direct_ports = None

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.landed: dict[int, int] = {}

    def receive(self, packet: Packet) -> None:
        self.landed[packet.seq] = self.sim.now


class _Offers(Probe):
    """What each offer left behind: occupancy, lane bytes, fate, mark."""

    __slots__ = ("seen",)

    def __init__(self) -> None:
        self.seen: dict[int, tuple] = {}

    def on_offer(self, port, packet, dropped, size_before):
        queue = port.queue
        self.seen[packet.seq] = (
            queue.occupied_bytes, getattr(queue, "data_bytes", None),
            dropped, packet.size_bytes, packet.ecn_ce,
        )


def _queue(discipline: str, capacity: int, mark_above: int):
    def no_draws():
        raise AssertionError("a threshold queue with low == high never draws")

    if discipline == "droptail":
        return DropTailQueue(capacity)
    if discipline == "ecn":
        return EcnQueue(capacity, mark_above, mark_above, no_draws)
    if discipline == "trimming":
        return TrimmingQueue(capacity, mark_above, mark_above, no_draws,
                             control_capacity_bytes=CONTROL_CAPACITY)
    return HostQueue(capacity, control_priority=True)


def reference(offers, discipline, capacity, mark_above, delay_ps):
    """The closed-form schedule: per packet its offer record and land tick."""
    control: deque[int] = deque()
    data: deque[int] = deque()
    size: dict[int, int] = {}
    seen: dict[int, tuple] = {}
    land: dict[int, int] = {}
    lanes = {"data": 0, "control": 0}
    free = 0

    def serve(due: int) -> None:
        nonlocal free
        while free <= due and (control or data):
            i = control.popleft() if control else data.popleft()
            lanes["control" if i in controlled else "data"] -= size[i]
            land[i] = free + size[i] * PS_PER_BYTE + delay_ps
            free += size[i] * PS_PER_BYTE

    controlled: set[int] = set()
    for i, (tick, payload, is_control) in enumerate(offers):
        serve(tick)
        size[i] = payload + HEADER_BYTES
        occupied = lanes["data"] + lanes["control"]
        marked = False
        lane = "control" if is_control and discipline in ("trimming", "host") else "data"
        if discipline == "trimming":
            # Lanes are bounded apart; a data packet that would overflow
            # its lane is cut to its header and joins the control lane.
            if not is_control:
                if lanes["data"] + size[i] > capacity:
                    size[i] = HEADER_BYTES
                    lane = "control"
                else:
                    marked = lanes["data"] > mark_above
            dropped = lane == "control" and lanes["control"] + size[i] > CONTROL_CAPACITY
        else:
            dropped = occupied + size[i] > capacity
            if discipline == "ecn" and not dropped and not is_control:
                marked = occupied > mark_above
        if not dropped:
            (control if lane == "control" else data).append(i)
            if lane == "control":
                controlled.add(i)
            lanes[lane] += size[i]
        seen[i] = (
            lanes["data"] + lanes["control"],
            lanes["data"] if discipline == "trimming" else None,
            dropped, size[i], marked,
        )
        if not dropped and free <= tick:
            free = tick  # idle link: the packet starts at its offer tick
            serve(tick)
    serve(float("inf"))
    return seen, land


offer_lists = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda k: k * GRID_PS),
        st.sampled_from((0, 64, 192, 448, 960)),
        st.booleans(),
    ),
    min_size=1, max_size=40,
).map(lambda offers: sorted(offers, key=lambda o: o[0]))


@settings(max_examples=300, deadline=None)
@given(
    offers=offer_lists,
    discipline=st.sampled_from(DISCIPLINES),
    capacity=st.integers(1_100, 4_000),
    mark_above=st.integers(0, 2_000),
    delay_ps=st.sampled_from((0, 1, GRID_PS, 3 * GRID_PS + 80)),
)
def test_one_port_follows_the_store_and_forward_schedule(
    offers, discipline, capacity, mark_above, delay_ps
):
    probe = _Offers()
    port, landed = _run(offers, _queue(discipline, capacity, mark_above),
                        delay_ps, probe)

    seen, land = reference(offers, discipline, capacity, mark_above, delay_ps)
    assert probe.seen == seen
    assert landed == land
    assert port.tx_packets == len(land)
    assert port.backlog_bytes == 0 and not port._wire

    bare, bare_landed = _run(offers, _queue(discipline, capacity, mark_above),
                             delay_ps)
    assert bare_landed == land
    assert bare.queue.stats.as_dict() == port.queue.stats.as_dict()


def _run(offers, queue, delay_ps=0, probe=None):
    """Offer ``(tick, payload, is_control)`` packets to one port; run it."""
    sim = Simulator(seed=0)
    sim.probe = probe
    sink = _Sink(sim)
    port = OutputPort(sim, "a->b", queue, RATE_BPS, delay_ps, sink)
    for i, (tick, payload, is_control) in enumerate(offers):
        kind = PacketType.ACK if is_control else PacketType.DATA
        packet = Packet(0, kind, i, 0, 1, payload_bytes=payload)
        sim.schedule_at(tick, partial(port.send, packet))
    sim.run()
    return port, sink.landed


def _outcomes(discipline, capacity, offers, shrink_to=None):
    """Per offer, the outcome an unprobed idle port returns, plus the
    queue's counters; ``shrink_to`` cuts the capacity after the build."""
    sim = Simulator(seed=0)
    queue = _queue(discipline, capacity, mark_above=capacity)
    port = OutputPort(sim, "a->b", queue, RATE_BPS, 0, _Sink(sim))
    if shrink_to is not None:
        queue.capacity_bytes = shrink_to
    outcomes = []
    for i, (payload, is_control) in enumerate(offers):
        sim.run(until=sim.now + 10 * GRID_PS)  # the port is idle again
        kind = PacketType.ACK if is_control else PacketType.DATA
        outcomes.append(port.send(Packet(0, kind, i, 0, 1, payload_bytes=payload)))
    sim.run()
    return outcomes, queue.stats


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_a_packet_larger_than_an_empty_queue_does_not_pass(discipline):
    outcomes, stats = _outcomes(discipline, 1_000, [(960, False), (64, False)])
    if discipline == "trimming":
        assert outcomes == [EnqueueOutcome.TRIMMED, EnqueueOutcome.ENQUEUED]
        assert (stats.trimmed, stats.dropped, stats.enqueued) == (1, 0, 2)
    else:
        assert outcomes == [EnqueueOutcome.DROPPED, EnqueueOutcome.ENQUEUED]
        assert (stats.dropped, stats.dropped_bytes, stats.enqueued) == (1, 1_024, 1)
    assert stats.max_occupied_bytes == 128


def test_a_control_packet_over_the_control_cap_is_dropped_on_an_idle_port():
    # 512 B fits the data lane's 4 000 B but not the 400 B control lane.
    outcomes, stats = _outcomes("trimming", 4_000, [(448, True), (192, True)])
    assert outcomes == [EnqueueOutcome.DROPPED, EnqueueOutcome.ENQUEUED]
    assert (stats.dropped, stats.enqueued, stats.max_occupied_bytes) == (1, 1, 256)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_an_idle_port_reads_the_capacity_at_the_offer(discipline):
    # A fault shrinks the queue after the port was built.
    outcomes, stats = _outcomes(discipline, 4_000, [(960, False), (192, False)],
                                shrink_to=500)
    first = EnqueueOutcome.TRIMMED if discipline == "trimming" else EnqueueOutcome.DROPPED
    assert outcomes == [first, EnqueueOutcome.ENQUEUED]
    assert stats.max_occupied_bytes == 256
