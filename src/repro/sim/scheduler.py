"""The event scheduler: a calendar-queue / timer-wheel hybrid.

Events firing at the same tick run in scheduling order (FIFO), which keeps
runs deterministic for a fixed seed.  The ordering contract is exactly the
binary heap's ``(time, seq)`` order, but the calendar queue's entries are
bare ``(time, payload)`` pairs: same-tick FIFO comes from an entry's
*position*, never from a sequence number.  The container is tuned for the
clustered near-future timestamps incast generates:

* Time is divided into buckets of ``2**BUCKET_SHIFT`` picoseconds.  Each
  pending bucket is an *unsorted* append-only list held in a dict keyed by
  its global bucket index, so inserting into a future bucket is O(1).
  Appends happen in schedule order, so a bucket's same-tick entries are
  already in FIFO order.
* A small heap of bucket indices (plain ints — cheaper to sift than key
  tuples) is the sorted overflow structure that finds the next non-empty
  bucket without scanning empty wheel slots, no matter how far in the
  future it lies.  This replaces the classic fixed-width far wheel: any
  bucket beyond the one being drained is "far", and migration is simply
  popping the next index.
* When a bucket becomes current it is sorted once by time with a *stable*
  sort (Timsort on nearly-ordered input), which keeps same-tick entries in
  schedule order, and drained by walking an index — popping is list
  indexing, not heap sifting.  Inserts that land in the *current* bucket
  (zero/short delays, or raw past-time inserts) are placed with
  ``insort(..., key=time)`` at/after the drain cursor, which puts a new
  entry after every entry of the same time; everything before the cursor
  has already fired and compares no larger, so the cursor position is a
  correct lower bound.

Nothing is counted per event: ``len()`` walks the queued entries when
asked (O(pending); only telemetry probes and tests ask).  Callbacks that
are never cancelled skip the :class:`~repro.sim.events.Event` handle
entirely.  Cancellation stays lazy: cancelled entries are discarded when
the drain cursor reaches them.  :meth:`repro.sim.simulator.Simulator.run`
reads and runs every entry at the cursor itself and calls in here only to
load the next bucket.  An entry leaves the calendar only when it runs, so a
stopped run leaves its unrun same-tick entries where they were.  A
tie-break hook permutes a tick in place at the cursor
(:meth:`EventScheduler.permute_tick`).

:class:`HeapEventScheduler` preserves the original binary-heap
implementation, keyed ``(time, seq)``; it is the reference the tie-break
contract tests run the calendar queue against, so any future container
swap must keep same-tick FIFO order bit-compatible.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.errors import SchedulingError
from repro.sim.events import Event

#: A calendar-queue entry: ``(time, payload)`` where the payload is either a
#: cancellable Event handle or a bare callback (fast path, never cancelled).
#: Entries are ordered by time alone (:data:`_TIME`); same-tick order is list
#: position, so the payload is never compared.  The heap reference's entries
#: are ``(time, seq, event)``; code that reads the payload of either kind
#: uses ``entry[-1]``.
Entry = tuple[int, Any]

#: Sort/bisect key of an entry: its time.
_TIME = itemgetter(0)

#: The pluggable same-tick permutation hook (the dynamic race detector,
#: see :mod:`repro.analysis.races`).  Called as ``hook(time, entries)``
#: with the live entries of one tick in FIFO order — two or more, handed
#: over once, when the drain cursor first reaches the tick; returns a
#: permutation of those entries, or None to keep the FIFO order.  The
#: permutation is written back at the cursor (see
#: :meth:`EventScheduler.permute_tick`).  The hook only ever reorders
#: *within* one tick — time ordering and cancellation are untouched.
TieBreakHook = Callable[[int, "list[Entry]"], "list[Entry] | None"]

#: Bucket width is 2**19 ps ~= 0.5 us: a busy port's next serialization
#: event (~0.66 us for a full payload at 100 Gb/s) lands a bucket or two
#: ahead of the drain cursor — the O(1) append path — while a typical run
#: still keeps each bucket small enough that its one-time sort is cheap.
#: Chosen empirically on the Fig. 2-left workload (the perf ledger's
#: ``incast-d8``: ``python3 -m benchmarks.ledger --workload incast-d8``).
BUCKET_SHIFT = 19


def _live(entries: Iterable[tuple[Any, ...]]) -> int:
    """How many of ``entries`` are not cancelled (payload is ``entry[-1]``)."""
    return sum(
        1 for entry in entries
        if not (entry[-1].__class__ is Event and entry[-1].cancelled)
    )


class EventScheduler:
    """A time-ordered queue of cancellable events (calendar-queue backed)."""

    __slots__ = ("_buckets", "_bucket_heap", "_cur", "_cur_g", "_idx",
                 "_shift", "_hooked", "tie_break")

    def __init__(self, bucket_shift: int = BUCKET_SHIFT) -> None:
        #: Optional same-tick permutation hook (see :data:`TieBreakHook`).
        #: None (the default) preserves the FIFO contract bit-for-bit: the
        #: run loop reads it once per run and, when it is None, never looks
        #: at tick boundaries at all.
        self.tie_break: TieBreakHook | None = None
        self._shift = bucket_shift
        #: future buckets: global bucket index -> unsorted entry list
        self._buckets: dict[int, list[Entry]] = {}
        #: sorted overflow: min-heap of the bucket indices present above
        self._bucket_heap: list[int] = []
        #: the bucket being drained (sorted), and the drain cursor into it;
        #: the run loop reads both directly (see Simulator.run)
        self._cur: list[Entry] = []
        self._cur_g = -1
        self._idx = 0
        #: end of the block of ``_cur`` already handed to the tie-break
        #: hook (see permute_tick); 0 whenever a new bucket is loaded
        self._hooked = 0

    # -- insertion ----------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute tick ``time``; returns the handle."""
        event = Event(time, callback)
        # Insertion is inlined here and in schedule_call (the two hottest
        # calls in a run): a future bucket takes a plain append, the current
        # bucket a bisect at/after the drain cursor.  Everything before the
        # cursor has already fired and compares no larger, so the cursor is
        # a correct lower bound — a past-time entry (raw scheduler misuse;
        # the sanitizer flags it at pop) sits exactly at the cursor, firing
        # next.
        g = time >> self._shift
        if g > self._cur_g:
            bucket = self._buckets.get(g)
            if bucket is None:
                self._buckets[g] = [(time, event)]
                heapq.heappush(self._bucket_heap, g)
            else:
                bucket.append((time, event))
        else:
            insort(self._cur, (time, event), self._idx, key=_TIME)
        return event

    def schedule_call(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at tick ``time`` with no cancellation handle.

        The fast path for fire-and-forget work (port serialization, wire
        propagation): no :class:`Event` is allocated and the entry can
        never be cancelled, so the drain skips the liveness check.
        """
        g = time >> self._shift
        if g > self._cur_g:
            bucket = self._buckets.get(g)
            if bucket is None:
                self._buckets[g] = [(time, callback)]
                heapq.heappush(self._bucket_heap, g)
            else:
                bucket.append((time, callback))
        else:
            insort(self._cur, (time, callback), self._idx, key=_TIME)

    # -- draining -----------------------------------------------------------

    def _advance(self) -> Entry | None:
        """Move the drain cursor to the next live entry and return it.

        Loads and sorts follow-on buckets as needed; skips lazily cancelled
        entries.  Does not consume the entry.
        """
        cur = self._cur
        idx = self._idx
        while True:
            n = len(cur)
            while idx < n:
                entry = cur[idx]
                obj = entry[1]
                if obj.__class__ is Event and obj.cancelled:
                    idx += 1
                    continue
                self._idx = idx
                return entry
            heap = self._bucket_heap
            if not heap:
                self._idx = idx
                return None
            g = heapq.heappop(heap)
            cur = self._buckets.pop(g)
            cur.sort(key=_TIME)
            self._cur = cur
            self._cur_g = g
            self._hooked = 0
            idx = 0

    def next_time(self) -> int | None:
        """Absolute tick of the earliest pending event, or None if empty."""
        entry = self._advance()
        return None if entry is None else entry[0]

    def pop_next(self) -> Event | Callable[[], Any] | None:
        """Remove and return the earliest pending entry's payload.

        Returns the :class:`Event` handle for entries made with
        :meth:`schedule_at`, the bare callback for :meth:`schedule_call`
        entries, or None when the queue is empty.  The tie-break hook is
        not consulted here; :meth:`repro.sim.simulator.Simulator.run`
        applies it.
        """
        entry = self._advance()
        if entry is None:
            return None
        self._idx += 1
        return entry[1]

    def permute_tick(self) -> None:
        """Hand the tick at the drain cursor to the tie-break hook.

        Called by the run loop, with a hook installed, the first time the
        cursor reaches an entry at or past :attr:`_hooked`.  The live entries
        of that tick (it never crosses a bucket) are collected in FIFO order,
        passed to the hook once when there are two or more, and written
        back at the cursor in the hook's order; lazily cancelled entries of
        the tick are dropped on the way.  :attr:`_hooked` then marks the end
        of the permuted block, so a run resumed after ``stop()`` finishes
        the block without hooking it again.  Entries inserted at the same
        time meanwhile land after the block (an insert goes after every
        entry of its time) and form the next hooked tick, exactly as the
        heap reference serves them after its ready buffer.
        """
        cur = self._cur
        idx = self._idx
        t = cur[idx][0]
        n = len(cur)
        end = idx
        live: list[Entry] = []
        while end < n and cur[end][0] == t:
            entry = cur[end]
            obj = entry[1]
            if not (obj.__class__ is Event and obj.cancelled):
                live.append(entry)
            end += 1
        hook = self.tie_break
        if hook is not None and len(live) > 1:
            permuted = hook(t, live)
            if permuted is not None:
                live = list(permuted)
        cur[idx:end] = live
        self._hooked = idx + len(live)

    # -- sizing / validation ------------------------------------------------

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events, counted on ask.

        O(pending): nothing is counted per event.  Only telemetry probes
        and tests ask.
        """
        queued = _live(self._cur[self._idx:])
        for bucket in self._buckets.values():
            queued += _live(bucket)
        return queued

    def __bool__(self) -> bool:
        return self._advance() is not None

    def validate_time(self, now: int, time: int) -> None:
        """Raise if ``time`` lies in the past relative to ``now``."""
        if time < now:
            raise SchedulingError(
                f"cannot schedule at t={time} while the clock reads t={now}"
            )


class HeapEventScheduler:
    """The original cancellable binary-heap scheduler.

    Kept as the reference implementation of the tie-break determinism
    contract: entries are keyed ``(time, seq)`` with ``seq`` strictly
    increasing per schedule call, so same-timestamp events fire in
    scheduling order.  The contract tests (tests/test_sim.py,
    tests/test_scheduler_differential.py) run against both this and the
    calendar queue; the cache digests of every recorded sweep depend on the
    two agreeing.
    """

    __slots__ = ("_heap", "_seq", "_ready", "tie_break")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        #: Same-tick permutation hook (see :data:`TieBreakHook`).  With a
        #: hook installed, pop_next drains a whole tick into ``_ready``,
        #: permutes it once, then serves events from the buffer; with the
        #: hook None the original pop-one-at-a-time path runs unchanged.
        self.tie_break: TieBreakHook | None = None
        self._ready: list[Event] = []

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute tick ``time``; returns the handle."""
        self._seq += 1
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def next_time(self) -> int | None:
        """Absolute tick of the earliest pending event, or None if empty."""
        for event in self._ready:
            if not event.cancelled:
                return event.time
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def pop_next(self) -> Event | None:
        """Remove and return the earliest pending event, or None if empty."""
        heap = self._heap
        ready = self._ready
        while True:
            while ready:
                event = ready.pop(0)
                if not event.cancelled:
                    return event
            hook = self.tie_break
            if hook is None:
                while heap:
                    event = heapq.heappop(heap)[2]
                    if not event.cancelled:
                        return event
                return None
            # Drain every live entry at the earliest tick, permute once,
            # then serve from the buffer.  Entries cancelled while buffered
            # are skipped at serve time above, exactly like lazy heap pops.
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
            if not heap:
                return None
            t = heap[0][0]
            batch: list[Any] = []
            while heap and heap[0][0] == t:
                entry = heapq.heappop(heap)
                if not entry[2].cancelled:
                    batch.append(entry)
            if len(batch) > 1:
                permuted = hook(t, batch)
                if permuted is not None:
                    batch = list(permuted)
            ready.extend(e[2] for e in batch)

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events, counted on ask."""
        return _live(self._heap) + sum(not e.cancelled for e in self._ready)

    def __bool__(self) -> bool:
        return self.next_time() is not None

    def validate_time(self, now: int, time: int) -> None:
        """Raise if ``time`` lies in the past relative to ``now``."""
        if time < now:
            raise SchedulingError(
                f"cannot schedule at t={time} while the clock reads t={now}"
            )
