"""The event scheduler: a calendar-queue / timer-wheel hybrid.

Events firing at the same tick run in scheduling order (FIFO), which keeps
runs deterministic for a fixed seed.  The ordering contract is exactly the
binary heap's — entries are keyed ``(time, seq)`` with ``seq`` strictly
increasing per schedule call — but the container is a calendar queue tuned
for the clustered near-future timestamps incast generates:

* Time is divided into buckets of ``2**BUCKET_SHIFT`` picoseconds.  Each
  pending bucket is an *unsorted* append-only list held in a dict keyed by
  its global bucket index, so inserting into a future bucket is O(1).
* A small heap of bucket indices (plain ints — cheaper to sift than key
  tuples) is the sorted overflow structure that finds the next non-empty
  bucket without scanning empty wheel slots, no matter how far in the
  future it lies.  This replaces the classic fixed-width far wheel: any
  bucket beyond the one being drained is "far", and migration is simply
  popping the next index.
* When a bucket becomes current it is sorted once (Timsort on nearly-
  ordered input) and drained by walking an index — popping is list
  indexing, not heap sifting.  Inserts that land in the *current* bucket
  (zero/short delays, or raw past-time inserts) are placed with
  ``bisect.insort`` at/after the drain cursor, preserving ``(time, seq)``
  order; everything before the cursor has already fired and compares
  smaller, so the cursor position is a correct lower bound.

The hot path — :meth:`schedule_call` and :meth:`pop_tick` — avoids
allocation beyond the entry tuple itself: callbacks that are never
cancelled skip the :class:`~repro.sim.events.Event` handle entirely.
Cancellation stays lazy: cancelled entries are discarded when the drain
cursor reaches them.

:class:`HeapEventScheduler` preserves the original binary-heap
implementation; the tie-break contract test runs against both so any
future container swap must keep same-tick FIFO order bit-compatible.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Callable

from repro.errors import SchedulingError
from repro.sim.events import Event

#: A queue entry: ``(time, seq, payload)`` where the payload is either a
#: cancellable Event handle or a bare callback (fast path, never cancelled).
#: Payloads are typed ``Any``: entries sort on ``(time, seq)`` alone (seq is
#: unique, so the payload is never compared).
Entry = tuple[int, int, Any]

#: The pluggable same-tick permutation hook (the dynamic race detector,
#: see :mod:`repro.analysis.races`).  Called as ``hook(time, entries)``
#: with the live same-tick batch in ``(time, seq)`` order; returns a
#: permutation of those entries, or None to keep the FIFO order.  The
#: hook only ever reorders *within* one tick — time ordering and the
#: cancellation bookkeeping are untouched.
TieBreakHook = Callable[[int, "list[Entry]"], "list[Entry] | None"]

#: Bucket width is 2**19 ps ~= 0.5 us: a busy port's next serialization
#: event (~0.66 us for a full payload at 100 Gb/s) lands a bucket or two
#: ahead of the drain cursor — the O(1) append path — while a typical run
#: still keeps each bucket small enough that its one-time sort is cheap.
#: Chosen empirically on the Fig. 2-left workload (the perf ledger's
#: ``incast-d8``: ``python3 -m benchmarks.ledger --workload incast-d8``).
BUCKET_SHIFT = 19


class EventScheduler:
    """A time-ordered queue of cancellable events (calendar-queue backed)."""

    __slots__ = ("_seq", "_pending", "_buckets", "_bucket_heap", "_cur",
                 "_cur_g", "_idx", "_shift", "_batch", "tie_break")

    def __init__(self, bucket_shift: int = BUCKET_SHIFT) -> None:
        self._seq = 0
        #: Optional same-tick permutation hook (see :data:`TieBreakHook`).
        #: None (the default) preserves the FIFO contract bit-for-bit: the
        #: hook is consulted only on multi-entry ticks, off the singleton
        #: fast path, so disabled runs execute the identical event order.
        self.tie_break: TieBreakHook | None = None
        # Live count of non-cancelled events in the queue.  Incremented on
        # push, decremented by Event.cancel() and by the pop paths when a
        # live event leaves the queue, so __len__ is O(1).
        self._pending = 0
        self._shift = bucket_shift
        #: future buckets: global bucket index -> unsorted entry list
        self._buckets: dict[int, list[Entry]] = {}
        #: sorted overflow: min-heap of the bucket indices present above
        self._bucket_heap: list[int] = []
        #: the bucket being drained (sorted), and the drain cursor into it
        self._cur: list[Entry] = []
        self._cur_g = -1
        self._idx = 0
        #: reusable pop_tick output list — see the borrow note on pop_tick
        self._batch: list[Entry] = []

    # -- insertion ----------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute tick ``time``; returns the handle."""
        seq = self._seq + 1
        self._seq = seq
        event = Event(time, seq, callback)
        event._scheduler = self
        self._pending += 1
        # Insertion is inlined here and in schedule_call (the two hottest
        # calls in a run): a future bucket takes a plain append, the current
        # bucket a bisect at/after the drain cursor.  Everything before the
        # cursor has already fired and compares smaller, so the cursor is a
        # correct lower bound — a past-time entry (raw scheduler misuse; the
        # sanitizer flags it at pop) sits exactly at the cursor, firing next.
        g = time >> self._shift
        if g > self._cur_g:
            bucket = self._buckets.get(g)
            if bucket is None:
                self._buckets[g] = [(time, seq, event)]
                heapq.heappush(self._bucket_heap, g)
            else:
                bucket.append((time, seq, event))
        else:
            insort(self._cur, (time, seq, event), self._idx)
        return event

    def schedule_call(self, time: int, callback: Callable[[], Any]) -> None:
        """Schedule ``callback`` at tick ``time`` with no cancellation handle.

        The fast path for fire-and-forget work (port serialization, wire
        propagation): no :class:`Event` is allocated and the entry can
        never be cancelled, so the pop paths skip the liveness check.
        """
        seq = self._seq + 1
        self._seq = seq
        self._pending += 1
        g = time >> self._shift
        if g > self._cur_g:
            bucket = self._buckets.get(g)
            if bucket is None:
                self._buckets[g] = [(time, seq, callback)]
                heapq.heappush(self._bucket_heap, g)
            else:
                bucket.append((time, seq, callback))
        else:
            insort(self._cur, (time, seq, callback), self._idx)

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
                obj = entry[2]
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
            cur.sort()
            self._cur = cur
            self._cur_g = g
            idx = 0

    def next_time(self) -> int | None:
        """Absolute tick of the earliest pending event, or None if empty."""
        entry = self._advance()
        return None if entry is None else entry[0]

    def pop_next(self) -> Event | Callable[[], Any] | None:
        """Remove and return the earliest pending entry's payload.

        Returns the :class:`Event` handle for entries made with
        :meth:`schedule_at`, the bare callback for :meth:`schedule_call`
        entries, or None when the queue is empty.
        """
        entry = self._advance()
        if entry is None:
            return None
        self._idx += 1
        self._pending -= 1
        obj = entry[2]
        if obj.__class__ is Event:
            obj._scheduler = None
        return obj

    def pop_tick(
        self, limit: int | None = None, cap: int | None = None
    ) -> tuple[int, list[Entry]] | None:
        """Remove and return every live entry at the earliest pending tick.

        One call per tick replaces a peek+pop pair per event: a burst of
        same-timestamp events costs a single dispatch into the run loop.
        Returns ``(tick, entries)`` in ``(time, seq)`` order, or None when
        the queue is empty or the earliest tick lies beyond ``limit``.
        ``cap`` bounds the batch size (``max_events`` support); surplus
        same-tick entries stay queued.  Same-tick entries always share a
        bucket, so the batch never crosses a bucket boundary.

        The returned list is *borrowed*: it is reused by the next
        ``pop_tick`` call, so consume (or copy) it before popping again.
        """
        # Inline advance-to-next-live-entry (the hottest pop-side loop).
        cur = self._cur
        idx = self._idx
        buckets = self._buckets
        heap = self._bucket_heap
        n = len(cur)
        while True:
            while idx < n:
                entry = cur[idx]
                obj = entry[2]
                if obj.__class__ is Event and obj.cancelled:
                    idx += 1
                    continue
                break
            else:
                entry = None
            if entry is not None:
                break
            if not heap:
                self._idx = idx
                return None
            g = heapq.heappop(heap)
            cur = buckets.pop(g)
            cur.sort()
            self._cur = cur
            self._cur_g = g
            idx = 0
            n = len(cur)
        t = entry[0]
        if limit is not None and t > limit:
            self._idx = idx
            return None
        batch = self._batch
        batch.clear()
        # Singleton fast path: most ticks hold exactly one live entry, and
        # same-tick entries never cross a bucket boundary, so a follow-on
        # entry with a different timestamp (or an exhausted bucket) proves
        # the batch is complete without running the generic scan loop.
        nidx = idx + 1
        if nidx >= n or cur[nidx][0] != t:
            obj = entry[2]
            if obj.__class__ is Event:
                obj._scheduler = None
            batch.append(entry)
            self._idx = nidx
            self._pending -= 1
            return t, batch
        pending = self._pending
        while True:
            idx += 1
            pending -= 1
            obj = entry[2]
            if obj.__class__ is Event:
                obj._scheduler = None
            batch.append(entry)
            if cap is not None and len(batch) >= cap:
                break
            scan: Entry | None = None
            while idx < n:
                candidate = cur[idx]
                nxt = candidate[2]
                if nxt.__class__ is Event and nxt.cancelled:
                    idx += 1
                    continue
                scan = candidate
                break
            if scan is None or scan[0] != t:
                break
            entry = scan
        self._idx = idx
        self._pending = pending
        hook = self.tie_break
        if hook is not None:
            permuted = hook(t, batch)
            if permuted is not None and permuted is not batch:
                batch[:] = permuted
        return t, batch

    def unpop(self, entries: list[Entry]) -> None:
        """Reinsert entries handed out by :meth:`pop_tick` but never run.

        Used by the run loop when ``stop()`` fires mid-batch: the remaining
        same-tick entries return to the queue with their original sequence
        numbers, so a later ``run()`` resumes in the exact original order.
        """
        for entry in entries:
            insort(self._cur, entry, self._idx)
            self._pending += 1
            obj = entry[2]
            if obj.__class__ is Event:
                obj._scheduler = self

    # -- sizing / validation ------------------------------------------------

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events.  O(1)."""
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def validate_time(self, now: int, time: int) -> None:
        """Raise if ``time`` lies in the past relative to ``now``."""
        if time < now:
            raise SchedulingError(
                f"cannot schedule at t={time} while the clock reads t={now}"
            )


class HeapEventScheduler:
    """The original cancellable binary-heap scheduler.

    Kept as the reference implementation of the tie-break determinism
    contract: same-timestamp events fire in scheduling order.  The contract
    test (tests/test_sim.py) runs against both this and the calendar queue;
    the cache digests of every recorded sweep depend on the two agreeing.
    """

    __slots__ = ("_heap", "_seq", "_pending", "_ready", "tie_break")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._pending = 0
        #: Same-tick permutation hook (see :data:`TieBreakHook`).  With a
        #: hook installed, pop_next drains a whole tick into ``_ready``,
        #: permutes it once, then serves events from the buffer; with the
        #: hook None the original pop-one-at-a-time path runs unchanged.
        self.tie_break: TieBreakHook | None = None
        self._ready: list[Event] = []

    def schedule_at(self, time: int, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute tick ``time``; returns the handle."""
        self._seq += 1
        event = Event(time, self._seq, callback)
        event._scheduler = self
        self._pending += 1
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
                    event._scheduler = None
                    self._pending -= 1
                    return event
            hook = self.tie_break
            if hook is None:
                while heap:
                    event = heapq.heappop(heap)[2]
                    if not event.cancelled:
                        event._scheduler = None
                        self._pending -= 1
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
            batch: list[Entry] = []
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
        """Number of pending (non-cancelled) events.  O(1)."""
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def validate_time(self, now: int, time: int) -> None:
        """Raise if ``time`` lies in the past relative to ``now``."""
        if time < now:
            raise SchedulingError(
                f"cannot schedule at t={time} while the clock reads t={now}"
            )
