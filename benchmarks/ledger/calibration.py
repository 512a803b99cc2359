"""Calibrated seconds: a fixed-work kernel, run *inside* every timed interval,
that turns host time into a unit that survives a noisy shared box.

This box changes speed by 1.0-1.4x (bursts to 2x) from one millisecond to
the next, so a reading of its speed taken before or after an interval says
little about the interval (NOISE.md).  A :class:`Sampler` therefore
interrupts the work itself: every ``INTERVAL_S`` of wall time a timer
signal runs one pass of :func:`kernel` (a few milliseconds) on the same core,
in the same process, in the middle of whatever the work was doing.  Each
pass gives the box's speed at that instant as ``K_REF / pass``; the passes
are uniform in wall time, so their mean speed times the interval's own time
(wall time minus the passes) is the work done, in seconds of the defining
machine when quiet:

    calibrated = (wall - sum(passes)) * K_REF * mean(1 / pass)

The kernel is versioned and frozen: editing its body changes what a
calibrated second means and orphans every earlier record.  Bump
``KERNEL_VERSION`` and re-measure ``K_REF`` instead.

This module imports next to nothing: the set-up probe starts a sampler
before it imports the program, and what it imports is counted as set-up.
"""

from __future__ import annotations

import gc
import heapq  # repro: allow[raw-heapq] - calibration work, not simulator events
import signal
import time
from collections import deque
from typing import Any, Callable

#: Version of :func:`kernel`'s body.  Never edit the body without bumping.
#: (Version 1 was a 0.1 s pass run before and after each interval; it was
#: replaced before this benchmark was first merged, see NOISE.md.)
KERNEL_VERSION = 2

#: Host seconds of one in-sampler kernel pass on the defining machine
#: (2-core sandbox, CPython 3.11) when quiet, so that a calibrated second is
#: a second there.  Measured for ``KERNEL_VERSION`` 2: the lower mode of
#: 11 000 passes; quiet is rare on this box, most passes sit in a second mode
#: at 3.4-3.5 ms (NOISE.md).
K_REF = 0.00285

#: Wall time between two passes of a running sampler.
INTERVAL_S = 0.05
#: The same inside a set-up probe.  A probe lasts 0.3-0.8 s: the seven passes
#: it gets at 50 ms read the box's speed so poorly that calibrated probes
#: scattered more than raw ones (sd 11-13 % of 60 probes); the forty it gets
#: at 12.5 ms halve that (6-7 %) and leave the median where it was (NOISE.md).
PROBE_INTERVAL_S = 0.0125

#: An interval with fewer passes than this has no usable speed reading.
MIN_PASSES = 3

#: Work constants of kernel version 2.
_ROUNDS = 4
_EVENTS = 1000
_CHECKSUM = 3807802262


class _Port:
    """A slotted object with a bound method, like the simulator's ports."""

    __slots__ = ("backlog", "sent", "table")

    def __init__(self) -> None:
        self.backlog: deque[int] = deque()
        self.sent = 0
        self.table: dict[int, int] = {}

    def push(self, item: int) -> None:
        self.backlog.append(item)

    def pop(self) -> int:
        item = self.backlog.popleft()
        self.sent += 1
        table = self.table
        table[item & 63] = table.get(item & 63, 0) + item
        return item


def _work() -> int:
    """The fixed work: heap traffic driving method calls on slotted ports."""
    ports = [_Port() for _ in range(8)]
    heap: list[tuple[int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    state = 12345
    for _ in range(_ROUNDS):
        for _ in range(_EVENTS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, (state >> 8, seq, state & 7))
            seq += 1
        while heap:
            when, _seq, index = pop(heap)
            port = ports[index]
            port.push(when)
            if len(port.backlog) > 3:
                port.pop()
    total = 0
    for port in ports:
        total += port.sent + sum(port.table.values()) + len(port.backlog)
    return total & 0xFFFFFFFF


def kernel() -> float:
    """Run one pass of the fixed work; returns its host seconds.

    The collector is off for the pass: the kernel makes no cycles, and a
    collection triggered by its allocations would cost time in proportion
    to the caller's heap, which is the program's business, not the box's.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        checksum = _work()
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if checksum != _CHECKSUM:
        raise RuntimeError(
            f"calibration kernel v{KERNEL_VERSION} checksum {checksum} != "
            f"{_CHECKSUM}: the kernel body was edited"
        )
    return elapsed


def speed(passes: list[float]) -> float:
    """Mean speed of the box over ``passes``; 1.0 is the defining machine, quiet."""
    return K_REF * sum(1.0 / p for p in passes) / len(passes)


class Sampler:
    """Runs one kernel pass every ``interval_s`` of wall time until stopped.

    The passes run in the main thread between two bytecodes of the work
    (``SIGALRM`` from ``ITIMER_REAL``); system calls the signal interrupts
    are resumed by the interpreter.  The work must not use ``SIGALRM``
    itself: the sweep engines' per-run deadline does, which is one reason
    they are not timed this way.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.passes: list[float] = []
        self._previous: Any = None

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.passes.append(kernel())

    def start(self) -> None:
        self.passes = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> list[float]:
        """Stop the timer; returns the host seconds of every pass since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.passes


class Clock:
    """Times labelled intervals of work, each with a sampler running inside it.

    ``Clock(calibrate=False)`` only runs the work: the warm-up, profiled
    and sanitized units go through the same ``timed`` calls without being
    interrupted by, or profiled with, kernel passes.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.intervals: list[dict[str, Any]] = []
        self.unit = ""

    def timed(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` and record its host and calibrated seconds under ``label``."""
        if not self.calibrate:
            return fn()
        sampler = Sampler()
        sampler.start()
        start = time.perf_counter()
        try:
            value = fn()
        finally:
            passes = sampler.stop()
            host_s = time.perf_counter() - start
        self.record(label, host_s, passes)
        return value

    def record(self, label: str, host_s: float, passes: list[float]) -> None:
        """Add one interval: its wall time and the passes that ran inside it.

        ``work_s`` is the interval's own host time: wall time minus the
        passes.  An interval with too few passes to read the box's speed
        from stays in host seconds and is marked; that is decided on the
        kernel alone, never on the interval's own time.
        """
        usable = len(passes) >= MIN_PASSES
        work_s = host_s - sum(passes)
        self.intervals.append({
            "label": label,
            "unit": self.unit,
            "work_s": work_s,
            "passes": passes,
            "calibrated_s": work_s * speed(passes) if usable else work_s,
            "discarded": not usable,
        })


def reading(passes: int = 16) -> list[float]:
    """``passes`` back-to-back kernel passes: the box's speed right now.

    For the traced pass's boundary timings, whose timed calls are too short
    to sample from inside.
    """
    return [kernel() for _ in range(passes)]
