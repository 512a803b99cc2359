"""Scheduled events.

An :class:`Event` is a handle to a callback sitting in the scheduler's
queue.  Cancellation is lazy: the queue entry stays in place and is skipped
when the drain cursor reaches it, which makes ``cancel()`` O(1) — essential
for transports that re-arm retransmission timers on every ACK.  The handle
keeps no link back to its scheduler: nothing is counted per event, so
cancelling is a single flag store.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A cancellable callback scheduled at an absolute simulation time."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call more than once."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled.

        The scheduler marks events as cancelled once they fire, so
        ``pending`` doubles as "still in the future".
        """
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, {state})"
