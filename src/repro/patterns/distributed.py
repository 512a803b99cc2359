"""Distributed in-network incast detection from per-point sketches.

The :class:`~repro.patterns.detector.OnlineIncastDetector` assumes one
vantage point sees every flow — realistic for a receiver-side agent, not
for switch hardware, where each ToR/spine observes only the traffic it
carries.  This module models the in-network variant the related work
proposes: every observation *point* keeps a constant-space sliding-window
sketch (a hashed-source bitmap plus a byte counter, binned by time), and a
destination is flagged when the sketches *merged across points* show
enough distinct sources and bytes inside the window.

Both detectors expose the same ``observe(time, src, dst, nbytes)``
protocol, so schemes pick between them by name through
:func:`make_detection_backend` — the registry the ``pulser`` /
``pulser-dist`` competitor schemes select their backend from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.errors import ConfigError
from repro.patterns.detector import DetectionEvent, DetectorSettings, OnlineIncastDetector
from repro.units import milliseconds


class DetectionBackend(Protocol):
    """The protocol every scheme-selectable detection backend satisfies."""

    events: list[DetectionEvent]

    def observe(self, time: int, src: int, dst: int, nbytes: int) -> DetectionEvent | None:
        """Feed one observation; returns a detection if one fires."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class SketchSettings:
    """Tuning of one observation point's sketch."""

    #: width of one time bin; the window is ``window_bins`` of these
    bin_ps: int = milliseconds(1) // 4
    window_bins: int = 4
    #: bits in the hashed-source bitmap (64 sources before saturation)
    bitmap_bits: int = 64

    def __post_init__(self) -> None:
        if self.bin_ps <= 0:
            raise ConfigError("bin_ps must be positive")
        if self.window_bins < 1:
            raise ConfigError("window_bins must be at least 1")
        if self.bitmap_bits < 8:
            raise ConfigError("bitmap_bits must be at least 8")


class LocalIncastSketch:
    """One observation point: per-bin source bitmap + byte counter.

    Constant space per destination — ``window_bins`` integers — regardless
    of traffic volume, which is what makes the structure plausible in
    switch hardware.  Distinct-source counts are bitmap popcounts, i.e. a
    lower bound under hash collisions.
    """

    #: Knuth multiplicative hash; same family the ECMP strategy uses.
    _HASH_MULT = 2654435761

    def __init__(self, settings: SketchSettings) -> None:
        self.settings = settings
        #: dst -> list of (bin_index, source_bitmap, bytes) newest-last
        self._bins: dict[int, list[tuple[int, int, int]]] = {}

    def observe(self, time: int, src: int, dst: int, nbytes: int) -> None:
        """Fold one packet/flow observation into the current bin."""
        cfg = self.settings
        bin_index = time // cfg.bin_ps
        bit = 1 << ((src * self._HASH_MULT) % cfg.bitmap_bits)
        bins = self._bins.setdefault(dst, [])
        if bins and bins[-1][0] == bin_index:
            old_index, bitmap, total = bins[-1]
            bins[-1] = (old_index, bitmap | bit, total + nbytes)
        else:
            bins.append((bin_index, bit, nbytes))
        floor = bin_index - cfg.window_bins + 1
        while bins and bins[0][0] < floor:
            bins.pop(0)

    def snapshot(self, time: int, dst: int) -> tuple[int, int]:
        """``(source_bitmap, bytes)`` over the window ending at ``time``."""
        cfg = self.settings
        floor = time // cfg.bin_ps - cfg.window_bins + 1
        bitmap = 0
        total = 0
        for bin_index, bits, nbytes in self._bins.get(dst, ()):
            if bin_index >= floor:
                bitmap |= bits
                total += nbytes
        return bitmap, total


class DistributedIncastDetector:
    """Per-point sketches merged into one per-destination verdict.

    Observations are spread across ``points`` sketches by source hash —
    each source's traffic enters the fabric at a fixed ToR, so one switch
    sees all of it.  On every observation the merged (OR'd bitmaps, summed
    bytes) view is checked against the :class:`~repro.patterns.detector.
    DetectorSettings` thresholds, with the same cooldown contract as the
    online detector.
    """

    def __init__(
        self,
        settings: DetectorSettings | None = None,
        sketch: SketchSettings | None = None,
        points: int = 2,
    ) -> None:
        if points < 1:
            raise ConfigError("a distributed detector needs at least 1 point")
        self.settings = settings if settings is not None else DetectorSettings()
        self.sketch_settings = sketch if sketch is not None else SketchSettings()
        self.points = [LocalIncastSketch(self.sketch_settings) for _ in range(points)]
        self.events: list[DetectionEvent] = []
        self._last_fired: dict[int, int] = {}

    def observe(self, time: int, src: int, dst: int, nbytes: int) -> DetectionEvent | None:
        """Feed one observation through its point's sketch; merge and test."""
        point = self.points[src % len(self.points)]
        point.observe(time, src, dst, nbytes)

        last = self._last_fired.get(dst)
        if last is not None and time - last < self.settings.cooldown_ps:
            return None
        bitmap = 0
        total = 0
        for sketch in self.points:
            bits, nbytes_seen = sketch.snapshot(time, dst)
            bitmap |= bits
            total += nbytes_seen
        sources = bitmap.bit_count()
        if sources >= self.settings.min_sources and total >= self.settings.min_bytes:
            event = DetectionEvent(dst=dst, time=time, sources=sources, window_bytes=total)
            self.events.append(event)
            self._last_fired[dst] = time
            return event
        return None

    def watched_destinations(self) -> list[int]:
        """Destinations with any recent observations at any point."""
        seen: set[int] = set()
        for sketch in self.points:
            seen.update(dst for dst, bins in sketch._bins.items() if bins)
        return sorted(seen)


#: Scheme-selectable backends: name -> factory taking DetectorSettings.
DETECTION_BACKENDS: dict[str, Callable[[DetectorSettings | None], DetectionBackend]] = {
    "online": OnlineIncastDetector,
    "distributed": DistributedIncastDetector,
}


def make_detection_backend(
    name: str, settings: DetectorSettings | None = None
) -> DetectionBackend:
    """Build the detection backend registered under ``name``."""
    try:
        factory = DETECTION_BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown detection backend {name!r}; known: {sorted(DETECTION_BACKENDS)}"
        ) from None
    return factory(settings)
