"""Declarative fault plans.

A :class:`FaultPlan` is an ordered collection of timed :class:`FaultEvent`
records describing *what goes wrong and when* during one simulated run.
Plans are plain frozen dataclasses, so they ride inside an
:class:`~repro.experiments.runner.IncastScenario`, hash stably into the
sweep result cache (:func:`~repro.experiments.parallel.scenario_key`), and
serialize to JSON for the ``--fault-plan`` CLI flag.

Event vocabulary:

* :class:`LinkDown` / :class:`LinkUp` — hard link state changes;
* :class:`ProxyCrash` / :class:`ProxyRestart` — proxy process failures
  (split-connection state is lost, stateless forwarding state survives);
* :class:`PacketBlackhole` — a window during which targeted ports silently
  drop a fraction of offered packets;
* :class:`PacketCorrupt` — a window during which targeted ports flip bits:
  corrupted packets still consume bandwidth but are discarded by the
  destination host's checksum;
* :class:`BufferDegrade` — a window during which targeted port buffers
  shrink to a fraction of their capacity (failing memory banks);
* :class:`CrashRun` / :class:`StallRun` — *engine-test* faults that crash
  or wall-clock-stall the whole simulation process, used to exercise the
  parallel engine's failure quarantine.

Targets are symbolic (``"backbone"``, ``"backbone:3"``, ``"backbone:3:0"``,
``"proxy"``, ``"backup"``, ``"sender:0"``, ``"receiver"``, ``"all"``) and
resolved against the built topology by
:class:`~repro.faults.injector.FaultInjector`;
a target that names a role absent from the run (e.g. ``"proxy"`` under the
baseline scheme) is skipped, which keeps one plan comparable across
schemes.

Plans are validated at construction: besides the per-event field checks,
contradictory link sequences — a duplicate :class:`LinkDown` on an
already-down link, a :class:`LinkUp` for a link never downed — raise
:class:`~repro.errors.ConfigError` immediately (see
:meth:`FaultPlan._validate_link_sequence` for what counts as
contradictory and which overlaps are deliberately idempotent instead).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable

from repro.errors import ConfigError, FaultError


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """Base record: something happens at absolute tick ``at_ps``."""

    at_ps: int

    def __post_init__(self) -> None:
        if self.at_ps < 0:
            raise ConfigError(f"{type(self).__name__}: at_ps must be >= 0, got {self.at_ps}")


@dataclass(frozen=True)
class _WindowedEvent(FaultEvent):
    """Base for events that stay active for ``duration_ps``."""

    duration_ps: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_ps <= 0:
            raise ConfigError(
                f"{type(self).__name__}: duration_ps must be positive, got {self.duration_ps}"
            )

    @property
    def ends_at_ps(self) -> int:
        """Absolute tick the window closes."""
        return self.at_ps + self.duration_ps


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Take both directions of a link down (until a matching LinkUp)."""

    link: str = "backbone:0"


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Bring both directions of a link back up."""

    link: str = "backbone:0"


@dataclass(frozen=True)
class ProxyCrash(FaultEvent):
    """Kill the named proxy process (``"primary"`` or ``"backup"``)."""

    proxy: str = "primary"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.proxy not in ("primary", "backup"):
            raise ConfigError(f"unknown proxy role {self.proxy!r}; use 'primary' or 'backup'")


@dataclass(frozen=True)
class ProxyRestart(FaultEvent):
    """Restart the named proxy process.

    What survives is scheme-dependent: the Streamlined proxy's forwarding
    state is stateless and resumes; the Naive proxy's split-connection
    state is process memory and is lost for good.
    """

    proxy: str = "primary"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.proxy not in ("primary", "backup"):
            raise ConfigError(f"unknown proxy role {self.proxy!r}; use 'primary' or 'backup'")


@dataclass(frozen=True)
class PacketBlackhole(_WindowedEvent):
    """Targeted ports silently drop ``drop_fraction`` of offered packets."""

    target: str = "backbone"
    drop_fraction: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.drop_fraction <= 1:
            raise ConfigError(
                f"drop_fraction must be in (0, 1], got {self.drop_fraction}"
            )


@dataclass(frozen=True)
class PacketCorrupt(_WindowedEvent):
    """Targeted ports corrupt ``corrupt_fraction`` of transiting packets.

    Corrupted packets keep consuming link bandwidth and queue space but the
    destination host's checksum discards them on delivery — a strictly
    nastier failure than a clean drop.
    """

    target: str = "backbone"
    corrupt_fraction: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.corrupt_fraction <= 1:
            raise ConfigError(
                f"corrupt_fraction must be in (0, 1], got {self.corrupt_fraction}"
            )


@dataclass(frozen=True)
class BufferDegrade(_WindowedEvent):
    """Targeted port buffers shrink to ``factor`` of their capacity."""

    target: str = "backbone"
    factor: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.factor <= 1:
            raise ConfigError(f"factor must be in (0, 1], got {self.factor}")


@dataclass(frozen=True)
class CrashRun(FaultEvent):
    """Engine-test fault: raise :class:`~repro.errors.InjectedFaultError`
    mid-run, simulating a simulation process that dies on an assertion."""

    message: str = "injected simulation crash"


@dataclass(frozen=True)
class StallRun(FaultEvent):
    """Engine-test fault: block the worker's wall clock for ``wall_seconds``,
    simulating a hung run that only a ``--run-timeout`` can reclaim."""

    wall_seconds: float = 3600.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.wall_seconds <= 0:
            raise ConfigError(f"wall_seconds must be positive, got {self.wall_seconds}")


#: JSON ``kind`` name -> event class, for (de)serialization.
EVENT_TYPES: dict[str, type[FaultEvent]] = {
    cls.__name__: cls
    for cls in (
        LinkDown, LinkUp, ProxyCrash, ProxyRestart,
        PacketBlackhole, PacketCorrupt, BufferDegrade,
        CrashRun, StallRun,
    )
}


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated set of fault events for one run."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigError(
                    f"fault plan entries must be FaultEvent instances, got "
                    f"{type(event).__name__}"
                )
        self._validate_link_sequence()

    def _validate_link_sequence(self) -> None:
        """Reject contradictory link events at construction.

        Walks the events in firing order and tracks the declared state of
        every link target string: a second :class:`LinkDown` while the
        link is already down, or a :class:`LinkUp` for a link never
        downed, is a plan bug (typically a copy-paste or merge mistake)
        and raises :class:`~repro.errors.ConfigError` here instead of
        silently no-opping mid-run.

        The check is per *exact* target string.  Overlapping symbolic
        targets (``"backbone"`` alongside ``"backbone:0"``) are treated as
        independent: the injector applies link changes idempotently at the
        port level (``set_up`` no-ops on unchanged state), so the overlap
        is safe by construction and deliberately allowed — plans often
        combine a broad flap with a targeted one.  ProxyCrash/ProxyRestart
        are likewise idempotent at the proxy object and not sequenced
        here: crashing a crashed proxy models a redundant kill signal, not
        a contradiction.
        """
        down: set[str] = set()
        for event in self.sorted_events():
            if isinstance(event, LinkDown):
                if event.link in down:
                    raise ConfigError(
                        f"duplicate LinkDown on {event.link!r} at {event.at_ps}: "
                        "the link is already down"
                    )
                down.add(event.link)
            elif isinstance(event, LinkUp):
                if event.link not in down:
                    raise ConfigError(
                        f"LinkUp on {event.link!r} at {event.at_ps} without a "
                        "preceding LinkDown"
                    )
                down.discard(event.link)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def sorted_events(self) -> tuple[FaultEvent, ...]:
        """Events in firing order (stable for same-tick events)."""
        return tuple(sorted(self.events, key=lambda e: e.at_ps))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-encodable form: ``{"events": [{"kind": ..., ...}, ...]}``."""
        return {
            "events": [
                {"kind": type(event).__name__, **asdict(event)}
                for event in self.events
            ]
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize for ``--fault-plan`` files."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Parse the :meth:`to_dict` form; raises :class:`FaultError` on
        unknown kinds/fields and :class:`ConfigError` on bad values."""
        if not isinstance(payload, dict) or not isinstance(payload.get("events"), list):
            raise FaultError('fault plan JSON must be {"events": [...]}')
        events: list[FaultEvent] = []
        for record in payload["events"]:
            if not isinstance(record, dict) or "kind" not in record:
                raise FaultError(f"each event needs a 'kind' field, got {record!r}")
            kind = record["kind"]
            event_cls = EVENT_TYPES.get(kind)
            if event_cls is None:
                raise FaultError(
                    f"unknown fault kind {kind!r}; known: {sorted(EVENT_TYPES)}"
                )
            kwargs = {k: v for k, v in record.items() if k != "kind"}
            known = {f.name for f in fields(event_cls)}
            unknown = set(kwargs) - known
            if unknown:
                raise FaultError(
                    f"{kind} does not take field(s) {sorted(unknown)}; known: {sorted(known)}"
                )
            events.append(event_cls(**kwargs))
        return cls(events=tuple(events))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a JSON document produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


# ---------------------------------------------------------------------------
# Convenience builders
# ---------------------------------------------------------------------------

def proxy_crash_plan(
    at_ps: int,
    restart_after_ps: int | None = None,
    proxy: str = "primary",
) -> FaultPlan:
    """Crash ``proxy`` at ``at_ps``; optionally restart it later."""
    events: list[FaultEvent] = [ProxyCrash(at_ps, proxy=proxy)]
    if restart_after_ps is not None:
        events.append(ProxyRestart(at_ps + restart_after_ps, proxy=proxy))
    return FaultPlan(tuple(events))


def blackhole_plan(
    at_ps: int,
    duration_ps: int,
    drop_fraction: float = 1.0,
    target: str = "backbone",
) -> FaultPlan:
    """One packet-blackhole window."""
    return FaultPlan((
        PacketBlackhole(
            at_ps, duration_ps=duration_ps, target=target, drop_fraction=drop_fraction
        ),
    ))


def link_flap_plan(link: str, at_ps: int, duration_ps: int) -> FaultPlan:
    """Take ``link`` down at ``at_ps`` and back up ``duration_ps`` later."""
    if duration_ps <= 0:
        raise ConfigError(f"flap duration must be positive, got {duration_ps}")
    return FaultPlan((LinkDown(at_ps, link=link), LinkUp(at_ps + duration_ps, link=link)))


def merge_plans(*plans: FaultPlan) -> FaultPlan:
    """Union of several plans' events."""
    merged: list[FaultEvent] = []
    for plan in plans:
        merged.extend(plan.events)
    return FaultPlan(tuple(merged))


def _events_of(plan: "FaultPlan | Iterable[FaultEvent] | None") -> tuple[FaultEvent, ...]:
    """Normalize plan-ish arguments (used by the injector)."""
    if plan is None:
        return ()
    if isinstance(plan, FaultPlan):
        return plan.events
    return tuple(plan)
