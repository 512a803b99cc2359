"""Declarative scenario grids: the product of axes every sweep runs over.

ROADMAP item 4 wants million-scenario campaigns, and a million scenarios
cannot be a Python list of ``IncastScenario`` objects — they have to be a
*description* that materializes cells lazily.  :class:`GridSpec` is that
description: a frozen, JSON-serializable product of axes (scheme × degree
× RTT × buffer × fault plan × seed × anything an applier can express).
Every sweep driver in :mod:`repro.experiments` now builds one of these
instead of its own nested loops, which buys three properties at once:

* **lazy expansion** — :meth:`GridSpec.expand` yields :class:`Cell`\\ s on
  demand and :meth:`GridSpec.shard` hands worker *i* of *n* its slice
  without materializing the rest;
* **a stable identity** — :meth:`GridSpec.fingerprint` hashes the
  canonical JSON document, so a work-queue journal can refuse to resume
  against a different grid;
* **wire portability** — :meth:`GridSpec.to_json` /
  :meth:`GridSpec.from_json` round-trip through plain JSON, so a worker
  on another host can rebuild the exact scenarios from the spec alone.

Axes apply to the base scenario through a **named applier registry**
(:func:`register_applier`): an axis stores only JSON data (its applier's
name and a value per grid line), and the applier — ordinary code living
in this module or registered by a driver — turns that value into a
scenario transformation.  This is the same data-not-code move as the
scheme registry: grids stay serializable because behavior is looked up by
name, never pickled.

:class:`SweepFold` is the streaming counterpart of the old
all-results-in-memory fold: results are pushed in **any** order, grouped
by (point, scheme), reduced to per-run :class:`RunSample` scalars the
moment they arrive, and emitted as the familiar
:class:`~repro.experiments.sweeps.SweepPoint` list at the end — the fold
never holds a full-grid result list.  :func:`run_grid` is the one
expand → stream → fold loop: it feeds a fold from
:meth:`ExperimentEngine.stream <repro.experiments.parallel.
ExperimentEngine.stream>` as cells finish.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ExperimentError
from repro.experiments.parallel import ExperimentEngine, RunFailure, _canonical
from repro.experiments.runner import IncastResult, IncastScenario

#: Bump when the spec document shape changes (axes layout, applier
#: contract, config fields); a journal keyed to an old fingerprint then
#: refuses to resume.  2: ``InterDcConfig`` lists ``segment_delays_ps``.
GRID_SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Scenario JSON round-trip
# ---------------------------------------------------------------------------

#: Modules whose public dataclasses may appear inside a scenario document.
#: Scanned lazily on first reconstruction; third-party config types can be
#: added with :func:`register_config_type`.
_CONFIG_MODULES = (
    "repro.config",
    "repro.detection.lossdetector",
    "repro.control.config",
    "repro.control.pool",
    "repro.faults.plan",
    "repro.experiments.runner",
)

_config_types: dict[str, type] = {}


def register_config_type(cls: type) -> type:
    """Make ``cls`` reconstructable from a scenario document.

    Built-in config dataclasses register automatically; only third-party
    dataclasses embedded in scenarios need this.  Usable as a decorator.
    """
    if not is_dataclass(cls):
        raise ExperimentError(f"{cls.__name__} is not a dataclass")
    existing = _config_types.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ExperimentError(
            f"config type name {cls.__name__!r} already registered by "
            f"{existing.__module__}"
        )
    _config_types[cls.__name__] = cls
    return cls


def _type_registry() -> dict[str, type]:
    if not _config_types:
        import importlib

        for module_name in _CONFIG_MODULES:
            module = importlib.import_module(module_name)
            for value in vars(module).values():
                if (
                    isinstance(value, type)
                    and is_dataclass(value)
                    and value.__module__ == module_name
                ):
                    register_config_type(value)
    return _config_types


def scenario_to_doc(scenario: Any) -> Any:
    """Reduce a config dataclass to a JSON document (see ``_canonical``)."""
    return _canonical(scenario)


def config_from_doc(doc: Any) -> Any:
    """Rebuild a config value from its canonical document.

    Inverse of :func:`scenario_to_doc` for the dataclass types the grid
    vocabulary uses: ``{"__type__": Name, ...}`` objects become registered
    dataclasses, arrays become tuples (every sequence field in the config
    tree is a tuple), and primitives pass through.  A document the
    dataclass refuses (an unknown or missing field, a value of the wrong
    type) raises :class:`~repro.errors.ExperimentError` naming the type.
    """
    if isinstance(doc, dict):
        if "__type__" in doc:
            name = doc["__type__"]
            cls = _type_registry().get(name)
            if cls is None:
                raise ExperimentError(
                    f"unknown config type {name!r} in scenario document; "
                    f"register it with repro.experiments.grid.register_config_type"
                )
            kwargs = {
                key: config_from_doc(value)
                for key, value in doc.items()
                if key != "__type__"
            }
            try:
                return cls(**kwargs)
            except (TypeError, ValueError) as exc:
                raise ExperimentError(
                    f"scenario document does not describe a valid {name}: {exc}"
                ) from exc
        return {key: config_from_doc(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return tuple(config_from_doc(value) for value in doc)
    return doc


def scenario_from_doc(doc: Any) -> IncastScenario:
    """Rebuild an :class:`IncastScenario` from its canonical document."""
    scenario = config_from_doc(doc)
    if not isinstance(scenario, IncastScenario):
        raise ExperimentError(
            f"document did not describe an IncastScenario "
            f"(got {type(scenario).__name__})"
        )
    return scenario


# ---------------------------------------------------------------------------
# Appliers: named scenario transformations
# ---------------------------------------------------------------------------

#: ``name -> fn(scenario, value) -> scenario``.  Values are JSON data.
APPLIERS: dict[str, Callable[[IncastScenario, Any], IncastScenario]] = {}


def register_applier(
    name: str,
) -> Callable[[Callable[[IncastScenario, Any], IncastScenario]],
              Callable[[IncastScenario, Any], IncastScenario]]:
    """Register a named axis applier (decorator)."""

    def decorate(fn: Callable[[IncastScenario, Any], IncastScenario]):
        if name in APPLIERS:
            raise ExperimentError(f"applier {name!r} already registered")
        APPLIERS[name] = fn
        return fn

    return decorate


def resolve_applier(name: str) -> Callable[[IncastScenario, Any], IncastScenario]:
    """Look up a registered applier; raises with the known names on a miss."""
    try:
        return APPLIERS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown applier {name!r}; registered: {', '.join(sorted(APPLIERS))}"
        ) from None


@register_applier("scheme")
def _apply_scheme(scenario: IncastScenario, value: Any) -> IncastScenario:
    return replace(scenario, scheme=str(value))


@register_applier("seed")
def _apply_seed(scenario: IncastScenario, value: Any) -> IncastScenario:
    return replace(scenario, seed=int(value))


@register_applier("degree")
def _apply_degree(scenario: IncastScenario, value: Any) -> IncastScenario:
    return replace(scenario, degree=int(value))


@register_applier("total_bytes")
def _apply_total_bytes(scenario: IncastScenario, value: Any) -> IncastScenario:
    return replace(scenario, total_bytes=int(value))


@register_applier("backbone_delay_ps")
def _apply_backbone_delay(scenario: IncastScenario, value: Any) -> IncastScenario:
    return replace(
        scenario, interdc=scenario.interdc.with_backbone_delay(int(value))
    )


@register_applier("faults")
def _apply_faults(scenario: IncastScenario, value: Any) -> IncastScenario:
    """``value`` is a canonical FaultPlan document (or None = fault-free)."""
    from repro.faults.plan import FaultPlan

    plan = FaultPlan() if value is None else config_from_doc(value)
    return replace(scenario, faults=plan)


def scale_buffers(interdc, factor: float):
    """Scale every congestion-point buffer by ``factor``.

    Fabric switch queues and the backbone queue scale together — capacity
    *and* ECN thresholds, so the marking profile keeps its shape and the
    ``low <= high <= capacity`` validator stays satisfied.  Host queues
    (effectively infinite) are left alone.
    """
    if factor <= 0:
        raise ValueError(f"buffer scale must be positive, got {factor}")

    def scaled(spec):
        return replace(
            spec,
            capacity_bytes=max(1, round(spec.capacity_bytes * factor)),
            ecn_low_bytes=round(spec.ecn_low_bytes * factor),
            ecn_high_bytes=round(spec.ecn_high_bytes * factor),
        )

    return replace(
        interdc,
        fabric=replace(interdc.fabric, switch_queue=scaled(interdc.fabric.switch_queue)),
        backbone_queue=scaled(interdc.backbone_queue),
    )


@register_applier("bakeoff_point")
def _apply_bakeoff_point(scenario: IncastScenario, value: Any) -> IncastScenario:
    """``value``: {"degree": d, "delay_ps": p, "buffer_scale": s}."""
    return replace(
        scenario,
        degree=int(value["degree"]),
        interdc=scale_buffers(
            scenario.interdc.with_backbone_delay(int(value["delay_ps"])),
            float(value["buffer_scale"]),
        ),
    )


@register_applier("recovery_case")
def _apply_recovery_case(scenario: IncastScenario, value: Any) -> IncastScenario:
    """``value`` carries case metadata; only its fault plan touches the run."""
    return _apply_faults(scenario, value.get("faults"))


# ---------------------------------------------------------------------------
# Axes and the spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisValue:
    """One grid line on one axis: the applier's payload plus display info."""

    value: Any
    label: str
    x: float = 0.0


@dataclass(frozen=True)
class Axis:
    """A named grid axis: an applier name plus the values it sweeps."""

    name: str
    applier: str
    values: tuple[AxisValue, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ExperimentError(f"axis {self.name!r} has no values")
        resolve_applier(self.applier)
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)


def axis(name: str, applier: str, values: Sequence[Any],
         labels: Sequence[str] | None = None,
         xs: Sequence[float] | None = None) -> Axis:
    """Convenience constructor: zip values with labels and x positions."""
    values = list(values)
    if labels is None:
        labels = [str(v) for v in values]
    if xs is None:
        xs = [float(i) for i in range(len(values))]
    if not (len(values) == len(labels) == len(xs)):
        raise ExperimentError(
            f"axis {name!r}: values/labels/xs lengths differ "
            f"({len(values)}/{len(labels)}/{len(xs)})"
        )
    return Axis(name, applier, tuple(
        AxisValue(value=v, label=l, x=float(x))
        for v, l, x in zip(values, labels, xs)
    ))


def scheme_axis(schemes: Sequence[str]) -> Axis:
    """The scheme axis every sweep grid carries."""
    return axis("scheme", "scheme", [str(s) for s in schemes])


def rep_axis(reps: int, seed0: int = 0) -> Axis:
    """The repetition axis: rep ``r`` runs with absolute seed ``seed0 + r``."""
    if reps < 1:
        raise ExperimentError("reps must be at least 1")
    return axis(
        "rep", "seed",
        [seed0 + r for r in range(reps)],
        labels=[f"rep={r}" for r in range(reps)],
        xs=[float(r) for r in range(reps)],
    )


@dataclass(frozen=True)
class Cell:
    """One materialized grid cell: its flat index, coordinates, scenario."""

    index: int
    #: ``(axis_name, AxisValue)`` in axis order.
    coords: tuple[tuple[str, AxisValue], ...]
    scenario: IncastScenario

    @property
    def label(self) -> str:
        return " ".join(v.label for _, v in self.coords)

    def coord(self, axis_name: str) -> AxisValue:
        for name, value in self.coords:
            if name == axis_name:
                return value
        raise ExperimentError(f"cell has no axis {axis_name!r}")


@dataclass(frozen=True)
class GridSpec:
    """A frozen, JSON-serializable product of axes over a base scenario.

    Cells enumerate in odometer order — the **last** axis varies fastest —
    matching the nested-loop order the drivers used to write by hand, so
    folds and digests are unchanged by the migration.
    """

    base: IncastScenario
    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ExperimentError("a GridSpec needs at least one axis")
        object.__setattr__(self, "axes", tuple(self.axes))
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate axis names: {names}")

    def __len__(self) -> int:
        total = 1
        for a in self.axes:
            total *= len(a)
        return total

    def cell(self, index: int) -> Cell:
        """Materialize the cell at flat ``index`` (odometer order)."""
        total = len(self)
        if not 0 <= index < total:
            raise ExperimentError(f"cell index {index} out of range [0, {total})")
        coords: list[tuple[str, AxisValue]] = []
        remainder = index
        for a in reversed(self.axes):
            remainder, i = divmod(remainder, len(a))
            coords.append((a.name, a.values[i]))
        coords.reverse()
        scenario = self.base
        for a, (_, value) in zip(self.axes, coords):
            scenario = resolve_applier(a.applier)(scenario, value.value)
        return Cell(index=index, coords=tuple(coords), scenario=scenario)

    def expand(self) -> Iterator[Cell]:
        """Lazily yield every cell in index order."""
        for index in range(len(self)):
            yield self.cell(index)

    def shard(self, shard_index: int, shard_count: int) -> Iterator[Cell]:
        """Worker ``shard_index`` of ``shard_count``'s cells (round-robin)."""
        if shard_count < 1:
            raise ExperimentError(f"shard_count must be >= 1, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ExperimentError(
                f"shard_index must be in [0, {shard_count}), got {shard_index}"
            )
        for index in range(shard_index, len(self), shard_count):
            yield self.cell(index)

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        """The canonical JSON document (also the fingerprint input)."""
        return {
            "schema": GRID_SCHEMA_VERSION,
            "kind": "repro.grid-spec",
            "base": scenario_to_doc(self.base),
            "axes": [
                {
                    "name": a.name,
                    "applier": a.applier,
                    "values": [
                        {"value": _canonical(v.value), "label": v.label, "x": v.x}
                        for v in a.values
                    ],
                }
                for a in self.axes
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "GridSpec":
        if not isinstance(doc, dict) or doc.get("kind") != "repro.grid-spec":
            raise ExperimentError("not a grid-spec document")
        if doc.get("schema") != GRID_SCHEMA_VERSION:
            raise ExperimentError(
                f"grid-spec schema {doc.get('schema')!r} != {GRID_SCHEMA_VERSION}"
            )
        axes = tuple(
            Axis(
                name=a["name"],
                applier=a["applier"],
                values=tuple(
                    AxisValue(value=v["value"], label=v["label"], x=float(v["x"]))
                    for v in a["values"]
                ),
            )
            for a in doc["axes"]
        )
        return cls(base=scenario_from_doc(doc["base"]), axes=axes)

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"grid spec is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)

    def fingerprint(self) -> str:
        """Stable SHA-256 of the canonical document.

        Two specs with the same base, axes, and applier names fingerprint
        identically across processes and hosts; any change to any of them
        (one more seed, a different fault plan) changes it.
        """
        payload = json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def sweep_spec(
    base: IncastScenario,
    point_axis: Axis,
    schemes: Sequence[str],
    reps: int,
    seed0: int = 0,
) -> GridSpec:
    """The canonical three-axis sweep grid: points × schemes × reps."""
    return GridSpec(base=base, axes=(point_axis, scheme_axis(schemes),
                                     rep_axis(reps, seed0)))


# ---------------------------------------------------------------------------
# Streaming fold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSample:
    """The per-run scalars any sweep fold needs — an ``IncastResult``
    stripped to a few dozen bytes so a streaming aggregator never holds
    full results (flow lists, counters, telemetry snapshots) in memory."""

    ok: bool
    ict_ps: float = 0.0
    retransmissions: float = 0.0
    timeouts: float = 0.0
    trims: float = 0.0
    drops: float = 0.0
    completed: bool = False
    #: recovery-sweep extras (None outside fault/control runs).
    detected_at_ps: float | None = None
    converged_at_ps: float | None = None
    reroutes: float = 0.0
    failovers: float = 0.0
    failbacks: float = 0.0
    degrades: float = 0.0

    @classmethod
    def from_result(cls, entry: "IncastResult | RunFailure") -> "RunSample":
        if isinstance(entry, RunFailure):
            return cls(ok=False)
        return cls(
            ok=True,
            ict_ps=entry.ict_ps,
            retransmissions=entry.retransmissions,
            timeouts=entry.timeouts,
            trims=entry.counters.packets_trimmed,
            drops=entry.counters.packets_dropped,
            completed=entry.completed,
            detected_at_ps=entry.detected_at_ps,
            converged_at_ps=entry.converged_at_ps,
            reroutes=entry.reroutes,
            failovers=entry.failovers,
            failbacks=entry.failbacks,
            degrades=entry.proxy_degrades,
        )


class GridFold:
    """Base streaming fold over a three-axis (point × scheme × rep) grid.

    ``add`` accepts results in **any** order (the distributed queue
    completes cells as workers finish them); each result is immediately
    reduced to a :class:`RunSample`, and a (point, scheme) group is
    finalized by the subclass the moment its last repetition lands.
    Memory is bounded by the sample buffers — never by full results.
    """

    def __init__(self, spec: GridSpec) -> None:
        names = [a.name for a in spec.axes]
        if len(spec.axes) != 3 or names[1] != "scheme" or names[2] != "rep":
            raise ExperimentError(
                f"fold expects axes (<point>, scheme, rep), got {names}"
            )
        self.spec = spec
        self.points = spec.axes[0].values
        self.schemes = tuple(v.value for v in spec.axes[1].values)
        self.reps = len(spec.axes[2])
        self._pending: dict[tuple[int, int], dict[int, RunSample]] = {}
        self._groups: dict[tuple[int, int], Any] = {}
        self.added = 0

    def add(self, index: int, entry: "IncastResult | RunFailure") -> None:
        """Fold the result of cell ``index``; order-independent."""
        n_schemes, reps = len(self.schemes), self.reps
        point_i, rest = divmod(index, n_schemes * reps)
        scheme_i, rep_i = divmod(rest, reps)
        group = (point_i, scheme_i)
        if group in self._groups:
            raise ExperimentError(f"cell {index} folded after its group closed")
        bucket = self._pending.setdefault(group, {})
        if rep_i in bucket:
            raise ExperimentError(f"cell {index} folded twice")
        bucket[rep_i] = RunSample.from_result(entry)
        self.added += 1
        if len(bucket) == reps:
            samples = [bucket[r] for r in range(reps)]
            del self._pending[group]
            self._groups[group] = self._finalize_group(point_i, scheme_i, samples)

    def _finalize_group(self, point_i: int, scheme_i: int,
                        samples: list[RunSample]) -> Any:
        raise NotImplementedError

    def finish(self) -> Any:
        """Assemble the fold's product once every cell has been added."""
        raise NotImplementedError

    def _group(self, point_i: int, scheme_i: int) -> Any:
        group = (point_i, scheme_i)
        if group not in self._groups:
            raise ExperimentError(
                f"grid incomplete: point {point_i} scheme "
                f"{self.schemes[scheme_i]!r} is missing repetitions"
            )
        return self._groups[group]


class SweepFold(GridFold):
    """Streaming fold producing the classic ``list[SweepPoint]``."""

    def _finalize_group(self, point_i: int, scheme_i: int,
                        samples: list[RunSample]):
        from repro.experiments.sweeps import summarize_samples

        return summarize_samples(self.schemes[scheme_i], samples)

    def finish(self):
        """Assemble the SweepPoints (baseline reductions included)."""
        from repro.experiments.sweeps import SweepPoint

        sweep = []
        for point_i, point in enumerate(self.points):
            summaries = {
                scheme: self._group(point_i, scheme_i)
                for scheme_i, scheme in enumerate(self.schemes)
            }
            baseline = summaries.get("baseline")
            if baseline is not None:
                for scheme, summary in summaries.items():
                    if scheme != "baseline" and summary.ict.count and baseline.ict.count:
                        summary.reduction_vs_baseline = summary.ict.reduction_vs(
                            baseline.ict
                        )
            sweep.append(SweepPoint(x=point.x, label=point.label, schemes=summaries))
        return sweep


def run_grid(
    spec: GridSpec,
    fold: GridFold | None = None,
    *,
    engine: ExperimentEngine | None = None,
) -> Any:
    """Run a declared grid: expand → ``engine.stream`` → fold → finish.

    The one grid runner every sweep driver and ``service coordinate``
    share.  Cells reach ``fold.add`` in **completion** order, so the
    fold's bounded-memory property holds while the pool is still running;
    the folds are order-independent, so the product is identical whether
    cells ran in-process, on N pool workers, or were served from the
    cache.  ``fold`` defaults to a :class:`SweepFold`
    (the classic ``list[SweepPoint]``); ``engine`` to a serial, uncached
    :class:`~repro.experiments.parallel.ExperimentEngine`.
    """
    fold = fold if fold is not None else SweepFold(spec)
    engine = engine if engine is not None else ExperimentEngine()
    for index, entry in engine.stream(cell.scenario for cell in spec.expand()):
        fold.add(index, entry)
    return fold.finish()
