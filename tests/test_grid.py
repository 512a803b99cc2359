"""GridSpec: odometer order, sharding, serialization, and streaming folds."""

import json
from dataclasses import replace

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError, ExperimentError
from repro.experiments.grid import (
    GRID_SCHEMA_VERSION,
    Axis,
    AxisValue,
    GridSpec,
    RunSample,
    SweepFold,
    axis,
    config_from_doc,
    run_grid,
    scenario_from_doc,
    scenario_to_doc,
)
from repro.experiments.parallel import ExperimentEngine, RunFailure
from repro.experiments.runner import IncastScenario
from repro.experiments.sweeps import degree_sweep_spec, sweep_digest
from repro.units import kilobytes


def _base(**overrides):
    scenario = IncastScenario(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    return replace(scenario, **overrides) if overrides else scenario


def _spec(degrees=(2, 4), schemes=("baseline", "naive"), reps=2, seed0=0):
    return degree_sweep_spec(_base(), degrees, schemes, reps=reps, seed0=seed0)


class TestGridSpec:
    def test_odometer_order_matches_nested_loops(self):
        spec = _spec(degrees=(2, 4), schemes=("baseline", "naive"), reps=2)
        expected = []
        for degree in (2, 4):  # the nested loops the drivers used to write
            for scheme in ("baseline", "naive"):
                for rep in range(2):
                    expected.append((degree, scheme, rep))
        got = [
            (cell.scenario.degree, cell.scenario.scheme, cell.scenario.seed)
            for cell in spec.expand()
        ]
        assert got == expected

    def test_cells_reproduce_legacy_replace_scenarios(self):
        base = _base()
        spec = degree_sweep_spec(base, (3, 5), ("baseline",), reps=2, seed0=7)
        legacy = [
            replace(base, degree=d, scheme="baseline", seed=7 + r)
            for d in (3, 5)
            for r in range(2)
        ]
        assert [cell.scenario for cell in spec.expand()] == legacy

    def test_len_and_cell_bounds(self):
        spec = _spec()
        assert len(spec) == 2 * 2 * 2
        with pytest.raises(ExperimentError):
            spec.cell(len(spec))
        with pytest.raises(ExperimentError):
            spec.cell(-1)

    def test_shards_partition_the_grid(self):
        spec = _spec()
        indices = [
            [cell.index for cell in spec.shard(i, 3)] for i in range(3)
        ]
        flat = sorted(i for shard in indices for i in shard)
        assert flat == list(range(len(spec)))
        with pytest.raises(ExperimentError):
            list(spec.shard(3, 3))
        with pytest.raises(ExperimentError):
            list(spec.shard(0, 0))

    def test_json_round_trip_preserves_cells_and_fingerprint(self):
        spec = _spec(seed0=3)
        clone = GridSpec.from_json(spec.to_json())
        assert clone.fingerprint() == spec.fingerprint()
        assert [c.scenario for c in clone.expand()] == [
            c.scenario for c in spec.expand()
        ]

    def test_fingerprint_changes_with_any_axis_edit(self):
        assert _spec(reps=2).fingerprint() != _spec(reps=3).fingerprint()
        assert _spec(seed0=0).fingerprint() != _spec(seed0=1).fingerprint()

    def test_rejects_duplicate_axis_names_and_empty_axes(self):
        ax = axis("point", "degree", [2])
        with pytest.raises(ExperimentError, match="duplicate"):
            GridSpec(base=_base(), axes=(ax, ax))
        with pytest.raises(ExperimentError, match="no values"):
            Axis("point", "degree", ())
        with pytest.raises(ExperimentError):
            GridSpec(base=_base(), axes=())

    def test_rejects_unknown_applier(self):
        with pytest.raises(ExperimentError):
            Axis("point", "not-an-applier", (AxisValue(1, "1"),))

    def test_cell_coord_lookup(self):
        cell = _spec().cell(0)
        assert cell.coord("scheme").value == "baseline"
        with pytest.raises(ExperimentError):
            cell.coord("nope")

    def test_scenario_doc_round_trip(self):
        scenario = _base(scheme="naive", seed=5)
        assert scenario_from_doc(scenario_to_doc(scenario)) == scenario

    def test_scenario_doc_round_trips_proxy_overhead(self):
        scenario = _base(scheme="streamlined", proxy_overhead="userspace")
        doc = scenario_to_doc(scenario)
        assert doc["proxy_overhead"] == "userspace"
        assert scenario_from_doc(doc) == scenario

    def test_config_from_doc_rejects_unknown_type(self):
        with pytest.raises(ExperimentError, match="unknown config type"):
            config_from_doc({"__type__": "NoSuchConfig"})

    @pytest.mark.parametrize("field", [
        "backbone_routerz",  # a misspelt field
        "backbone_delay_ps",  # a field the line config lost
    ])
    def test_a_hostile_spec_document_is_an_experiment_error(self, field):
        doc = _spec(degrees=(2,), schemes=("baseline",), reps=1).to_doc()
        doc["base"]["interdc"][field] = 4
        with pytest.raises(ExperimentError, match="InterDcConfig") as excinfo:
            GridSpec.from_json(json.dumps(doc))
        assert isinstance(excinfo.value.__cause__, TypeError)
        # A known field with a value of the wrong shape is the config's own
        # typed refusal.
        doc["base"]["interdc"].pop(field)
        doc["base"]["interdc"]["segment_delays_ps"] = 5
        with pytest.raises(ConfigError, match="segment_delays_ps"):
            GridSpec.from_json(json.dumps(doc))

    def test_a_document_from_the_previous_schema_is_refused(self):
        doc = _spec(degrees=(2,), schemes=("baseline",), reps=1).to_doc()
        doc["schema"] = GRID_SCHEMA_VERSION - 1
        with pytest.raises(ExperimentError, match="schema"):
            GridSpec.from_doc(doc)


class TestSweepFold:
    def _entries(self, spec):
        engine = ExperimentEngine(workers=1)
        return engine.run_incasts_detailed([c.scenario for c in spec.expand()])

    def test_fold_is_order_independent(self):
        spec = _spec(degrees=(2,), schemes=("baseline", "naive"), reps=2)
        entries = self._entries(spec)

        def digest(order):
            fold = SweepFold(spec)
            for index in order:
                fold.add(index, entries[index])
            return sweep_digest(fold.finish())

        forward = digest(range(len(entries)))
        assert digest(reversed(range(len(entries)))) == forward
        assert digest([1, 3, 0, 2]) == forward

    def test_fold_rejects_duplicates_and_incomplete_grids(self):
        spec = _spec(degrees=(2,), schemes=("baseline",), reps=2)
        entries = self._entries(spec)
        fold = SweepFold(spec)
        fold.add(0, entries[0])
        with pytest.raises(ExperimentError, match="folded twice"):
            fold.add(0, entries[0])
        with pytest.raises(ExperimentError, match="incomplete"):
            fold.finish()
        fold.add(1, entries[1])
        points = fold.finish()
        assert points[0].schemes["baseline"].ict.count == 2

    def test_fold_requires_point_scheme_rep_axes(self):
        spec = GridSpec(base=_base(), axes=(axis("point", "degree", [2]),))
        with pytest.raises(ExperimentError, match="scheme"):
            SweepFold(spec)

    def test_failures_become_quarantined_samples(self):
        spec = _spec(degrees=(2,), schemes=("baseline",), reps=2)
        entries = self._entries(spec)
        fold = SweepFold(spec)
        fold.add(0, entries[0])
        fold.add(1, RunFailure(
            scenario=spec.cell(1).scenario, kind="timeout",
            message="deadline", attempts=1, elapsed_seconds=0.0,
        ))
        [point] = fold.finish()
        summary = point.schemes["baseline"]
        assert summary.failures == 1
        assert summary.ict.count == 1
        assert not summary.all_completed

    def test_run_sample_reduces_failures(self):
        failure = RunFailure(
            scenario=_base(), kind="exception", message="boom",
            attempts=2, elapsed_seconds=0.1,
        )
        sample = RunSample.from_result(failure)
        assert not sample.ok and not sample.completed


class TestRunGrid:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_is_fed_while_the_batch_is_still_running(self, workers):
        # Regression: the pool path used to materialise every result
        # before the first fold.add, so the fold's bounded-memory property
        # only held on the queue backend.
        spec = _spec(degrees=(2,), schemes=("baseline", "naive"), reps=2)
        engine = ExperimentEngine(workers=workers)
        finished_at_add = []

        class Recording(SweepFold):
            def add(self, index, entry):
                finished_at_add.append(engine.stats.cache_misses)
                super().add(index, entry)

        points = run_grid(spec, Recording(spec), engine=engine)
        assert finished_at_add == list(range(1, len(spec) + 1))
        assert sweep_digest(points) == sweep_digest(run_grid(spec))

    def test_defaults_to_a_sweep_fold_on_a_serial_engine(self):
        spec = _spec(degrees=(2,), schemes=("baseline",), reps=1)
        [point] = run_grid(spec)
        assert point.label == "degree=2"
        assert point.schemes["baseline"].all_completed
