"""Experiment harness: scenarios, runner, sweeps, reports."""

import gc
from dataclasses import replace

import pytest

from repro.config import TransportConfig, paper_interdc_config, small_interdc_config
from repro.errors import ConfigError, ExperimentError
from repro.experiments.report import average_reductions, render_table, sweep_table
from repro.experiments.runner import IncastScenario, run_incast
from repro.experiments.grid import run_grid
from repro.experiments.sweeps import (
    degree_sweep_spec,
    run_scheme_summary,
    size_sweep_spec,
)
from repro.units import kilobytes, megabytes, milliseconds


@pytest.fixture()
def small_scenario():
    return IncastScenario(
        degree=3,
        total_bytes=megabytes(10),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


class TestScenario:
    def test_flow_sizes_split_equally(self, small_scenario):
        scenario = replace(small_scenario, total_bytes=100, degree=3)
        assert scenario.flow_sizes() == [34, 33, 33]
        assert sum(scenario.flow_sizes()) == 100

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError):
            IncastScenario(scheme="carrier-pigeon")

    def test_degree_validation(self):
        with pytest.raises(ExperimentError):
            IncastScenario(degree=0)
        with pytest.raises(ExperimentError):
            IncastScenario(degree=10, total_bytes=5)

    @pytest.mark.parametrize("scheme", ["baseline", "streamlined"])
    def test_the_scheme_alone_chooses_trimming(self, scheme):
        # A run builds the fabric with its scheme's trimming flag, so a
        # scenario that set its own would run the same cell under a
        # second cache key.
        with pytest.raises(ConfigError, match="chosen by the scheme"):
            IncastScenario(scheme=scheme, interdc=small_interdc_config().with_trimming(True))


class TestRunIncast:
    @pytest.mark.parametrize("scheme", ["baseline", "naive", "streamlined", "trimless"])
    def test_all_schemes_complete(self, small_scenario, scheme):
        result = run_incast(replace(small_scenario, scheme=scheme))
        assert result.completed
        assert result.ict_ps > 0
        assert len(result.flow_completion_ps) == 3
        assert result.flow_completion_ps == sorted(result.flow_completion_ps)

    def test_ict_is_last_flow(self, small_scenario):
        result = run_incast(small_scenario)
        assert result.ict_ps == result.flow_completion_ps[-1]

    def test_deterministic_given_seed(self, small_scenario):
        a = run_incast(small_scenario)
        b = run_incast(small_scenario)
        assert a.ict_ps == b.ict_ps

    def test_seeds_change_spraying(self, small_scenario):
        a = run_incast(replace(small_scenario, seed=0))
        b = run_incast(replace(small_scenario, seed=1))
        assert a.ict_ps != b.ict_ps  # different spray choices -> different ICT

    def test_streamlined_enables_trimming(self, small_scenario):
        result = run_incast(replace(small_scenario, scheme="streamlined"))
        assert result.counters.packets_trimmed > 0
        assert result.counters.packets_dropped == 0
        assert result.proxy_nacks_sent > 0

    def test_baseline_drops_instead(self, small_scenario):
        result = run_incast(small_scenario)
        assert result.counters.packets_trimmed == 0
        assert result.counters.packets_dropped > 0

    def test_headline_result_proxies_beat_baseline(self, small_scenario):
        base = run_incast(small_scenario)
        naive = run_incast(replace(small_scenario, scheme="naive"))
        streamlined = run_incast(replace(small_scenario, scheme="streamlined"))
        assert naive.ict_ps < base.ict_ps
        assert streamlined.ict_ps < base.ict_ps

    def test_horizon_caps_incomplete_runs(self, small_scenario):
        result = run_incast(replace(small_scenario, horizon_ps=milliseconds(1)))
        assert not result.completed
        assert result.ict_ps == milliseconds(1)


class TestCollectorWindow:
    """``run_incast`` is one pause of the cyclic collector, build included."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_state_it_found(self, small_scenario, enabled):
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            run_incast(small_scenario)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_restores_when_the_run_raises(self, small_scenario, monkeypatch):
        def build_fails(*args, **kwargs):
            assert not gc.isenabled()  # the build is inside the window
            raise RuntimeError("no fabric today")

        monkeypatch.setattr("repro.experiments.runner.build_interdc", build_fails)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="no fabric today"):
            run_incast(small_scenario)
        assert gc.isenabled()

    def test_back_to_back_cells_trigger_no_full_collection(self, small_scenario):
        # A finished cell's fabric is one cyclic blob, allocated entirely
        # under the pause: it dies in the young generation.  An exact count,
        # not a timing; on the paper fabric, where a build under a running
        # collector used to reach a full collection within four cells.
        cell = replace(small_scenario, interdc=paper_interdc_config())
        assert gc.isenabled()
        gc.collect()
        full_collections = gc.get_stats()[2]["collections"]
        for seed in range(4):
            run_incast(replace(cell, seed=seed))
        assert gc.get_stats()[2]["collections"] == full_collections


class TestSweeps:
    def test_scheme_summary_statistics(self, small_scenario):
        summary, results = run_scheme_summary(small_scenario, reps=2)
        assert summary.ict.count == 2
        assert summary.ict.minimum <= summary.ict.mean <= summary.ict.maximum
        assert summary.all_completed
        assert len(results) == 2

    def test_reps_validation(self, small_scenario):
        with pytest.raises(ExperimentError):
            run_scheme_summary(small_scenario, reps=0)

    def test_degree_sweep_structure(self, small_scenario):
        points = run_grid(degree_sweep_spec(
            small_scenario, degrees=(2, 3),
            schemes=("baseline", "streamlined"), reps=1,
        ))
        assert [p.x for p in points] == [2.0, 3.0]
        for point in points:
            assert set(point.schemes) == {"baseline", "streamlined"}
            assert point.schemes["baseline"].reduction_vs_baseline is None
            assert point.schemes["streamlined"].reduction_vs_baseline is not None

    def test_size_sweep_varies_bytes(self, small_scenario):
        points = run_grid(size_sweep_spec(
            small_scenario, sizes_bytes=(kilobytes(500), megabytes(10)),
            schemes=("baseline",), reps=1,
        ))
        assert points[0].schemes["baseline"].ict.mean < points[1].schemes["baseline"].ict.mean

    def test_reduction_helper(self, small_scenario):
        points = run_grid(degree_sweep_spec(
            small_scenario, degrees=(3,),
            schemes=("baseline", "streamlined"), reps=1,
        ))
        avg = average_reductions(points, "streamlined")
        assert avg == pytest.approx(points[0].reduction("streamlined"))


class TestReports:
    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_sweep_table_contains_schemes(self, small_scenario):
        points = run_grid(degree_sweep_spec(
            small_scenario, degrees=(3,),
            schemes=("baseline", "streamlined"), reps=1,
        ))
        table = sweep_table(points, ("baseline", "streamlined"))
        assert "degree=3" in table
        assert "streamlined vs base" in table
        assert "%" in table
