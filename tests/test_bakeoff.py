"""The bake-off CLI: grid construction, ranking, exports, determinism."""

import math
from dataclasses import replace

import pytest

from repro.competitors import uninstall
from repro.errors import ConfigError
from repro.experiments.bakeoff import (
    BakeoffRow,
    bakeoff_base_scenario,
    bakeoff_figure,
    bakeoff_grid_spec,
    bakeoff_table,
    export_bakeoff,
    main,
    rank_bakeoff,
)
from repro.experiments.grid import run_grid, scale_buffers
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.sweeps import sweep_digest
from repro.units import kilobytes


def _tiny_points(workers=1):
    base = replace(bakeoff_base_scenario(), total_bytes=kilobytes(100))
    spec = bakeoff_grid_spec(
        base,
        degrees=(2,),
        delays_ps=base.interdc.segment_delays_ps,
        buffer_scales=(1.0,),
        schemes=("baseline", "naive"),
        reps=1,
    )
    return run_grid(spec, engine=ExperimentEngine(workers=workers))


class TestScaleBuffers:
    def test_scales_capacity_and_ecn_thresholds_together(self):
        interdc = bakeoff_base_scenario().interdc
        half = scale_buffers(interdc, 0.5)
        for spec, orig in (
            (half.fabric.switch_queue, interdc.fabric.switch_queue),
            (half.backbone_queue, interdc.backbone_queue),
        ):
            assert spec.capacity_bytes == round(orig.capacity_bytes * 0.5)
            assert spec.ecn_low_bytes == round(orig.ecn_low_bytes * 0.5)
            assert spec.ecn_high_bytes == round(orig.ecn_high_bytes * 0.5)
            # The QueueSpec validator re-ran and accepted the scaled spec.
            assert 0 <= spec.ecn_low_bytes <= spec.ecn_high_bytes <= spec.capacity_bytes

    def test_rejects_non_positive_factor(self):
        interdc = bakeoff_base_scenario().interdc
        with pytest.raises(ValueError):
            scale_buffers(interdc, 0)

    def test_extreme_shrink_still_validates(self):
        # Tiny factors must not round thresholds above capacity.
        scale_buffers(bakeoff_base_scenario().interdc, 1e-6)


class TestRanking:
    def test_rows_sorted_by_mean_ict_and_ranked(self):
        points = _tiny_points()
        rows = rank_bakeoff(points, ("baseline", "naive"))
        assert [r.rank for r in rows] == [1, 2]
        assert rows[0].mean_ict_ps <= rows[1].mean_ict_ps
        assert {r.scheme for r in rows} == {"baseline", "naive"}
        baseline = next(r for r in rows if r.scheme == "baseline")
        assert baseline.mean_reduction is None

    def test_fault_ratio_column_is_attached(self):
        points = _tiny_points()
        rows = rank_bakeoff(points, ("baseline", "naive"), {"naive": 1.5})
        by_name = {r.scheme: r for r in rows}
        assert by_name["naive"].fault_ratio == 1.5
        assert by_name["baseline"].fault_ratio is None

    def test_table_and_figure_render_every_scheme(self):
        rows = rank_bakeoff(_tiny_points(), ("baseline", "naive"))
        table = bakeoff_table(rows)
        figure = bakeoff_figure(rows)
        for name in ("baseline", "naive"):
            assert name in table
            assert name in figure
        assert "mean ICT" in table
        assert "shorter is better" in figure

    def test_missing_data_ranks_last(self):
        rows = [
            BakeoffRow(0, "good", "Good", 5.0, None, 0, 0, 0, 0, 0, True, None),
            BakeoffRow(0, "empty", "Empty", float("nan"), None, 0, 0, 0, 0,
                       3, False, None),
        ]
        ranked = sorted(
            rows, key=lambda r: (math.isnan(r.mean_ict_ps), r.mean_ict_ps)
        )
        assert ranked[0].scheme == "good"
        assert "n/a" in bakeoff_table(rows)
        assert "n/a" in bakeoff_figure(rows)


class TestDeterminism:
    def test_grid_digest_identical_across_worker_counts(self):
        serial = sweep_digest(_tiny_points(workers=1))
        fanned = sweep_digest(_tiny_points(workers=2))
        assert serial == fanned


class TestExport:
    def test_export_writes_all_artifacts(self, tmp_path):
        points = _tiny_points()
        rows = rank_bakeoff(points, ("baseline", "naive"))
        digest = sweep_digest(points)
        written = export_bakeoff(rows, points, tmp_path, digest)
        names = {path.name for path in written}
        assert names == {
            "bakeoff_summary.csv",
            "bakeoff_summary.json",
            "bakeoff_grid.csv",
            "bakeoff_figure.txt",
        }
        for path in written:
            assert path.exists() and path.stat().st_size > 0
        assert digest in (tmp_path / "bakeoff_summary.json").read_text()


class TestCli:
    def test_smoke_ranks_all_registered_schemes(self, capsys):
        try:
            main(["--smoke", "--no-cache"])
        finally:
            uninstall()  # main() installs the competitors globally
        out = capsys.readouterr().out
        assert "8 schemes" in out
        assert "sweep_digest: " in out
        for name in ("repflow", "pulser", "pulser-dist", "baseline",
                     "streamlined", "trimless", "proxy-failover", "naive"):
            assert name in out

    def test_rejects_bad_reps(self):
        try:
            with pytest.raises(SystemExit):
                main(["--reps", "0"])
        finally:
            uninstall()
