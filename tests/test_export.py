"""CSV export of sweep artifacts."""

import csv

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.runner import IncastScenario
from repro.experiments.grid import run_grid
from repro.experiments.sweeps import degree_sweep_spec
from repro.metrics.export import write_sweep_csv
from repro.units import megabytes


@pytest.fixture(scope="module")
def sweep_points():
    scenario = IncastScenario(
        degree=2,
        total_bytes=megabytes(6),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    return run_grid(
        degree_sweep_spec(scenario, degrees=(2,), schemes=("baseline", "naive"), reps=1)
    )


class TestSweepExport:
    def test_csv_rows(self, sweep_points, tmp_path):
        path = write_sweep_csv(sweep_points, tmp_path / "sweep.csv")
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2  # one per scheme
        schemes = {row["scheme"] for row in rows}
        assert schemes == {"baseline", "naive"}
        for row in rows:
            assert float(row["ict_mean_ms"]) > 0
            assert row["all_completed"] == "True"

    def test_csv_reduction_blank_for_baseline(self, sweep_points, tmp_path):
        path = write_sweep_csv(sweep_points, tmp_path / "sweep.csv")
        rows = {r["scheme"]: r for r in csv.DictReader(path.open())}
        assert rows["baseline"]["reduction_vs_baseline"] == ""
        assert rows["naive"]["reduction_vs_baseline"] != ""

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            write_sweep_csv([], tmp_path / "x.csv")

    def test_creates_parent_directories(self, sweep_points, tmp_path):
        path = write_sweep_csv(sweep_points, tmp_path / "deep" / "dir" / "s.csv")
        assert path.exists()

