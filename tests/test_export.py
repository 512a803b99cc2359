"""CSV/JSON export of experiment artifacts."""

import csv
import json

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.runner import IncastScenario
from repro.experiments.grid import run_grid
from repro.experiments.sweeps import degree_sweep_spec
from repro.hoststack import ebpf_forward_path_pipeline, measure_pipeline
from repro.metrics.export import (
    write_cdf_csv,
    write_sweep_csv,
    write_sweep_json,
    write_timeseries_csv,
)
from repro.metrics.timeseries import TimeSeries
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

    def test_json_roundtrip(self, sweep_points, tmp_path):
        path = write_sweep_json(sweep_points, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        assert len(document) == 1
        assert set(document[0]["schemes"]) == {"baseline", "naive"}
        assert document[0]["schemes"]["baseline"]["reduction_vs_baseline"] is None

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            write_sweep_csv([], tmp_path / "x.csv")
        with pytest.raises(ExperimentError):
            write_sweep_json([], tmp_path / "x.json")

    def test_creates_parent_directories(self, sweep_points, tmp_path):
        path = write_sweep_csv(sweep_points, tmp_path / "deep" / "dir" / "s.csv")
        assert path.exists()


class TestCdfExport:
    def test_cdf_monotone_rows(self, tmp_path):
        measurement = measure_pipeline(ebpf_forward_path_pipeline(), 5000, seed=0)
        path = write_cdf_csv(measurement, tmp_path / "cdf.csv", points=50)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 50
        latencies = [float(r["latency_us"]) for r in rows]
        probs = [float(r["cumulative_probability"]) for r in rows]
        assert latencies == sorted(latencies)
        assert probs[0] == 0.0 and probs[-1] == 1.0


class TestTimeSeriesExport:
    def test_rows_match_samples(self, tmp_path):
        series = TimeSeries("goodput", 100)
        series.observe(0, 1.5)
        series.observe(1_000_000_000, 2.5)
        path = write_timeseries_csv(series, tmp_path / "ts.csv")
        rows = list(csv.DictReader(path.open()))
        assert [float(r["time_ms"]) for r in rows] == [0.0, 1.0]
        assert [float(r["goodput"]) for r in rows] == [1.5, 2.5]
