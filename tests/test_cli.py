"""The top-level ``python -m repro`` dispatcher and the drivers' bodies."""

import pytest

from repro.__main__ import main
from repro.config import TransportConfig, small_interdc_config
from repro.experiments.runner import IncastScenario
from repro.units import kilobytes, milliseconds


class TestDispatch:
    def test_unknown_command_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["teleport"])
        assert "unknown command" in capsys.readouterr().err

    def test_figures_subcommand_forwards_args(self, capsys):
        main(["figures", "--only", "fig5"])
        out = capsys.readouterr().out
        assert "Figure 5a" in out

    def test_figures_accepts_parallel_flags(self, capsys, tmp_path):
        main(["figures", "--only", "fig5", "--workers", "2", "--no-cache",
              "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "Figure 5a" in out

    def test_quickstart_prints_all_schemes(self, capsys):
        main(["quickstart"])
        out = capsys.readouterr().out
        for scheme in ("baseline", "naive", "streamlined", "trimless"):
            assert scheme in out

    def test_workload_takes_only_the_flags_it_reads(self, capsys):
        # Regression: workload inherited the whole engine/telemetry flag
        # set from the shared parser and silently ignored all of it.
        for flags in (["--workers", "2"],
                      ["--no-cache"], ["--cache-dir", "x"],
                      ["--run-timeout", "5"], ["--sanitize"],
                      ["--telemetry"], ["--telemetry-dir", "x"],
                      ["--sample-interval", "5"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["workload", "--smoke", *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text and "--metrics" in text
        assert "--workers" not in text and "--telemetry" not in text

    def test_every_sweep_driver_prints_the_one_footer(self, capsys, tmp_path):
        main(["quickstart", "--cache-dir", str(tmp_path)])
        cold = capsys.readouterr().out
        assert "[engine] 5 runs, 0 cached, 5 simulated, 0 quarantined" in cold
        main(["quickstart", "--cache-dir", str(tmp_path)])
        warm = capsys.readouterr().out
        assert "[engine] 5 runs, 5 cached, 0 simulated, 0 quarantined" in warm


class TestCliBodies:
    """One tiny-scale call per driver body that otherwise only CI runs."""

    def test_fault_smoke(self, capsys):
        from repro.experiments.faultsweep import _smoke
        from repro.experiments.parallel import ExperimentEngine

        _smoke(ExperimentEngine(workers=1), 1.0)
        out = capsys.readouterr().out
        assert "sweep_digest: " in out
        assert "quarantine: ok" in out

    def test_sweep_figures_on_a_small_base(self, monkeypatch):
        from repro.experiments import figures

        base = IncastScenario(
            degree=2, total_bytes=kilobytes(100),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
        )
        monkeypatch.setattr(figures, "_base_scenario", lambda full: base)
        # Fig. 2 (Right) sets absolute sizes: scale them 1000x down.
        monkeypatch.setattr(figures, "megabytes", kilobytes)
        for figure in (figures.figure2_left, figures.figure2_right,
                       figures.figure3):
            points = figure(reps=1)
            assert len(points) == 3
            assert all(tuple(point.schemes) == figures.SCHEMES
                       for point in points)

    def test_workload_sweep_and_table(self):
        from repro.experiments.workload import workload_sweep, workload_table
        from repro.workloads.engine import WorkloadEngineConfig
        from repro.workloads.sizes import HeavyTailConfig

        base = WorkloadEngineConfig(
            horizon_ps=milliseconds(200), segment_ps=milliseconds(100),
            peak_arrivals_per_s=40.0, seed=3,
            sizes=HeavyTailConfig(minimum_bytes=64_000,
                                  maximum_bytes=500_000, alpha=1.3),
        )
        rows = workload_sweep(base, schemes=("baseline",), loads=(1.0,),
                              predictor_schemes=("streamlined",))
        table = workload_table(rows)
        assert [row.label for row in rows] == ["baseline", "streamlined+pred"]
        assert "baseline" in table and "streamlined+pred" in table

    def test_races_smoke(self, capsys):
        from repro.analysis.races import main as races_main
        from repro.schemes import SCHEME_REGISTRY

        before = SCHEME_REGISTRY.names()
        races_main(["--smoke", "--schemes", "baseline", "--orders", "1",
                    "--degree", "2", "--bytes-mb", "0.1", "--no-cache"])
        assert "race smoke ok" in capsys.readouterr().out
        assert SCHEME_REGISTRY.names() == before

    def test_bakeoff_smoke_leaves_the_registry_as_it_found_it(self, capsys):
        # The bake-off ranks the competitor plug-ins too; an in-process
        # call must not leave them registered for later default sweeps.
        from repro.schemes import SCHEME_REGISTRY

        before = SCHEME_REGISTRY.names()
        main(["bakeoff", "--smoke", "--no-cache", "--workers", "1"])
        out = capsys.readouterr().out
        assert "pulser-dist" in out and "sweep_digest: " in out
        assert SCHEME_REGISTRY.names() == before
