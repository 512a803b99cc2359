"""The top-level ``python -m repro`` dispatcher."""

import pytest

from repro.__main__ import main


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
        for flags in (["--workers", "2"], ["--backend", "queue"],
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
