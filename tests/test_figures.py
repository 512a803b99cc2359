"""The figure-regeneration module (fast paths only: CDF figures + plumbing)."""

import pytest

from repro.experiments import figures
from repro.units import megabytes


class TestCdfFigures:
    def test_figure4_mentions_pipeline_and_percentiles(self):
        table = figures.figure4(packets=5_000)
        assert "userspace_naive_proxy" in table
        assert "p99" in table

    def test_figure5_has_both_panels(self):
        table = figures.figure5(packets=5_000)
        assert "Figure 5a" in table and "Figure 5b" in table
        assert "ebpf_lower_forward" in table
        assert "ebpf_lower_reverse" in table
        assert "ebpf_upper_wire_to_wire" in table


class TestScenarioPlumbing:
    def test_reduced_scenario_is_smaller(self):
        reduced = figures._base_scenario(full=False)
        full = figures._base_scenario(full=True)
        assert reduced.total_bytes < full.total_bytes
        assert full.total_bytes == megabytes(100)

    def test_reps_defaults(self):
        assert figures._reps(full=True, reps=None) == 5
        assert figures._reps(full=False, reps=None) == 2
        assert figures._reps(full=True, reps=1) == 1

    def test_anchor_keys_cover_sweeps(self):
        assert [title for title, _ in figures.SWEEP_FIGURES.values()] == [
            "Figure 2 (Left)", "Figure 2 (Right)", "Figure 3"
        ]
        assert set(figures.SWEEP_FIGURES) <= set(figures.PAPER_ANCHORS)

    def test_paper_anchor_strings_quote_numbers(self):
        assert "75.67" in figures.PAPER_ANCHORS["fig2l"]
        assert "20MB" in figures.PAPER_ANCHORS["fig2r"]
        assert "100us" in figures.PAPER_ANCHORS["fig3"]
        assert "359.17" in figures.PAPER_ANCHORS["fig4"]
        assert "0.42" in figures.PAPER_ANCHORS["fig5a"]
        assert "325.92" in figures.PAPER_ANCHORS["fig5b"]


class TestCli:
    def test_cli_fig5_only(self, capsys):
        figures.main(["--only", "fig5"])
        out = capsys.readouterr().out
        assert "Figure 5a" in out
        assert "Figure 2" not in out

    def test_cli_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            figures.main(["--only", "fig99"])
