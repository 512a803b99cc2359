"""RunOptions bundle, the long-gone ``sanitize=`` kwarg, and the shared CLI."""

import dataclasses
import warnings
from dataclasses import replace

import pytest

from repro.analysis.races import result_digest
from repro.config import TransportConfig, small_interdc_config
from repro.errors import ConfigError
from repro.experiments.parallel import ExperimentEngine, ResultCache
from repro.experiments.runner import IncastScenario, run_incast
from repro.sim.probe import Probe
from repro.telemetry import RunOptions
from repro.units import kilobytes
from tests.test_probe import SCENARIOS as PROBE_SCENARIOS
from tests.test_probe import CountingProbe


def _scenario(**overrides):
    base = IncastScenario(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    return replace(base, **overrides) if overrides else base


class TestRunOptions:
    def test_frozen_and_validated(self):
        options = RunOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.sanitize = True
        with pytest.raises(ConfigError):
            RunOptions(sample_interval_ps=0)
        with pytest.raises(ConfigError):
            RunOptions(max_samples=0)

    def test_cache_bypass_matrix(self):
        assert not RunOptions().bypasses_cache
        assert RunOptions(sanitize=True).bypasses_cache
        assert RunOptions(telemetry=True).bypasses_cache
        assert RunOptions(probe=Probe()).bypasses_cache

    def test_sanitize_telemetry_and_probe_share_one_run(self):
        # Each observer, fanned out with the others, sees exactly what it
        # sees alone, and together they leave the run as a plain one.
        scenario = PROBE_SCENARIOS["trims"]
        plain = run_incast(scenario)
        sanitized = run_incast(scenario, RunOptions(sanitize=True))
        recorded = run_incast(scenario, RunOptions(telemetry=True))
        alone = CountingProbe()
        run_incast(scenario, RunOptions(probe=alone))
        together = CountingProbe()
        both = run_incast(scenario, RunOptions(
            sanitize=True, telemetry=True, probe=together,
        ))

        assert both.conservation == sanitized.conservation
        assert both.conservation["injected_packets"] > 0

        def series(result):
            return {name: (s.times, s.values)
                    for name, s in result.telemetry.series.items()}

        assert series(both) == series(recorded)
        assert len(series(both)) > 1

        # Sampler ticks are events too (all but the first sample, taken as
        # the run starts): they are the only difference in the event
        # count, and so in the per-event hook's call count.
        ticks = len(both.telemetry.get("scheduler.pending")) - 1
        assert together.calls.pop("on_event") == both.events_executed
        assert alone.calls.pop("on_event") == plain.events_executed
        assert together.calls == alone.calls
        assert (together.drops, together.trims) == (alone.drops, alone.trims)
        assert together.trims > 0

        assert result_digest(plain) == result_digest(
            replace(both, events_executed=both.events_executed - ticks)
        )
        assert result_digest(both) == result_digest(recorded)

    def test_options_path_sanitizes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_incast(_scenario(), options=RunOptions(sanitize=True))
        assert result.conservation is not None

    def test_removed_sanitize_kwarg_raises(self):
        with pytest.raises(TypeError, match="sanitize"):
            run_incast(_scenario(), sanitize=True)

    def test_removed_kwarg_raises_even_with_explicit_options(self):
        with pytest.raises(TypeError, match="sanitize"):
            run_incast(
                _scenario(), options=RunOptions(telemetry=True), sanitize=True
            )

    def test_probe_option_reaches_the_simulator(self):
        from repro.faults.plan import blackhole_plan
        from repro.units import milliseconds

        class Blackholes(Probe):
            __slots__ = ("ports",)

            def __init__(self):
                self.ports = set()

            def on_blackhole(self, port, packet):
                self.ports.add(port.name)

        probe = Blackholes()
        scenario = _scenario(faults=blackhole_plan(
            at_ps=0, duration_ps=milliseconds(5), drop_fraction=0.5,
            target="backbone",
        ))
        run_incast(scenario, options=RunOptions(probe=probe))
        assert probe.ports


class TestEngineOptions:
    def test_engine_threads_options_through(self):
        engine = ExperimentEngine(
            workers=1, options=RunOptions(telemetry=True)
        )
        [result] = engine.run_incasts([_scenario()])
        assert result.telemetry is not None

    def test_removed_engine_sanitize_kwarg_raises(self):
        with pytest.raises(TypeError, match="sanitize"):
            ExperimentEngine(workers=1, sanitize=True)
        engine = ExperimentEngine(workers=1, options=RunOptions(sanitize=True))
        assert engine.options.sanitize is True
        assert not hasattr(engine, "sanitize")

    def test_telemetry_options_bypass_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenario = _scenario()
        ExperimentEngine(workers=1, cache=cache).run_incasts([scenario])
        engine = ExperimentEngine(
            workers=1, cache=cache, options=RunOptions(telemetry=True)
        )
        [result] = engine.run_incasts([scenario])
        assert not result.from_cache
        assert result.telemetry is not None
        assert engine.stats.cache_hits == 0


class TestSharedCli:
    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.__main__ import main

        main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_common_parser_accepts_the_shared_flags(self):
        import argparse

        from repro.__main__ import common_parser, options_from_args

        parser = argparse.ArgumentParser(parents=[common_parser()])
        args = parser.parse_args(
            ["--workers", "2", "--no-cache", "--sanitize", "--seed", "7",
             "--telemetry", "--sample-interval", "2.5"]
        )
        assert (args.workers, args.no_cache, args.seed) == (2, True, 7)
        options = options_from_args(args)
        assert options.sanitize and options.telemetry
        assert options.sample_interval_ps == 2_500_000

    def test_check_common_args_rejects_bad_values(self, capsys):
        import argparse

        from repro.__main__ import check_common_args, common_parser

        parser = argparse.ArgumentParser(parents=[common_parser()])
        for flags in (["--workers", "-1"], ["--run-timeout", "0"],
                      ["--sample-interval", "0"]):
            with pytest.raises(SystemExit):
                check_common_args(parser, parser.parse_args(flags))
        capsys.readouterr()

    @pytest.mark.parametrize("module", [
        "repro.experiments.figures", "repro.experiments.faultsweep",
    ])
    def test_sweep_clis_expose_the_shared_flags(self, module, capsys):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for flag in ("--workers", "--no-cache", "--cache-dir", "--sanitize",
                     "--seed", "--telemetry", "--telemetry-dir",
                     "--sample-interval"):
            assert flag in text, flag
