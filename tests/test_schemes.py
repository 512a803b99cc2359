"""SchemeRegistry dispatch and third-party registration."""

from dataclasses import replace

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.runner import (
    SCHEMES,
    IncastScenario,
    build_scenario,
    run_incast,
)
from repro.schemes import (
    SCHEME_REGISTRY,
    SchemeContext,
    SchemeWiring,
    register_scheme,
)
from repro.transport.connection import Connection
from repro.units import kilobytes


def _scenario(**overrides):
    base = IncastScenario(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )
    return replace(base, **overrides) if overrides else base


class TestRegistry:
    def test_builtins_registered_in_paper_order(self):
        assert SCHEME_REGISTRY.names() == (
            "baseline", "naive", "streamlined", "trimless", "proxy-failover"
        )
        assert SCHEMES == SCHEME_REGISTRY.names()
        assert SCHEME_REGISTRY.trimming_names() == (
            "streamlined", "proxy-failover"
        )

    def test_unknown_scheme_error_lists_registered_names(self):
        with pytest.raises(ExperimentError) as exc:
            SCHEME_REGISTRY.get("bogus")
        message = str(exc.value)
        for name in SCHEME_REGISTRY.names():
            assert name in message

    def test_scenario_validation_goes_through_the_registry(self):
        with pytest.raises(ExperimentError, match="registered schemes"):
            IncastScenario(scheme="bogus")

    def test_collision_requires_replace(self):
        spec = SCHEME_REGISTRY.get("baseline")
        with pytest.raises(ExperimentError, match="already registered"):
            SCHEME_REGISTRY.register(spec)
        SCHEME_REGISTRY.register(spec, replace=True)  # idempotent override

    def test_builtin_specs_carry_crash_semantics(self):
        for spec in SCHEME_REGISTRY:
            assert spec.crash_semantics
            assert spec.display_name


class TestThirdPartyScheme:
    def test_registered_scheme_runs_and_caches(self, tmp_path):
        @register_scheme("test-direct", display_name="Test Direct")
        def wire_test_direct(ctx: SchemeContext) -> SchemeWiring:
            wiring = SchemeWiring()
            for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
                conn = Connection(
                    ctx.net, host, ctx.receiver, size, ctx.scenario.transport,
                    on_receiver_complete=ctx.make_on_done(i),
                    on_sender_fail=ctx.make_on_fail(i),
                    label=f"td{i}",
                )
                wiring.senders.append(conn.sender)
                conn.start()
            return wiring

        try:
            scenario = build_scenario(
                "test-direct", degree=2, total_bytes=kilobytes(100),
                interdc=small_interdc_config(),
                transport=TransportConfig(payload_bytes=4096),
            )
            result = run_incast(scenario)
            assert result.completed
            # Identical wiring to baseline → identical simulation outcome.
            reference = run_incast(_scenario(scheme="baseline"))
            assert result.ict_ps == reference.ict_ps

            # The parallel engine's cache key hashes the scenario (scheme
            # string included), so a third-party scheme round-trips the
            # on-disk cache like any built-in.
            from repro.experiments.parallel import (
                ExperimentEngine, ResultCache, scenario_key,
            )
            assert scenario_key(scenario) != scenario_key(
                _scenario(scheme="baseline"))
            cache = ResultCache(tmp_path / "cache")
            engine = ExperimentEngine(workers=1, cache=cache)
            [cold] = engine.run_incasts([scenario])
            [warm] = engine.run_incasts([scenario])
            assert not cold.from_cache and warm.from_cache
            assert warm.ict_ps == cold.ict_ps
        finally:
            SCHEME_REGISTRY.unregister("test-direct")

    def test_unregistered_scheme_stops_validating(self):
        @register_scheme("test-ephemeral")
        def wire_ephemeral(ctx):
            return SchemeWiring()

        assert "test-ephemeral" in SCHEME_REGISTRY
        SCHEME_REGISTRY.unregister("test-ephemeral")
        with pytest.raises(ExperimentError):
            IncastScenario(scheme="test-ephemeral")


class TestDeprecationHelper:
    def test_removed_run_incast_kwarg_raises_every_time(self):
        scenario = _scenario()
        for _ in range(3):
            with pytest.raises(TypeError, match="sanitize"):
                run_incast(scenario, sanitize=False)


class TestBuildScenario:
    def test_defaults_to_baseline(self):
        assert build_scenario().scheme == "baseline"

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ExperimentError):
            build_scenario("bogus")

    def test_top_level_export(self):
        import repro

        assert repro.build_scenario is build_scenario
        assert repro.SCHEME_REGISTRY is SCHEME_REGISTRY
        assert repro.register_scheme is register_scheme
