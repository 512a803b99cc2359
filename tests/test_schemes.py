"""SchemeRegistry dispatch, third-party registration and proxy overhead."""

import pickle
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
from repro.hoststack import PIPELINES
from repro.net.network import Network
from repro.sim.rng import derive_stream
from repro.sim.simulator import Simulator
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


class TestProxyOverhead:
    """``proxy_overhead`` names a host-stack pipeline the proxies charge."""

    def test_unknown_name_is_refused_when_the_scenario_is_built(self):
        with pytest.raises(ExperimentError, match="unknown proxy_overhead 'kernel'"):
            _scenario(scheme="streamlined", proxy_overhead="kernel")

    def test_naive_refuses_overhead(self):
        # The split-connection relay has no per-packet processing hook.
        with pytest.raises(ExperimentError, match="scheme 'naive' cannot charge"):
            _scenario(scheme="naive", proxy_overhead="userspace")

    def test_trimless_refuses_overhead(self):
        with pytest.raises(ExperimentError, match="scheme 'trimless' cannot charge"):
            _scenario(scheme="trimless", proxy_overhead="ebpf")

    def test_proxyless_schemes_refuse_overhead(self):
        with pytest.raises(ExperimentError, match="scheme 'baseline' cannot charge"):
            _scenario(scheme="baseline", proxy_overhead="ebpf")

        @register_scheme("test-direct", replace=True)
        def wire(ctx):
            return SchemeWiring()

        try:
            with pytest.raises(ExperimentError, match="scheme 'test-direct'"):
                _scenario(scheme="test-direct", proxy_overhead="tc")
        finally:
            SCHEME_REGISTRY.unregister("test-direct")

    def test_streamlined_schemes_charge_every_pipeline(self):
        assert [s.name for s in SCHEME_REGISTRY if s.charges_overhead] == [
            "streamlined", "proxy-failover",
        ]
        free = run_incast(_scenario(scheme="streamlined")).ict_ps
        for name in PIPELINES:
            slow = _scenario(scheme="streamlined", proxy_overhead=name)
            ict = run_incast(slow).ict_ps
            assert ict > free, name
            assert run_incast(slow).ict_ps == ict, name  # a pure function of the seed
        assert run_incast(
            _scenario(scheme="proxy-failover", proxy_overhead="userspace")
        ).completed

    def test_each_proxy_draws_from_its_own_substream(self):
        sim = Simulator(seed=7)
        net = Network(sim)
        make = SCHEME_REGISTRY.get("proxy-failover").make_proxy
        primary, backup = (
            make(sim, net, net.add_host(name), transport=TransportConfig(),
                 overhead="ebpf")
            for name in ("a", "b")
        )
        pipeline = PIPELINES["ebpf"]()
        expected = derive_stream(7, "proxy-overhead:a")
        assert [primary.processing_delay() for _ in range(5)] == [
            pipeline.sample(expected) for _ in range(5)
        ]
        # The sampler is plain data to pickle: a copy continues the sequence.
        clone = pickle.loads(pickle.dumps(backup.processing_delay))
        assert [clone() for _ in range(5)] == [
            backup.processing_delay() for _ in range(5)
        ]


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
