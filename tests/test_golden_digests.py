"""Golden result digests: every registered scheme on one small incast.

Each value is :func:`repro.analysis.races.result_digest` of one run — ICT,
every flow's completion time, the event count, retransmissions, timeouts,
NACKs, marks, trims and drops — so any change to event order or to the
model moves it.  The scenario (degree 6, 8 MB, the small test fabric,
seed 0) is small enough to run in about two seconds for all eight schemes
and large enough to exercise marks, trims, NACKs, drops and RTO timers.

The harnesses that wire flows themselves are pinned the same way: the
concurrent-incast orchestrator (:func:`run_concurrent_incasts`, one
scheme/strategy pair per row), the open-loop engine (its fold digest over a
one-second horizon), and the convergence probe (the receiver goodput series
and every field derived from it).  Proxy placement is pinned by host name:
the primary and hot-standby proxies each built-in proxy scheme wires, and
the relays the cascade experiment's ``edge`` and ``cascade`` schemes put in
each datacenter.

A change that is meant to be behaviour-neutral (a faster scheduler, a
refactor) must leave every value here as it is.  A deliberate model change
updates the values in the same commit and says why.
"""

import hashlib
from dataclasses import astuple, replace

import pytest

import repro.experiments.cascade as cascade_experiment
from repro.analysis.races import result_digest
from repro.competitors import install, uninstall
from repro.config import (
    TransportConfig,
    paper_interdc_config,
    small_interdc_config,
)
from repro.errors import TopologyError
from repro.experiments.cascade import CascadeScenario, run_cascade
from repro.experiments.convergence import measure_convergence
from repro.experiments.runner import IncastScenario, run_incast
from repro.metrics.config import MODE_SKETCH, MetricsConfig
from repro.orchestration.run import run_concurrent_incasts
from repro.proxy.placement import pick_senders
from repro.schemes import SCHEME_REGISTRY, SchemeContext
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import kilobytes, megabytes, milliseconds, seconds
from repro.workloads.engine import DiurnalCurve, OpenLoopEngine, WorkloadEngineConfig
from repro.workloads.incast import uniform_incast
from repro.workloads.sizes import HeavyTailConfig

GOLDEN = {
    "baseline": "b7bff36631fa258ecbc889b5129b98051c01b74146b9fb036dfd0781f375dcb8",
    "naive": "779d6a4234482e919f73ca2ae419a5391c9900ef7e0007fc8768ad44fce873e9",
    "streamlined": "9ebe346c0dbc54d95547e1755327a56b14b57bb47023270c4c8637e76e551190",
    "trimless": "060b7c51a3bfd69f74d99a0eaca4389aa8985cc505e7f6668b4abba6eaa07dbe",
    "proxy-failover": "94bcb3d055cec1f1f42e3c60a76492e71e158af3fc2beb9ec1644cfb97cc7598",
    "repflow": "d93d15a31ae1412579f965b5b52db175987384380f1ddbc713c1754716f1ee24",
    "pulser": "40106890b6567eabc16660ed6ed9578ab0196226995831802ab1307483c5acd8",
    "pulser-dist": "40106890b6567eabc16660ed6ed9578ab0196226995831802ab1307483c5acd8",
}

SCENARIO = IncastScenario(
    degree=6,
    total_bytes=megabytes(8),
    interdc=small_interdc_config(),
    transport=TransportConfig(payload_bytes=4096),
    seed=0,
)


@pytest.fixture
def competitors():
    """Install the competitor schemes, and always tear them down again."""
    install()
    try:
        yield
    finally:
        uninstall()


def test_every_registered_scheme_is_pinned(competitors):
    assert set(SCHEME_REGISTRY.names()) == set(GOLDEN)


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_result_digest_is_unchanged(competitors, scheme):
    result = run_incast(replace(SCENARIO, scheme=scheme))
    assert result.completed
    assert result_digest(result) == GOLDEN[scheme]


def _fingerprint(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


CONCURRENT = {
    ("baseline", "none"): "661216645ed09741c6e4545dbdaa821b878212874824c65a451835c5497554ab",
    ("naive", "central"): "f0893a14ce7120bc9a883b961c966ffe9261992f10d79e19b65543f3bdbc583f",
    ("streamlined", "shared"): "93a80644dc8d6d3dee7bd8b145b1657ace129a3394f81f40b20a2169c0564fa6",
    ("trimless", "round-robin"): "d2c9cb1e016ddc0a85ba29d20bee1640c648c6598f046902a74f017bfc49cfb3",
    ("naive", "decentralized"): "19fa72bcf2a3002842e84e3b21dc2e361e319288c32323f2caf7adbae5a42e93",
}


#: 8 MB per job overflows the small fabric's leaf buffers: baseline drops
#: and times out, streamlined trims, trimless's detector fires.
CONCURRENT_JOBS = tuple(
    uniform_incast(f"j{i}", degree=2, total_bytes=kilobytes(8_000),
                   receiver_index=i, sender_offset=i * 2)
    for i in range(2)
)


@pytest.mark.parametrize("scheme,strategy", sorted(CONCURRENT))
def test_concurrent_incasts_are_unchanged(scheme, strategy):
    result = run_concurrent_incasts(
        list(CONCURRENT_JOBS), scheme=scheme, strategy=strategy,
        interdc=small_interdc_config(), transport=SCENARIO.transport,
    )
    assert result.completed
    assert concurrent_fingerprint(result) == CONCURRENT[(scheme, strategy)]


def concurrent_fingerprint(result) -> str:
    """What a :data:`CONCURRENT` pin hashes of one run."""
    return _fingerprint((
        result.strategy,
        result.scheme,
        sorted(result.ict_ps.items()),
        result.makespan_ps,
        result.probes,
        result.fallbacks,
        sorted(result.proxy_assignments.items()),
        sorted(result.per_proxy_peak_load.items()),
        astuple(result.counters),
    ))


OPEN_LOOP = {
    "streamlined": "d2b276c4b347d47ba2fe0561d9c82d402f0b14e7e13c55ade5caea0a640d4e58",
    "naive": "cf508f967190a77d584ff7cd681002b4195fd7a72f03be3e55dcab89db606aba",
    "baseline": "b014474adace12260f386fbcd7451d8d8299be913d410f1eeb6d98fcc427f26b",
}


@pytest.mark.parametrize("scheme", sorted(OPEN_LOOP))
def test_open_loop_digest_is_unchanged(scheme):
    result = OpenLoopEngine(WorkloadEngineConfig(
        scheme=scheme,
        horizon_ps=seconds(1),
        segment_ps=milliseconds(500),
        peak_arrivals_per_s=40.0,
        sizes=HeavyTailConfig(minimum_bytes=64_000, maximum_bytes=2_000_000,
                              alpha=1.3),
        diurnal=DiurnalCurve(period_ps=seconds(2), trough=0.5),
        metrics=MetricsConfig(mode=MODE_SKETCH),
        seed=3,
    )).run()
    assert result.jobs_completed == result.jobs_launched > 0
    assert result.digest == OPEN_LOOP[scheme]


CONVERGENCE = {
    "baseline": "4c253c057d248872dfb3feb35f659708bed11458710f19a69081d63c1735dfa3",
    "naive": "00fd093e60d1efa0570c79f96251ae27ddea3dc184ecdac918dc4dea5b819fe9",
    "streamlined": "267555ab9c6478e7780464c788aea6edc88a165ac6b7e93f319ae20ea00b34e3",
    "trimless": "5ef5104b06650226ba16497a8aec3b9041510b3485b27cbff0c2b8800ed304ab",
}


@pytest.mark.parametrize("scheme", sorted(CONVERGENCE))
def test_convergence_series_is_unchanged(scheme):
    result = measure_convergence(replace(
        SCENARIO, scheme=scheme, degree=4, total_bytes=megabytes(8)
    ))
    assert result.completed
    assert _fingerprint((
        result.goodput.times,
        result.goodput.values,
        result.bottleneck_bps,
        result.ict_ps,
        result.convergence_time_ps,
        result.underutilized_ps,
        result.mean_utilization,
    )) == CONVERGENCE[scheme]


FABRICS = {"small": small_interdc_config, "paper": paper_interdc_config}

#: (fabric, degree) -> (primary, hot standby).  Every proxy scheme puts its
#: primary on the same host; ``proxy-failover`` adds the standby.  The small
#: fabric has 8 servers per datacenter, so degree 8 leaves no proxy host.
PROXY_HOSTS = {
    ("small", 1): ("dc0-h1.3", "dc0-h1.2"),
    ("small", 2): ("dc0-h1.3", "dc0-h0.3"),
    ("small", 4): ("dc0-h1.3", "dc0-h0.3"),
    ("paper", 1): ("dc0-h7.7", "dc0-h6.7"),
    ("paper", 8): ("dc0-h7.7", "dc0-h6.7"),
    ("paper", 16): ("dc0-h7.7", "dc0-h6.7"),
    ("paper", 32): ("dc0-h7.7", "dc0-h6.7"),
    ("paper", 62): ("dc0-h7.7", "dc0-h6.7"),
}

#: (fabric, degree) -> the cascade's relay per datacenter on a 3-DC line of
#: that fabric; ``edge`` uses the first one alone.
RELAY_HOSTS = {
    ("small", 1): ("dc0-h1.3", "dc1-h1.3"),
    ("small", 2): ("dc0-h1.3", "dc1-h1.3"),
    ("small", 4): ("dc0-h1.3", "dc1-h1.3"),
    ("paper", 1): ("dc0-h7.7", "dc1-h7.7"),
    ("paper", 8): ("dc0-h7.7", "dc1-h7.7"),
    ("paper", 16): ("dc0-h7.7", "dc1-h7.7"),
    ("paper", 32): ("dc0-h7.7", "dc1-h7.7"),
    ("paper", 62): ("dc0-h7.7", "dc1-h7.7"),
}


def _wired_proxy_hosts(scheme: str, fabric: str, degree: int) -> tuple[str, ...]:
    """Wire (without running) one incast and name its proxy hosts."""
    spec = SCHEME_REGISTRY.get(scheme)
    interdc = FABRICS[fabric]()
    sim = Simulator(seed=0)
    topo = build_interdc(sim, interdc.with_trimming(spec.trimming))
    wiring = spec.wire(SchemeContext(
        sim=sim,
        net=topo.net,
        fabrics=topo.fabrics,
        scenario=IncastScenario(scheme=scheme, degree=degree, interdc=interdc),
        receiver=topo.fabrics[1].hosts[0],
        senders=pick_senders(topo.fabrics[0], degree),
        sizes=[100_000] * degree,
        make_on_done=lambda i: lambda _receiver: None,
        make_on_fail=lambda i: lambda _sender: None,
    ))
    return tuple(
        wiring.proxy_hosts[role].name
        for role in ("primary", "backup") if role in wiring.proxy_hosts
    )


@pytest.mark.parametrize("fabric,degree", sorted(PROXY_HOSTS))
def test_proxy_placement_is_unchanged(fabric, degree):
    primary, backup = PROXY_HOSTS[(fabric, degree)]
    for scheme in ("naive", "streamlined", "trimless"):
        assert _wired_proxy_hosts(scheme, fabric, degree) == (primary,), scheme
    assert _wired_proxy_hosts("proxy-failover", fabric, degree) == (primary, backup)


def test_a_full_sending_datacenter_has_no_proxy_host():
    with pytest.raises(TopologyError):
        _wired_proxy_hosts("naive", "small", 8)


@pytest.mark.parametrize("fabric,degree", sorted(RELAY_HOSTS))
def test_relay_placement_is_unchanged(monkeypatch, fabric, degree):
    seen: dict[str, set[tuple[str, ...]]] = {}
    real = cascade_experiment.build_relay_chain

    def spy(net, src, dst, total_bytes, cfg, relay_hosts, **kwargs):
        seen.setdefault(scheme, set()).add(tuple(h.name for h in relay_hosts))
        return real(net, src, dst, total_bytes, cfg, relay_hosts, **kwargs)

    monkeypatch.setattr(cascade_experiment, "build_relay_chain", spy)
    chain = replace(CascadeScenario().chain, fabric=FABRICS[fabric]().fabric)
    for scheme in ("edge", "cascade"):
        run_cascade(CascadeScenario(
            scheme=scheme, degree=degree, chain=chain, horizon_ps=1
        ))
    relays = RELAY_HOSTS[(fabric, degree)]
    assert seen == {"edge": {relays[:1]}, "cascade": {relays}}
