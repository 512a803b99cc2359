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
    "baseline": "e413537b80bd062298935a4320bd628ac339fe7c1c5f3fffeac2f0e116ac3818",
    "naive": "dc777142d8e7fc386d73d0de74ce0d1c7a91a8715013e70d112e4b7b489d1a5a",
    "streamlined": "45c68a992f004c37ee8f409165937e936c0cf1522636fc0e757e18ac2983a153",
    "trimless": "d8a3c8d8f3377f28e24aa6686bd8fdc5b5f9a18ffdb026a35b6c4a91ed0a018c",
    "proxy-failover": "d512b5e544d54ddde583dec8ff70a7dfb699aef6e698d090a8d4a79076cf0d24",
    "repflow": "03056c6ca548b8e8a32f01d12f07890a1a808a86e552280d35fef41e0ecab6e9",
    "pulser": "1acf5bdc7d0131c13575e1d052035e10fb2a56805820dadfb181efee15fbadd8",
    "pulser-dist": "1acf5bdc7d0131c13575e1d052035e10fb2a56805820dadfb181efee15fbadd8",
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
    ("baseline", "none"): "d68c5c1a2a3765a65ccda4d8f31e97a4e0e7c67885ef5db77750d5f0f87adfa9",
    ("naive", "central"): "54aa99cc24ce50c1c0b7c9881291dce70faf5b22a5dccc4073086e0bab3ba909",
    ("streamlined", "shared"): "5f956a12c670902d3607a68cba8f9e11084dfd92a313a2183b61d910b5e11b4a",
    ("trimless", "round-robin"): "89da66b233b9b6568fcc1c8c0668580cbfc922459cf4b89311217e3eb0c3c51c",
    ("naive", "decentralized"): "c7d19ea9cd36bb0640b0a52a3249849e6a081144502af2880c97ba76e949bbf8",
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
    "streamlined": "946171c58263cb73a07d8a791eed0b5db6351700d5a246a19f84f4df904561d6",
    "naive": "d7f9494cde52521a65e8eeb216a1e83f4e9aebf096cd2a307b2007138c42bf2e",
    "baseline": "d6a796751f757489ab091d0d3e68f75fce3e46639fbe057801f6fd1f5860c131",
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
    "baseline": "e4891240b818c2a2e5c25e4f052bb3e0ca36932588d2a4a70995900bdb99598f",
    "naive": "0fd8bb19627daec25dcf1db87bbb9f0764d1cbb6a186d602336863a21730c9ed",
    "streamlined": "9d34c3a5a3ada3fb51593a3f155e17ac9de7e04472f7cd78a9c732f0cee95386",
    "trimless": "7ad3e2edc64acde87417455b6715bcb0ad1019a3cca68f1ec22568f4fa6845c1",
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
