"""The simulator's probe slot: every hook fires, and its counts agree
with the data plane's own counters."""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.sim.simulator as simulator_module
from repro.config import TransportConfig, small_interdc_config
from repro.control.config import ControlConfig
from repro.experiments.runner import IncastScenario, RunOptions, run_incast
from repro.faults import (
    FailoverConfig,
    FaultPlan,
    LinkDown,
    LinkUp,
    PacketBlackhole,
    PacketCorrupt,
    ProxyCrash,
    ProxyRestart,
    blackhole_plan,
    proxy_crash_plan,
)
from repro.sim.probe import Probe
from repro.units import kilobytes, microseconds, milliseconds, seconds

#: Every build-time, per-event and data-path hook a probe can override.
HOOKS = sorted(name for name in vars(Probe) if name.startswith("on_"))


class CountingProbe(Probe):
    """Counts every hook call; tallies offers the way the queues do."""

    def __init__(self):
        self.calls = Counter()
        self.ports = set()
        self.drops = 0
        self.trims = 0

    def on_offer(self, port, packet, dropped, size_before):
        self.calls["on_offer"] += 1
        self.ports.add(port)
        self.drops += dropped
        self.trims += packet.size_bytes != size_before


def _counting(name):
    base = getattr(Probe, name)

    def hook(self, *args):
        self.calls[name] += 1
        return base(self, *args)

    return hook


for _name in HOOKS:
    if _name != "on_offer":
        setattr(CountingProbe, _name, _counting(_name))


def _scenario(scheme, **overrides):
    defaults = dict(
        scheme=scheme,
        degree=4,
        total_bytes=kilobytes(400),
        interdc=small_interdc_config(),
        transport=TransportConfig(max_consecutive_timeouts=8),
        horizon_ps=seconds(2),
    )
    defaults.update(overrides)
    return IncastScenario(**defaults)


#: The first flight crosses ``backbone:0`` from about 1 ms on; a link that
#: dies at 1.02 ms cuts a packet mid-serialization.
_LINK_DIES = microseconds(1020)

#: A link that goes down and comes back, blackhole and corruption windows,
#: and the proxy crashing and restarting, all in one run.
_FAULTS = FaultPlan((
    LinkDown(_LINK_DIES, link="backbone:0"),
    LinkUp(_LINK_DIES + microseconds(40), link="backbone:0"),
    PacketBlackhole(0, duration_ps=milliseconds(1), drop_fraction=0.05),
    PacketCorrupt(0, duration_ps=milliseconds(1), corrupt_fraction=0.05),
    ProxyCrash(microseconds(20)),
    ProxyRestart(microseconds(120)),
))

#: Switch buffers of 64 KB: an incast of six overflows them, so a
#: trimming fabric trims and a plain one drops.
_SHALLOW = small_interdc_config()
_SHALLOW = replace(_SHALLOW, fabric=replace(
    _SHALLOW.fabric, switch_queue=replace(
        _SHALLOW.fabric.switch_queue, capacity_bytes=kilobytes(64),
        ecn_low_bytes=kilobytes(8), ecn_high_bytes=kilobytes(32),
    ),
))

_FAST_POOL = FailoverConfig(
    probe_interval_ps=microseconds(50),
    detection_timeout_ps=microseconds(100),
    failback_stabilization_ps=microseconds(100),
)

SCENARIOS = {
    "faults": _scenario("streamlined", faults=_FAULTS),
    "failover": _scenario(
        "proxy-failover", failover=_FAST_POOL,
        faults=proxy_crash_plan(microseconds(10), restart_after_ps=microseconds(300)),
    ),
    "reroute": _scenario(
        "baseline", total_bytes=kilobytes(2000), control=ControlConfig(),
        faults=FaultPlan((LinkDown(_LINK_DIES, link="backbone:0"),)),
    ),
    "give-up": _scenario(
        "baseline", degree=2, total_bytes=kilobytes(100),
        transport=TransportConfig(max_consecutive_timeouts=4),
        faults=blackhole_plan(at_ps=0, duration_ps=seconds(2)),
    ),
    "drops": _scenario(
        "baseline", degree=6, total_bytes=kilobytes(600), interdc=_SHALLOW
    ),
    "trims": _scenario(
        "streamlined", degree=6, total_bytes=kilobytes(600), interdc=_SHALLOW
    ),
}


@pytest.fixture(scope="module")
def probes():
    """One counting probe per scenario, each after its run."""
    out = {}
    for name, scenario in SCENARIOS.items():
        probe = CountingProbe()
        run_incast(scenario, options=RunOptions(probe=probe))
        out[name] = probe
    return out


def test_every_hook_fires(probes):
    fired = sum((probe.calls for probe in probes.values()), Counter())
    assert [name for name in HOOKS if not fired[name]] == []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_drop_and_trim_counts_match_queue_counters(probes, name):
    probe = probes[name]
    dropped = sum(port.queue.stats.dropped for port in probe.ports)
    trimmed = sum(port.queue.stats.trimmed for port in probe.ports)
    assert (probe.drops, probe.trims) == (dropped, trimmed)


def test_trims_and_drops_are_both_exercised(probes):
    assert sum(probe.trims for probe in probes.values()) > 0
    assert sum(probe.drops for probe in probes.values()) > 0


def test_a_probe_does_not_move_the_run():
    scenario = SCENARIOS["faults"]
    plain = run_incast(scenario)
    probed = run_incast(scenario, options=RunOptions(probe=CountingProbe()))
    assert (probed.ict_ps, probed.retransmissions, probed.failed_flows) == (
        plain.ict_ps, plain.retransmissions, plain.failed_flows
    )


def test_only_a_probe_that_times_events_reads_the_clock(monkeypatch):
    reads = []
    clock = SimpleNamespace(perf_counter=lambda: reads.append(1) or 0.0)
    monkeypatch.setattr(simulator_module, "time", clock)
    scenario = _scenario("streamlined")
    for options in (RunOptions(), RunOptions(sanitize=True), RunOptions(probe=Probe())):
        run_incast(scenario, options)
        assert reads == [], options
    timed = run_incast(scenario, RunOptions(probe=CountingProbe()))
    assert len(reads) == 2 * timed.events_executed
