"""Shared fixtures: simulators, tiny networks, fast transport configs."""

from __future__ import annotations

import ast
import os
import random
import sys
import threading
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from repro.config import (
    FabricConfig,
    InterDcConfig,
    MultiDcConfig,
    QueueSpec,
    TransportConfig,
    paper_interdc_config,
    small_interdc_config,
)
from repro.net.network import Network
from repro.net.node import Host
from repro.net.queues import HostQueue
from repro.net.routing import build_next_hop_tables
from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import gbps, kilobytes, megabytes, microseconds


@pytest.fixture()
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture()
def rng() -> random.Random:
    """A deterministic RNG for direct queue/distribution tests."""
    return random.Random(7)


@pytest.fixture()
def transport_cfg() -> TransportConfig:
    """A small-payload transport config for fast tests."""
    return TransportConfig(payload_bytes=1024)


@pytest.fixture()
def tiny_interdc() -> InterDcConfig:
    """The shrunken two-DC topology used across integration tests."""
    return small_interdc_config()


#: The fabrics route computation is checked on: the test fabric, the paper's,
#: the ledger's 272-server ``incast-d256`` fabric (32 leaves, 544 hosts) and
#: a three-datacenter line with unequal segment delays (``multidc``).
ROUTING_FABRICS = ("small", "paper", "d272", "multidc")


def d272_interdc_config() -> InterDcConfig:
    """The paper backbone over two 272-server fabrics (``incast-d256``'s)."""
    paper = paper_interdc_config()
    return replace(
        paper, fabric=replace(paper.fabric, spines=8, leaves=16, servers_per_leaf=17)
    )


def build_fabric_net(name: str) -> Network:
    """A finalized network of one of :data:`ROUTING_FABRICS`."""
    cfg = {
        "small": small_interdc_config,
        "paper": paper_interdc_config,
        "d272": d272_interdc_config,
        "multidc": lambda: MultiDcConfig(fabric=small_interdc_config().fabric),
    }[name]()
    return build_interdc(Simulator(seed=1), cfg).net


def controller_tables(net: Network, weight, destination_ids=None):
    """The tables a :class:`~repro.control.Controller` install computes."""
    if destination_ids is None:
        destination_ids = [h.id for h in net.hosts]
    return build_next_hop_tables(
        net.adjacency, destination_ids,
        cost=partial(weight, net), down=net.down_links(),
    )


def build_pair(sim: Simulator, rate_bps: float = gbps(10), delay_ps: int = microseconds(1),
               queue_capacity: int = megabytes(1)) -> tuple[Network, Host, Host]:
    """Two hosts joined by one switch — the smallest routable network."""
    net = Network(sim)
    a = net.add_host("a")
    b = net.add_host("b")
    s = net.add_switch("s")
    switch_spec = QueueSpec(
        kind="ecn",
        capacity_bytes=queue_capacity,
        ecn_low_bytes=kilobytes(33.2),
        ecn_high_bytes=kilobytes(136.95),
    )
    host_spec = QueueSpec(kind="host", capacity_bytes=megabytes(100))
    for host in (a, b):
        net.connect(
            host, s, rate_bps, delay_ps,
            queue_ab=host_spec.build(partial(sim.rng.stream, f"q:{host.name}")),
            queue_ba=switch_spec.build(partial(sim.rng.stream, f"q:s->{host.name}")),
        )
    net.finalize()
    return net, a, b


def build_incast_star(
    sim: Simulator,
    senders: int,
    rate_bps: float = gbps(10),
    delay_ps: int = microseconds(1),
    bottleneck_capacity: int = kilobytes(300),
    trimming: bool = False,
) -> tuple[Network, list[Host], Host]:
    """N senders -> one switch -> one receiver, with a shallow bottleneck."""
    net = Network(sim)
    receiver = net.add_host("rx")
    s = net.add_switch("s")
    kind = "trimming" if trimming else "ecn"
    bottleneck = QueueSpec(
        kind=kind,
        capacity_bytes=bottleneck_capacity,
        ecn_low_bytes=kilobytes(33.2),
        ecn_high_bytes=min(kilobytes(136.95), bottleneck_capacity),
    )
    host_spec = QueueSpec(kind="host", capacity_bytes=megabytes(500))
    net.connect(
        receiver, s, rate_bps, delay_ps,
        queue_ab=host_spec.build(partial(sim.rng.stream, "q:rx")),
        queue_ba=bottleneck.build(partial(sim.rng.stream, "q:s->rx")),
    )
    hosts = []
    uplink = QueueSpec(
        kind=kind,
        capacity_bytes=megabytes(4),
        ecn_low_bytes=kilobytes(33.2),
        ecn_high_bytes=kilobytes(136.95),
    )
    for i in range(senders):
        h = net.add_host(f"tx{i}")
        hosts.append(h)
        net.connect(
            h, s, rate_bps, delay_ps,
            queue_ab=host_spec.build(partial(sim.rng.stream, f"q:tx{i}")),
            queue_ba=uplink.build(partial(sim.rng.stream, f"q:s->tx{i}")),
        )
    net.finalize()
    return net, hosts, receiver


# -- unreached-function recorder (opt-in) ------------------------------------
#
# ``REPRO_UNREACHED=out.txt pytest tests/`` profiles every call into
# ``src/repro`` and, when the session ends, writes to ``out.txt`` each function
# defined there that nothing called (``path:line name``).  Code run in child
# processes is not seen.  The hook slows the suite several-fold: off by default.

_UNREACHED_OUT = os.environ.get("REPRO_UNREACHED")
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_called: set[tuple[str, int]] = set()


def _record_call(frame, event, _arg):
    if event == "call":
        _called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def pytest_sessionstart(session):
    if _UNREACHED_OUT:
        sys.setprofile(_record_call)
        threading.setprofile(_record_call)


def pytest_sessionfinish(session, exitstatus):
    if not _UNREACHED_OUT:
        return
    sys.setprofile(None)
    unreached = []
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in _called:
                    unreached.append(f"{path.relative_to(_SRC.parent)}:{node.lineno} {node.name}")
    Path(_UNREACHED_OUT).write_text("\n".join(unreached) + "\n")
