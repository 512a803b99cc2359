"""The hop budget, in calls and events per packet hop (they repeat exactly;
seconds do not).

Most of a packet-level run is the per-packet path: a port serializes, the
packet lands, a switch forwards it, a sender or receiver answers.  Each
case runs one fixed cell under ``cProfile`` — the golden-digest cell
(degree 6, 8 MB in 4 KB payloads, the small test fabric, seed 0), which
marks, trims, drops and times out — and counts the calls into the code
objects of :mod:`repro.net`, :mod:`repro.sim` and :mod:`repro.transport`
per 1 000 port transmissions.  A change that puts a call back on the hop
shows here as a count over its budget.

The counts are summed per code object from ``Profile.getstats()``:
``pstats.Stats`` keys its table by ``(file, line, name)`` and keeps one
entry when two code objects share that label.  Only ``repro`` code is
counted, and comprehensions are skipped (CPython 3.12 inlines them into
their function), so the counts are the same on every supported Python.
A change that lowers a count lowers its budget in the same commit.
A second case counts scheduler events per port transmission on the same
cell: one event per hop holds it near one.
"""

from __future__ import annotations

import cProfile
import sys
from pathlib import Path

import pytest

import repro
from repro import build_scenario, run_incast, small_interdc_config
from repro.config import TransportConfig
from repro.units import megabytes

LAYERS = ("net", "sim", "transport")

#: scheme -> layer -> calls per 1 000 port transmissions, rounded up.  Before
#: arrivals forwarded through ``direct_ports`` from the port, idle ports
#: started inline and the sender computed only the timeouts it arms, they
#: were net 7 881 / 8 111 and transport 1 695 / 1 232 (sim unchanged).
#: With two events per hop (a serialization-end event, then the arrival)
#: they were net 6 875 / 7 221, sim 2 810 / 2 500 and transport 1 529 /
#: 1 009.  Transport code did not change with the fusion, but the cell's
#: same-tick order did, and with it which packets each sender retransmits:
#: baseline 1 528.5 -> 1 530.3 calls, streamlined 1 008.8 -> 992.9.
BUDGET = {
    "baseline": {"net": 5559, "sim": 1809, "transport": 1531},
    "streamlined": {"net": 5817, "sim": 1499, "transport": 993},
}

#: Scheduler events per port transmission: one event per hop (the
#: arrival), plus the transport's timers, less the hops a run stops before
#: they land.  Two-event hops read 2.001 (baseline) and 1.944 (streamlined).
EVENTS_PER_TRANSMISSION = 1.05

#: Code objects CPython 3.12 no longer calls (PEP 709).
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

_PACKAGE = Path(repro.__file__).resolve().parent


def _layer_of(code) -> str | None:
    """The layer of a profiled code object, or None outside the counted ones."""
    if isinstance(code, str) or code.co_name in _INLINED:
        return None  # a builtin, or a comprehension
    path = Path(code.co_filename).resolve()
    if path.parent.parent != _PACKAGE or path.parent.name not in LAYERS:
        return None
    return path.parent.name


def _cell(scheme: str):
    return build_scenario(
        scheme, degree=6, total_bytes=megabytes(8),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096), seed=0,
    )


def hop_calls(scheme: str) -> tuple[dict[str, int], int]:
    """Calls per layer and port transmissions of one run of the fixed cell."""
    scenario = _cell(scheme)
    previous = sys.getprofile()  # conftest's unreached-function recorder
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_incast(scenario)
    finally:
        profile.disable()
        sys.setprofile(previous)
    assert result.completed
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        layer = _layer_of(entry.code)
        if layer is not None:
            calls[layer] += entry.callcount
    return calls, result.counters.tx_packets


@pytest.mark.parametrize("scheme", sorted(BUDGET))
def test_hop_calls_stay_inside_their_budget(scheme):
    calls, transmissions = hop_calls(scheme)
    over = {
        layer: (round(calls[layer] * 1000 / transmissions, 1), budget)
        for layer, budget in BUDGET[scheme].items()
        if calls[layer] * 1000 > budget * transmissions
    }
    assert not over, f"{scheme}: calls per 1 000 transmissions over budget {over}"


@pytest.mark.parametrize("scheme", sorted(BUDGET))
def test_a_hop_is_one_event(scheme):
    result = run_incast(_cell(scheme))
    assert result.completed
    per_transmission = result.events_executed / result.counters.tx_packets
    assert per_transmission <= EVENTS_PER_TRANSMISSION, (
        f"{scheme}: {per_transmission:.3f} events per port transmission"
    )
