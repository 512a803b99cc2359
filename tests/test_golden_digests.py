"""Golden result digests: every registered scheme on one small incast.

Each value is :func:`repro.analysis.races.result_digest` of one run — ICT,
every flow's completion time, the event count, retransmissions, timeouts,
NACKs, marks, trims and drops — so any change to event order or to the
model moves it.  The scenario (degree 6, 8 MB, the small test fabric,
seed 0) is small enough to run in about two seconds for all eight schemes
and large enough to exercise marks, trims, NACKs, drops and RTO timers.

A change that is meant to be behaviour-neutral (a faster scheduler, a
refactor) must leave every value here as it is.  A deliberate model change
updates the values in the same commit and says why.
"""

from dataclasses import replace

import pytest

from repro.analysis.races import result_digest
from repro.competitors import install, uninstall
from repro.config import TransportConfig, small_interdc_config
from repro.experiments.runner import IncastScenario, run_incast
from repro.schemes import SCHEME_REGISTRY
from repro.units import megabytes

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
