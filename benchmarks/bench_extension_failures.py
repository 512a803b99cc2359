"""Extension bench: incast under transient backbone failures.

The paper motivates inter-DC placement partly by reliability; here we
flap one backbone link mid-incast and check each scheme still completes —
and that the proxy advantage survives the churn.
"""

import pytest

from repro.sim.simulator import Simulator
from repro.topology.interdc import build_interdc
from repro.units import microseconds, milliseconds

from benchmarks.conftest import run_once


@pytest.mark.parametrize("scheme", ["baseline", "naive", "streamlined"])
def test_scheme_with_backbone_blip(benchmark, reduced_scenario, scheme):
    """One scheme with a mid-transfer backbone link flap."""
    from repro.proxy.placement import pick_senders, place
    from repro.proxy.naive import NaiveProxy
    from repro.proxy.streamlined import StreamlinedProxy
    from repro.transport.connection import Connection

    def run():
        sim = Simulator(seed=0)
        trimming = scheme == "streamlined"
        topo = build_interdc(sim, reduced_scenario.interdc.with_trimming(trimming))
        net = topo.net
        receiver = topo.fabrics[1].hosts[0]
        senders = pick_senders(topo.fabrics[0], reduced_scenario.degree)
        sizes = [reduced_scenario.total_bytes // reduced_scenario.degree] * reduced_scenario.degree
        remaining = [len(sizes)]

        def done(_r):
            remaining[0] -= 1
            if remaining[0] == 0:
                sim.stop()

        if scheme == "baseline":
            open_flow = Connection
        else:
            proxy_class = NaiveProxy if scheme == "naive" else StreamlinedProxy
            open_flow = proxy_class(sim, place(topo.fabrics[0], senders)[0]).open
        for host, size in zip(senders, sizes):
            open_flow(net, host, receiver, size, reduced_scenario.transport,
                      on_receiver_complete=done).start()

        router = topo.backbone[0]
        spine_id = net.adjacency[router.id][0]
        net.fail_link(router.id, spine_id, at_ps=microseconds(500),
                      duration_ps=milliseconds(2))
        sim.run(until=reduced_scenario.horizon_ps)
        assert remaining[0] == 0, "incast must survive the blip"
        return sim.now

    ict = run_once(benchmark, run)
    benchmark.extra_info.update(
        extension="failures", scheme=scheme, ict_ms=ict / 1e9
    )
