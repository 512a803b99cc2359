"""Alternative proxy hook points (paper §5, Future Work #2).

The paper's prototype hooks at TC and notes "moving to the eXpress Data
Path (XDP) hook can further reduce kernel overhead" and that "the proxy
program has the potential of being offloaded to the NIC directly".  These
pipelines model the three deployment targets so their end-to-end effect is
comparable — as distributions here, and inside the simulator as the
``tc``, ``xdp`` and ``offload`` entries of
:data:`repro.hoststack.measurement.PIPELINES`:

* **TC** — the prototype's placement: driver/softirq work happens before
  the program runs;
* **XDP** — the program runs in the driver, before skb allocation: the
  softirq/skb stages disappear, leaving NIC + a slightly costlier program
  environment;
* **NIC offload** — the program runs on the SmartNIC datapath: no host
  kernel at all, sub-microsecond and tight-tailed, bounded below by the
  NIC pipeline latency.
"""

from __future__ import annotations

from repro.hoststack import components as c
from repro.hoststack.components import Stage
from repro.hoststack.distributions import Lognormal
from repro.hoststack.pipeline import LatencyPipeline
from repro.units import nanoseconds


def _xdp_program() -> Stage:
    """The forwarding program under XDP: same logic, driver context."""
    return Stage("xdp_program", Lognormal(nanoseconds(480), nanoseconds(2300)))


def _nic_pipeline_stage() -> Stage:
    """SmartNIC match-action datapath traversal (no host involvement)."""
    return Stage("nic_datapath", Lognormal(nanoseconds(250), nanoseconds(900)))


def tc_proxy_pipeline() -> LatencyPipeline:
    """The paper's prototype: NIC -> driver/softirq -> TC hook -> program."""
    return LatencyPipeline(
        "proxy_hook_tc",
        [c.nic_rx(), c.driver_softirq(), c.tc_hook_dispatch(), c.ebpf_forward_program()],
    )


def xdp_proxy_pipeline() -> LatencyPipeline:
    """FW#2: hook at XDP — driver/softirq and skb costs vanish."""
    return LatencyPipeline("proxy_hook_xdp", [c.nic_rx(), _xdp_program()])


def nic_offload_pipeline() -> LatencyPipeline:
    """FW#2: the program offloaded onto the NIC datapath."""
    return LatencyPipeline("proxy_hook_offload", [_nic_pipeline_stage()])
