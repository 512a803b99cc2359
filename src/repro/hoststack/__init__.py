"""Host-stack latency models — the substitute for the paper's §5 testbed.

The paper measures per-packet proxy processing overhead on two x86 servers
(kernel 6.11, ConnectX-5 NICs) with eBPF instrumentation and tcpdump.  We
model each pipeline as a composition of latency *stages* (NIC, driver, TC
hook, eBPF bytecode, qdisc, context switches, user-space processing, wire),
each a calibrated long-tailed distribution, and reproduce the paper's
anchor numbers:

* Figure 4 — user-space naive proxy: p99 per-packet latency 359.17 µs;
* Figure 5a — eBPF lower bound: median 0.42 µs, two per-flow-state paths;
* Figure 5b — wire-to-wire upper bound: median 325.92 µs.

The same pipelines plug into the simulator by name so "proxy overhead
defeats the proxy" is a runnable ablation, not just a claim:
``IncastScenario(proxy_overhead="userspace")`` names an entry of
:data:`PIPELINES` (``ebpf``, ``userspace``, ``tc``, ``xdp``, ``offload``),
and each proxy of the run charges one draw per packet from its own
``proxy-overhead:<host>`` substream of the run's seed.  A name is plain
data, so overhead scenarios hash, cache and cross process boundaries like
any other.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hoststack.components": ["Stage"],
    "repro.hoststack.deployments": [
        "nic_offload_pipeline", "tc_proxy_pipeline", "xdp_proxy_pipeline",
    ],
    "repro.hoststack.distributions": [
        "Constant", "LatencyDistribution", "Lognormal", "Mixture",
    ],
    "repro.hoststack.ebpf": [
        "ebpf_forward_path_pipeline", "ebpf_reverse_path_pipeline",
        "wire_to_wire_pipeline",
    ],
    "repro.hoststack.measurement": [
        "PIPELINES", "LatencyMeasurement", "measure_pipeline",
    ],
    "repro.hoststack.pipeline": ["LatencyPipeline"],
    "repro.hoststack.userspace": ["userspace_proxy_pipeline"],
})

__all__ = [
    "Constant",
    "LatencyDistribution",
    "LatencyMeasurement",
    "LatencyPipeline",
    "Lognormal",
    "Mixture",
    "PIPELINES",
    "Stage",
    "ebpf_forward_path_pipeline",
    "ebpf_reverse_path_pipeline",
    "measure_pipeline",
    "nic_offload_pipeline",
    "tc_proxy_pipeline",
    "userspace_proxy_pipeline",
    "wire_to_wire_pipeline",
    "xdp_proxy_pipeline",
]
