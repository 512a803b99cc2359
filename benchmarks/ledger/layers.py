"""Layer names, the path -> layer classifier, and every metric's name and unit.

The layers are the packages of ``src/repro``.  Packages too small to earn a
row of their own are folded into the layer they serve; top-level modules
(``config``, ``units``, ``errors``…) ride with ``schemes``, the other piece
of import-time glue.  Everything outside ``repro`` — the standard library,
builtins, and the harness itself — is ``other``.
"""

from __future__ import annotations

import re

#: The ledger's layers, in report order.
LAYERS = (
    "sim", "net", "transport", "proxy", "schemes", "topology", "metrics",
    "workloads", "experiments", "control", "faults", "telemetry",
    "competitors", "detection", "other",
)

#: Packages of src/repro that are not a layer by name -> the layer they serve.
FOLDED_PACKAGES = {
    "abstraction": "workloads",   # app graphs describe workloads
    "hoststack": "proxy",         # host-stack delay models of the proxy
    "orchestration": "control",   # proxy selection and admission
    "patterns": "detection",      # incast pattern detection and prediction
    "analysis": "telemetry",      # sanitizer / race detector observers
}

#: Hot modules reported individually, as ``mod.<name>.self_share``.
HOT_MODULES = (
    "sim.scheduler", "sim.simulator", "sim.timers",
    "net.port", "net.queues", "net.routing", "net.network", "net.node",
    "net.pool", "transport.sender", "transport.receiver", "proxy.streamlined",
)

#: Stdlib pieces of ``other`` listed separately in the trace file.
OTHER_GROUPS = ("heapq", "pickle", "sqlite3", "hashlib", "json", "dict.get")

# Greedy prefix: the *last* ``repro`` directory of the path is the package,
# so a checkout that itself lives under a directory called repro still works.
_REPRO_PATH = re.compile(r".*[/\\]repro[/\\](.+)\.py$")


def module_of(path: str) -> str | None:
    """``sim.scheduler`` for ``…/repro/sim/scheduler.py``; None outside repro."""
    match = _REPRO_PATH.match(path)
    if match is None:
        return None
    return match.group(1).replace("\\", "/").replace("/", ".")


def classify(path: str) -> str:
    """The layer a profiled function's file belongs to."""
    module = module_of(path)
    if module is None:
        return "other"
    package, dot, _rest = module.partition(".")
    if not dot:  # top-level module: schemes.py, config.py, units.py …
        return "schemes"
    package = FOLDED_PACKAGES.get(package, package)
    return package if package in LAYERS else "other"


def other_group(path: str, name: str) -> str | None:
    """Which separately-listed stdlib group a non-repro function is in."""
    if path == "~":  # builtins: "<built-in method _heapq.heappush>" …
        if "dict' objects" in name and "'get'" in name:
            return "dict.get"
        for group in OTHER_GROUPS[:-1]:
            if group in name:
                return group
        return None
    for group in OTHER_GROUPS[:-1]:
        if re.search(rf"[/\\]{group}([/\\]|\.py$)", path):
            return group
    return None


#: The end-to-end metrics: (name, unit, better, bound).  A bound is the
#: share of the parent's median by which the metric may worsen before a
#: change counts as a regression.  One bound serves all workloads.  The
#: issue asked for 8 % on the two timings and allowed at most 10 %: they are
#: at 10 % because ``incast-d256`` read 5-6 % high for a quarter of an hour
#: when the box ran at 0.6-0.75 of its quiet speed (NOISE.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.10),
    ("unit_s", "s", "lower", 0.10),
    ("pkts_per_s", "pkt/s", "higher", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_share", "ratio", "lower"))
        out.append((f"{layer}.calls_per_kpkt", "count", "lower"))
    for module in HOT_MODULES:
        out.append((f"mod.{module}.self_share", "ratio", "lower"))
    out += [
        # exact simulated counts from the results
        ("sim.events_per_pkt", "count", "lower"),
        ("net.drops_per_kpkt", "count", "lower"),
        ("net.trims_per_kpkt", "count", "lower"),
        ("net.marks_per_kpkt", "count", "lower"),
        ("transport.retx_per_kpkt", "count", "lower"),
        ("transport.timeouts", "count", "lower"),
        ("net.max_queue_mb", "MB", "lower"),
        # boundary timings of public functions, calibrated
        ("topology.build_ms.small", "ms", "lower"),
        ("topology.build_ms.paper", "ms", "lower"),
        ("topology.build_ms.d256", "ms", "lower"),
        ("schemes.wire_ms.d256", "ms", "lower"),
        ("sim.sched_ns_per_event", "ns", "lower"),
        ("sim.ckpt_save_ms", "ms", "lower"),
        ("sim.ckpt_load_ms", "ms", "lower"),
        ("sim.ckpt_kb", "kB", "lower"),
        ("metrics.sink_add_ns.exact", "ns", "lower"),
        ("metrics.sink_add_ns.sketch", "ns", "lower"),
        ("experiments.key_us", "us", "lower"),
        ("experiments.doc_roundtrip_us", "us", "lower"),
        ("experiments.expand_us_per_cell", "us", "lower"),
        ("experiments.cache_put_us", "us", "lower"),
        ("experiments.cache_get_us", "us", "lower"),
        ("experiments.result_pickle_kb", "kB", "lower"),
        ("experiments.journal_cell_us", "us", "lower"),
        # one unit of the sweep engines' probe, from its spans
        ("experiments.serial_cells_per_s", "1/s", "higher"),
        ("experiments.pool_cold_cells_per_s", "1/s", "higher"),
        ("experiments.pool_warm_cells_per_s", "1/s", "higher"),
        ("experiments.queue_cold_cells_per_s", "1/s", "higher"),
        ("experiments.queue_warm_cells_per_s", "1/s", "higher"),
        ("experiments.pool_efficiency", "ratio", "higher"),
        # one openloop unit
        ("workloads.jobs_per_s", "1/s", "higher"),
        ("workloads.sim_s_per_host_s", "ratio", "higher"),
        ("workloads.rss_growth_ratio", "ratio", "lower"),
        # run hygiene
        ("run.units", "count", "higher"),
        ("run.discarded_units", "count", "lower"),
        ("run.kernel_ms", "ms", "lower"),
        ("run.speed", "ratio", "higher"),
        ("run.raw_unit_s", "s", "lower"),
        ("run.unit_iqr_rel", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out
