"""Deterministic fault injection for simulated runs.

Public surface:

* :mod:`repro.faults.plan` — the declarative :class:`FaultPlan` /
  :class:`FaultEvent` vocabulary and its JSON (de)serialization;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which compiles a
  plan onto the event scheduler against a built topology;
* :class:`FailoverConfig` — re-exported from :mod:`repro.control.pool`,
  whose :class:`~repro.control.pool.ProxyPoolManager` the
  ``proxy-failover`` scheme wires as a primary + hot-standby pair
  (detection, migration, degrade-to-direct, fail-back).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.control.pool": ["FailoverConfig"],
    "repro.faults.injector": ["FaultContext", "FaultInjector", "arm_faults"],
    "repro.faults.plan": [
        "BufferDegrade", "CrashRun", "EVENT_TYPES", "FaultEvent", "FaultPlan",
        "LinkDown", "LinkUp", "PacketBlackhole", "PacketCorrupt", "ProxyCrash",
        "ProxyRestart", "StallRun", "blackhole_plan", "link_flap_plan", "merge_plans",
        "proxy_crash_plan",
    ],
})

__all__ = [
    "EVENT_TYPES",
    "BufferDegrade",
    "CrashRun",
    "FailoverConfig",
    "FaultContext",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkDown",
    "LinkUp",
    "PacketBlackhole",
    "PacketCorrupt",
    "ProxyCrash",
    "ProxyRestart",
    "StallRun",
    "arm_faults",
    "blackhole_plan",
    "link_flap_plan",
    "merge_plans",
    "proxy_crash_plan",
]
