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

from repro.control.pool import FailoverConfig
from repro.faults.injector import FaultContext, FaultInjector, arm_faults
from repro.faults.plan import (
    EVENT_TYPES,
    BufferDegrade,
    CrashRun,
    FaultEvent,
    FaultPlan,
    LinkDown,
    LinkUp,
    PacketBlackhole,
    PacketCorrupt,
    ProxyCrash,
    ProxyRestart,
    StallRun,
    blackhole_plan,
    link_flap_plan,
    merge_plans,
    proxy_crash_plan,
)

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
