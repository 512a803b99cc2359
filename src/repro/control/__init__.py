"""Reactive control plane: route recomputation and proxy-pool failover.

The data plane (:mod:`repro.net`) forwards from statically installed
next-hop tables; this package adds the SDN-style controller that keeps
those tables — and the proxy placement — correct when the topology
misbehaves:

* :mod:`repro.control.weights` — pluggable link-weight models (``hop``,
  ``delay``, live ``queue``) for shortest-path recomputation;
* :mod:`repro.control.controller` — :class:`Controller`, which subscribes
  to link-state changes and fault events, recomputes equal-cost tables
  under the configured weight model after a control-loop delay, and
  reinstalls them through the routing-strategy hooks;
* :mod:`repro.control.pool` — :class:`ProxyPoolManager`, the
  heartbeat-probing proxy pool behind the ``proxy-failover`` scheme:
  queue-depth-aware migration, graceful degrade to direct forwarding,
  and fail-back on primary restart;
* :mod:`repro.control.config` — :class:`ControlConfig`, the scenario
  field that switches the controller on
  (``IncastScenario(control=ControlConfig(...))``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.config import ControlConfig
    from repro.control.controller import Controller
    from repro.control.pool import FailoverConfig, ProxyPoolManager
    from repro.control.weights import (
        WEIGHT_MODELS,
        delay_weight,
        hop_weight,
        queue_weight,
        resolve_weight_model,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.control.config": ["ControlConfig"],
    "repro.control.controller": ["Controller"],
    "repro.control.pool": ["FailoverConfig", "ProxyPoolManager"],
    "repro.control.weights": [
        "WEIGHT_MODELS", "delay_weight", "hop_weight", "queue_weight",
        "resolve_weight_model",
    ],
})

__all__ = [
    "WEIGHT_MODELS",
    "ControlConfig",
    "Controller",
    "FailoverConfig",
    "ProxyPoolManager",
    "delay_weight",
    "hop_weight",
    "queue_weight",
    "resolve_weight_model",
]
