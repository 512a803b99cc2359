"""Control-plane configuration.

:class:`ControlConfig` is a frozen dataclass so it rides inside an
:class:`~repro.experiments.runner.IncastScenario` and hashes stably into
the sweep result cache, exactly like the fault and failover configs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import microseconds


@dataclass(frozen=True)
class ControlConfig:
    """Parameters of the reactive route controller.

    ``control_delay_ps`` models the control loop: the time between a
    topology event reaching the controller and the recomputed tables
    landing on the switches.  Events arriving while a recomputation is
    pending are coalesced into it.

    ``refresh_interval_ps > 0`` additionally recomputes on a fixed cadence
    — the natural companion of the live ``"queue"`` weight model, whose
    inputs change without any fault firing.  Zero (the default) disables
    periodic refresh; the controller then acts only on topology events.
    """

    weight_model: str = "hop"
    control_delay_ps: int = microseconds(50)
    refresh_interval_ps: int = 0

    def __post_init__(self) -> None:
        from repro.control.weights import WEIGHT_MODELS

        if self.weight_model not in WEIGHT_MODELS:
            raise ConfigError(
                f"unknown weight model {self.weight_model!r}; known: "
                f"{', '.join(WEIGHT_MODELS)}"
            )
        if self.control_delay_ps < 0:
            raise ConfigError(
                f"control_delay_ps must be >= 0, got {self.control_delay_ps}"
            )
        if self.refresh_interval_ps < 0:
            raise ConfigError(
                f"refresh_interval_ps must be >= 0, got {self.refresh_interval_ps}"
            )
