"""Discrete-event simulation kernel.

The kernel is deliberately small: a cancellable event scheduler driven by an
integer-picosecond clock, a restartable :class:`~repro.sim.timers.Timer`
built on top of it, seeded random-number management, and one optional
observer slot (:class:`~repro.sim.probe.Probe`).  Everything else in the
library (links, queues, transports, proxies) is expressed as callbacks
scheduled on a :class:`~repro.sim.simulator.Simulator`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.checkpoint import (
        CHECKPOINT_SCHEMA_VERSION,
        CheckpointError,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.sim.events import Event
    from repro.sim.probe import Probe
    from repro.sim.rng import RngRegistry, SimRandom, derive_stream
    from repro.sim.scheduler import EventScheduler
    from repro.sim.simulator import Simulator
    from repro.sim.timers import Timer

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.checkpoint": [
        "CHECKPOINT_SCHEMA_VERSION", "CheckpointError", "load_checkpoint",
        "save_checkpoint",
    ],
    "repro.sim.events": ["Event"],
    "repro.sim.probe": ["Probe"],
    "repro.sim.rng": ["RngRegistry", "SimRandom", "derive_stream"],
    "repro.sim.scheduler": ["EventScheduler"],
    "repro.sim.simulator": ["Simulator"],
    "repro.sim.timers": ["Timer"],
})

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "Event",
    "EventScheduler",
    "Probe",
    "RngRegistry",
    "SimRandom",
    "Simulator",
    "Timer",
    "derive_stream",
    "load_checkpoint",
    "save_checkpoint",
]
