"""Exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine bugs (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class UnitError(ReproError, ValueError):
    """A quantity string or value could not be interpreted."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a finished simulator."""


class TopologyError(ReproError):
    """The topology under construction is malformed."""


class RoutingError(ReproError):
    """No route exists for a packet, or a routing table is inconsistent."""


class TransportError(ReproError):
    """A transport endpoint was driven into an invalid state."""


class ProxyError(ReproError):
    """A proxy scheme was configured or used incorrectly."""


class OrchestrationError(ReproError):
    """Proxy orchestration failed (no capacity, unknown incast, ...)."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class ExperimentError(ReproError):
    """An experiment sweep was configured inconsistently."""


class FaultError(ReproError):
    """A fault plan is malformed or names a target the run does not have."""


class InjectedFaultError(ReproError):
    """Raised by a ``CrashRun`` fault event: a deliberate in-run crash used
    to exercise the experiment engine's failure quarantine."""


class AnalysisError(ReproError):
    """Base class for the static/runtime analysis subsystem."""


class LintError(AnalysisError):
    """The linter was invoked on unreadable or unparseable input."""


class SanitizerError(AnalysisError):
    """A runtime simulation invariant was violated under ``--sanitize``."""
