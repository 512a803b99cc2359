"""The concrete recorder: sampled time-series plus a run profiler.

:class:`TelemetryRecorder` is a :class:`~repro.sim.probe.Probe`.
Components register at build time; when the runner calls
:meth:`begin_run` the recorder wires a
:class:`~repro.metrics.timeseries.Sampler` onto the simulator with one
probe per registered entity (queue bytes per port, cwnd/inflight per
sender, backlog per proxy) plus network-wide aggregates, all sampled on a
fixed simulated-time cadence.

Memory is bounded twice over: the sampler stops after ``max_samples``
ticks, and at most ``max_series`` probes are registered (surplus entities
are counted in ``series_dropped``, never silently ignored).

The sampler's probe functions are **read-only**: they touch no
component state and draw no randomness, so a recorded run produces
bit-identical simulation results to an unrecorded one — only
``events_executed`` (sampler ticks) and wall-clock fields differ, and
neither feeds the sweep digest.

The profiler side accumulates wall-clock per phase (build/run/collect),
per-handler event time keyed by callback qualname, and the process's heap
high-water mark; :meth:`end_run` folds everything into a picklable
:class:`TelemetrySnapshot` (:attr:`TelemetryRecorder.snapshot`) that the
runner attaches to ``IncastResult.telemetry``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.metrics.config import DEFAULT_METRICS, MetricsConfig
from repro.metrics.timeseries import Sampler, TimeSeries
from repro.sim.probe import Probe
from repro.telemetry.options import DEFAULT_MAX_SAMPLES, DEFAULT_SAMPLE_INTERVAL_PS

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

#: Default cap on the number of registered probes.
DEFAULT_MAX_SERIES = 128

#: Per-handler attribution table cap; the long tail folds into "other".
_MAX_HANDLER_KEYS = 64


def _callback_name(callback: Callable[[], Any]) -> str:
    """Attribution key for an event callback: unwrap partials to qualnames."""
    fn: Any = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    name = getattr(fn, "__qualname__", None)
    if name is None:
        name = type(fn).__name__
    return name


@dataclass
class RunProfile:
    """Where one run's wall-clock and events went."""

    #: wall-clock split across the runner's phases (build/run/collect).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    events_executed: int = 0
    events_per_second: float = 0.0
    #: cumulative handler wall-clock keyed by callback qualname.
    handler_seconds: dict[str, float] = field(default_factory=dict)
    handler_events: dict[str, int] = field(default_factory=dict)
    #: process heap high-water mark (ru_maxrss, kilobytes on Linux);
    #: 0 when the platform lacks the resource module.
    peak_rss_kb: int = 0

    def hottest_handlers(self, count: int = 5) -> list[tuple[str, float]]:
        """Handlers that burned the most wall-clock, hottest first."""
        ranked = sorted(self.handler_seconds.items(), key=lambda kv: -kv[1])
        return ranked[:count]

    def as_dict(self) -> dict[str, Any]:
        """JSON-encodable view."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "wall_seconds": self.wall_seconds,
            "events_executed": self.events_executed,
            "events_per_second": self.events_per_second,
            "handler_seconds": dict(self.handler_seconds),
            "handler_events": dict(self.handler_events),
            "peak_rss_kb": self.peak_rss_kb,
        }


@dataclass
class TelemetrySnapshot:
    """Everything one instrumented run recorded (picklable, cache-safe)."""

    sample_interval_ps: int
    series: dict[str, TimeSeries]
    profile: RunProfile
    #: end-of-run scalar counters (fault events applied, probes dropped...).
    counters: dict[str, int] = field(default_factory=dict)

    def get(self, name: str) -> TimeSeries | None:
        """The named series, or None when it was not recorded."""
        return self.series.get(name)

    def as_dict(self) -> dict[str, Any]:
        """JSON-encodable view (times/values as parallel lists)."""
        return {
            "sample_interval_ps": self.sample_interval_ps,
            "series": {
                name: {
                    "interval_ps": s.interval_ps,
                    "times": list(s.times),
                    "values": list(s.values),
                }
                for name, s in self.series.items()
            },
            "profile": self.profile.as_dict(),
            "counters": dict(self.counters),
        }


class TelemetryRecorder(Probe):
    """Records sampled time-series and a wall-clock profile for one run.

    Intended lifetime is a single ``run_incast`` call: build components
    (they self-register), :meth:`begin_run`, simulate, :meth:`end_run`.
    """

    def __init__(
        self,
        sample_interval_ps: int = DEFAULT_SAMPLE_INTERVAL_PS,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        max_series: int = DEFAULT_MAX_SERIES,
        metrics: MetricsConfig = DEFAULT_METRICS,
    ) -> None:
        if sample_interval_ps <= 0:
            raise ConfigError("sample_interval_ps must be positive")
        if max_samples <= 0:
            raise ConfigError("max_samples must be positive")
        if max_series < 1:
            raise ConfigError("max_series must be at least 1")
        self.sample_interval_ps = sample_interval_ps
        self.max_samples = max_samples
        self.max_series = max_series
        self.metrics = metrics
        #: probes that did not fit under ``max_series``.
        self.series_dropped = 0
        self._ports: list[Any] = []
        self._senders: list[Any] = []
        self._proxies: list[Any] = []
        self._injector: Any | None = None
        self._sampler: Sampler | None = None
        self._sim: "Simulator | None" = None
        self._probe_names: set[str] = set()
        self._phase_name: str | None = None
        self._phase_start = 0.0
        self._phases: dict[str, float] = {}
        self._wall_start = time.perf_counter()
        self._handler_seconds: dict[str, float] = {}
        self._handler_events: dict[str, int] = {}
        #: the run's recording, set by :meth:`end_run`.
        self.snapshot: TelemetrySnapshot | None = None

    # -- registration -------------------------------------------------------

    def on_port(self, port: Any) -> None:
        """Remember a port for per-port queue-depth probes."""
        self._ports.append(port)

    def on_sender(self, sender: Any) -> None:
        """Remember a sender for cwnd/inflight probes."""
        self._senders.append(sender)

    def on_proxy(self, proxy: Any) -> None:
        """Remember a proxy for relay-occupancy probes."""
        self._proxies.append(proxy)

    def on_fault_injector(self, injector: Any) -> None:
        """Remember the armed fault injector for end-of-run counters."""
        self._injector = injector

    # -- lifecycle ----------------------------------------------------------

    def phase(self, name: str) -> None:
        """Close the current wall-clock phase and open ``name``."""
        now = time.perf_counter()
        if self._phase_name is not None:
            elapsed = now - self._phase_start
            self._phases[self._phase_name] = (
                self._phases.get(self._phase_name, 0.0) + elapsed
            )
        self._phase_name = name
        self._phase_start = now

    def begin_run(self, sim: "Simulator") -> None:
        """Attach the sampler to ``sim`` and register every probe."""
        self._sim = sim
        sampler = Sampler(
            sim,
            self.sample_interval_ps,
            max_samples=self.max_samples,
            config=self.metrics,
        )
        self._sampler = sampler
        ports = list(self._ports)
        senders = list(self._senders)

        # Aggregates first: they survive even when per-entity probes are
        # squeezed out by max_series on a large fabric.
        self._add_probe("scheduler.pending", sim.pending_events)
        self._add_probe(
            "net.queue_bytes", lambda: sum(p.backlog_bytes for p in ports)
        )
        self._add_probe(
            "net.ecn_marked", lambda: sum(p.queue.stats.marked for p in ports)
        )
        self._add_probe(
            "net.trims", lambda: sum(p.queue.stats.trimmed for p in ports)
        )
        self._add_probe(
            "net.drops", lambda: sum(p.queue.stats.dropped for p in ports)
        )
        self._add_probe(
            "senders.nacks", lambda: sum(s.stats.nacks_received for s in senders)
        )
        self._add_probe(
            "senders.retx", lambda: sum(s.stats.retransmissions for s in senders)
        )
        for proxy in self._proxies:
            label = getattr(proxy, "label", None) or f"proxy:{proxy.host.name}"
            self._add_probe(
                f"proxy.{label}.backlog_bytes",
                functools.partial(_proxy_backlog_bytes, proxy),
            )
            if hasattr(proxy, "flows") and isinstance(proxy.flows, list):
                # Naive split-connection proxy: buffered relay packets.
                self._add_probe(
                    f"proxy.{label}.relay_backlog",
                    functools.partial(_naive_relay_backlog, proxy),
                )
        for sender in senders:
            self._add_probe(
                f"sender.{sender.label}.cwnd", functools.partial(_sender_cwnd, sender)
            )
            self._add_probe(
                f"sender.{sender.label}.inflight",
                functools.partial(_sender_inflight, sender),
            )
        for port in ports:
            self._add_probe(
                f"port.{port.name}.queue_bytes",
                functools.partial(_port_backlog, port),
            )
        sampler.start()

    def on_event(self, callback: Callable[[], Any], seconds: float) -> None:
        """Charge ``seconds`` of handler time to ``callback``'s qualname."""
        key = _callback_name(callback)
        table = self._handler_seconds
        if key not in table and len(table) >= _MAX_HANDLER_KEYS:
            key = "other"
        table[key] = table.get(key, 0.0) + seconds
        self._handler_events[key] = self._handler_events.get(key, 0) + 1

    def end_run(self) -> None:
        """Stop sampling and fold everything into :attr:`snapshot`."""
        self.phase("finished")  # closes the open phase's accounting
        if self._sampler is not None:
            self._sampler.stop()
        wall = time.perf_counter() - self._wall_start
        events = self._sim.events_executed if self._sim is not None else 0
        run_wall = self._phases.get("run", wall)
        profile = RunProfile(
            phase_seconds={
                name: secs for name, secs in self._phases.items()
                if name != "finished"
            },
            wall_seconds=wall,
            events_executed=events,
            events_per_second=events / run_wall if run_wall > 0 else 0.0,
            handler_seconds=dict(self._handler_seconds),
            handler_events=dict(self._handler_events),
            peak_rss_kb=_peak_rss_kb(),
        )
        counters = {
            "ports_registered": len(self._ports),
            "senders_registered": len(self._senders),
            "proxies_registered": len(self._proxies),
            "series_recorded": len(self._sampler) if self._sampler else 0,
            "series_dropped": self.series_dropped,
            "fault_events_applied": getattr(self._injector, "applied", 0),
            "fault_events_skipped": getattr(self._injector, "skipped", 0),
        }
        self.snapshot = TelemetrySnapshot(
            sample_interval_ps=self.sample_interval_ps,
            series=self._sampler.snapshot() if self._sampler else {},
            profile=profile,
            counters=counters,
        )

    # -- internals ----------------------------------------------------------

    def _add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register one probe, uniquifying names and honoring ``max_series``."""
        assert self._sampler is not None
        if len(self._probe_names) >= self.max_series:
            self.series_dropped += 1
            return
        base, candidate, suffix = name, name, 2
        while candidate in self._probe_names:
            candidate = f"{base}#{suffix}"
            suffix += 1
        self._probe_names.add(candidate)
        self._sampler.probe(candidate, fn)


# Module-level probe bodies (picklable snapshots never hold them; they only
# live inside the sampler for the duration of one run).

def _port_backlog(port: Any) -> float:
    """Bytes queued behind one output port."""
    return float(port.backlog_bytes)


def _sender_cwnd(sender: Any) -> float:
    """One sender's congestion window, in packets."""
    return float(sender.cc.cwnd)


def _sender_inflight(sender: Any) -> float:
    """One sender's in-flight (pipe) packet count."""
    return float(sender.pipe)


def _proxy_backlog_bytes(proxy: Any) -> float:
    """Bytes queued behind the proxy host's NIC ports (relay occupancy)."""
    host = proxy.host
    return float(sum(port.backlog_bytes for port in host.ports.values()))


def _naive_relay_backlog(proxy: Any) -> float:
    """Packets the naive proxy has received but not yet re-sent."""
    return float(sum(f.backlog_packets(0) for f in proxy.flows))


def _peak_rss_kb() -> int:
    """Heap high-water mark via getrusage (0 where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
