"""The scheme registry: every incast scheme as declarative data.

A :class:`SchemeSpec` captures everything a harness needs to know:

* ``trimming`` — whether the fabric is built with switch trimming enabled;
* ``make_proxy`` — the per-host proxy application factory (``None`` for
  schemes without a proxy);
* ``wire`` — the full incast wiring used by ``run_incast`` (flow creation,
  callbacks, hot-standby/failover plumbing);
* ``display_name`` / ``crash_semantics`` — for figures, docs, and the
  fault tooling.

How a flow crosses a proxy is the proxy's own business: every proxy class
has ``open(net, src, dst, total_bytes, cfg, ...)``, taking
:class:`~repro.transport.connection.Connection`'s arguments, and
``release(flow)``.  The Naive proxy splits the flow into two relayed
connections; the Streamlined family routes one end-to-end connection
through itself.  So the one harness that launches its own flows, the
open-loop :class:`~repro.workloads.engine.OpenLoopEngine` (which also
runs :func:`~repro.orchestration.run.run_concurrent_incasts`'s job
lists), opens either a direct ``Connection`` or ``proxy.open(...)`` and
never asks which proxy it has.

Third parties extend the simulator by registering their own spec::

    from repro.schemes import SCHEME_REGISTRY, SchemeWiring, register_scheme

    @register_scheme("myscheme", display_name="My Scheme", trimming=False)
    def wire_myscheme(ctx):
        wiring = SchemeWiring()
        ...  # build Connections against ctx.net / ctx.senders / ctx.receiver
        return wiring

After registration ``IncastScenario(scheme="myscheme")`` validates, runs
through :func:`~repro.experiments.runner.run_incast`, and participates in
the parallel engine's result cache like any built-in scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import ExperimentError
from repro.control.pool import ProxyPoolManager
from repro.proxy.naive import NaiveProxy
from repro.proxy.placement import place
from repro.proxy.streamlined import StreamlinedProxy
from repro.proxy.trimless import TrimlessStreamlinedProxy
from repro.transport.connection import Connection

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import TransportConfig
    from repro.detection.lossdetector import DetectorConfig
    from repro.net.network import Network
    from repro.net.node import Host
    from repro.sim.simulator import Simulator

#: ``make_proxy(sim, net, host, *, transport, detector, overhead=None,
#: label="")`` — every proxy flavour is built through this one signature so
#: harnesses stay scheme-agnostic.  ``overhead`` names a host-stack pipeline
#: (``IncastScenario.proxy_overhead``); only the streamlined factory charges
#: it, and the scenario refuses it for every other scheme.
ProxyFactory = Callable[..., Any]


@dataclass
class SchemeContext:
    """Everything :func:`SchemeSpec.wire` needs to wire one incast.

    ``scenario`` is the :class:`~repro.experiments.runner.IncastScenario`
    being run (typed loosely to keep this module import-light).
    ``make_on_done(i)`` / ``make_on_fail(i)`` build the per-flow completion
    and failure callbacks for flow index ``i``.
    """

    sim: "Simulator"
    net: "Network"
    fabrics: tuple[Any, Any]
    scenario: Any
    receiver: "Host"
    senders: list["Host"]
    sizes: list[int]
    make_on_done: Callable[[int], Callable[[Any], None]]
    make_on_fail: Callable[[int], Callable[[Any], None]]


@dataclass
class SchemeWiring:
    """What wiring an incast produced: the handles the runner reports on."""

    #: WindowedSender endpoints whose stats feed the result
    senders: list[Any] = field(default_factory=list)
    #: proxy applications by role ("primary", "backup")
    proxies: dict[str, Any] = field(default_factory=dict)
    #: hosts those proxies live on, by the same role keys
    proxy_hosts: dict[str, Any] = field(default_factory=dict)
    #: proxies whose ``stats.nacks_sent`` the result aggregates
    nack_proxies: list[Any] = field(default_factory=list)
    #: failover manager, when the scheme runs a hot standby
    manager: ProxyPoolManager | None = None


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme, fully described."""

    name: str
    display_name: str
    #: build the fabric with switch trimming enabled
    trimming: bool
    #: the crash-recovery contract, for docs and the fault tooling
    crash_semantics: str
    #: per-host proxy application factory; None for direct schemes
    make_proxy: ProxyFactory | None
    #: full incast wiring (flows, callbacks, failover) for run_incast
    wire: Callable[[SchemeContext], SchemeWiring]

    @property
    def charges_overhead(self) -> bool:
        """Whether this scheme's proxies charge ``IncastScenario.proxy_overhead``."""
        return self.make_proxy is _make_streamlined_proxy

    def fingerprint(self) -> str:
        """Content hash of the spec's behaviour, for result-cache keys.

        Covers the declarative fields plus the identity *and source* of the
        ``wire``/``make_proxy`` callables, so re-registering a different
        implementation under a previously used name changes every cache key
        that scheme produces.  Callables whose source is unavailable (C
        extensions, REPL definitions) degrade to their qualified name.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        import hashlib
        import inspect

        def describe(fn: Any) -> str:
            if fn is None:
                return "<none>"
            where = f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}"
            try:
                return f"{where}\n{inspect.getsource(fn)}"
            except (OSError, TypeError):
                return where

        payload = "\x00".join((
            self.name,
            self.display_name,
            str(self.trimming),
            self.crash_semantics,
            describe(self.wire),
            describe(self.make_proxy),
        ))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest


class SchemeRegistry:
    """Name -> :class:`SchemeSpec`, in registration order."""

    def __init__(self) -> None:
        self._specs: dict[str, SchemeSpec] = {}

    def register(self, spec: SchemeSpec, *, replace: bool = False) -> SchemeSpec:
        """Add ``spec``; refuses silent redefinition unless ``replace``."""
        if spec.name in self._specs and not replace:
            raise ExperimentError(
                f"scheme {spec.name!r} is already registered; pass "
                "replace=True to override it"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a scheme (tests and plugin teardown)."""
        self._specs.pop(name, None)

    def get(self, name: str) -> SchemeSpec:
        """Look up a scheme; unknown names list what *is* registered."""
        spec = self._specs.get(name)
        if spec is None:
            raise ExperimentError(
                f"unknown scheme {name!r}; registered schemes: "
                f"{', '.join(self._specs)}"
            )
        return spec

    def names(self) -> tuple[str, ...]:
        """All registered scheme names, in registration order."""
        return tuple(self._specs)

    def trimming_names(self) -> tuple[str, ...]:
        """Names of schemes whose fabric enables switch trimming."""
        return tuple(n for n, s in self._specs.items() if s.trimming)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[SchemeSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry every harness consults.
SCHEME_REGISTRY = SchemeRegistry()


def register_scheme(
    name: str,
    *,
    display_name: str | None = None,
    trimming: bool = False,
    crash_semantics: str = "unspecified",
    make_proxy: ProxyFactory | None = None,
    registry: SchemeRegistry | None = None,
    replace: bool = False,
) -> Callable[[Callable[[SchemeContext], SchemeWiring]], Callable[..., Any]]:
    """Decorator form of registration: wraps a ``wire(ctx)`` function."""

    def decorate(wire: Callable[[SchemeContext], SchemeWiring]):
        # `registry or SCHEME_REGISTRY` would mis-route the first spec: an
        # empty SchemeRegistry has len() == 0 and is therefore falsy.
        target = registry if registry is not None else SCHEME_REGISTRY
        target.register(
            SchemeSpec(
                name=name,
                display_name=display_name if display_name is not None else name,
                trimming=trimming,
                crash_semantics=crash_semantics,
                make_proxy=make_proxy,
                wire=wire,
            ),
            replace=replace,
        )
        return wire

    return decorate


# -- proxy factories (one unified signature) ---------------------------------


def _make_naive_proxy(
    sim: "Simulator",
    net: "Network",
    host: "Host",
    *,
    transport: "TransportConfig",
    detector: "DetectorConfig | None" = None,
    overhead: str | None = None,
    label: str = "",
) -> NaiveProxy:
    return NaiveProxy(sim, host)


def _make_streamlined_proxy(
    sim: "Simulator",
    net: "Network",
    host: "Host",
    *,
    transport: "TransportConfig",
    detector: "DetectorConfig | None" = None,
    overhead: str | None = None,
    label: str = "",
) -> StreamlinedProxy:
    processing_delay = None
    if overhead is not None:
        from repro.hoststack.measurement import PIPELINES

        # One substream per proxy host, so a backup proxy's draws never
        # shift the primary's.
        rng = sim.rng.stream(f"proxy-overhead:{host.name}")
        processing_delay = partial(PIPELINES[overhead]().sample, rng)
    return StreamlinedProxy(
        sim, host, processing_delay=processing_delay, label=label
    )


def _make_trimless_proxy(
    sim: "Simulator",
    net: "Network",
    host: "Host",
    *,
    transport: "TransportConfig",
    detector: "DetectorConfig | None" = None,
    overhead: str | None = None,
    label: str = "",
) -> TrimlessStreamlinedProxy:
    return TrimlessStreamlinedProxy(sim, host, detector)


# -- built-in wiring ----------------------------------------------------------


def _wire_baseline(ctx: SchemeContext) -> SchemeWiring:
    wiring = SchemeWiring()
    for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
        conn = Connection(
            ctx.net, host, ctx.receiver, size, ctx.scenario.transport,
            on_receiver_complete=ctx.make_on_done(i),
            on_sender_fail=ctx.make_on_fail(i),
            label=f"base{i}",
        )
        wiring.senders.append(conn.sender)
        conn.start()
    return wiring


def _wire_naive(ctx: SchemeContext) -> SchemeWiring:
    wiring = SchemeWiring()
    scenario = ctx.scenario
    [proxy_host] = place(ctx.fabrics[0], ctx.senders)
    proxy = _make_naive_proxy(
        ctx.sim, ctx.net, proxy_host, transport=scenario.transport
    )
    wiring.proxies["primary"] = proxy
    wiring.proxy_hosts["primary"] = proxy_host
    for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
        flow = proxy.open(
            ctx.net, host, ctx.receiver, size, scenario.transport,
            on_receiver_complete=ctx.make_on_done(i),
            on_sender_fail=ctx.make_on_fail(i),
            label=f"naive{i}",
        )
        wiring.senders.extend(leg.sender for leg in flow.legs)
        flow.start()
    return wiring


def _wire_via(ctx: SchemeContext, make_proxy: ProxyFactory,
              with_backup: bool) -> SchemeWiring:
    """Shared wiring for the streamlined family: one end-to-end connection
    per flow, loose-source-routed through the proxy host."""
    wiring = SchemeWiring()
    scenario = ctx.scenario
    proxy_host, *backup_hosts = place(ctx.fabrics[0], ctx.senders, 1 + with_backup)
    proxy = make_proxy(
        ctx.sim, ctx.net, proxy_host,
        transport=scenario.transport,
        detector=scenario.detector,
        overhead=scenario.proxy_overhead,
    )
    wiring.proxies["primary"] = proxy
    wiring.proxy_hosts["primary"] = proxy_host
    wiring.nack_proxies.append(proxy)
    backup = None
    if with_backup:
        [backup_host] = backup_hosts
        backup = make_proxy(
            ctx.sim, ctx.net, backup_host,
            transport=scenario.transport,
            detector=scenario.detector,
            overhead=scenario.proxy_overhead,
            label=f"sproxy-backup:{backup_host.name}",
        )
        wiring.proxies["backup"] = backup
        wiring.proxy_hosts["backup"] = backup_host
        wiring.nack_proxies.append(backup)
    conns = []
    for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
        conn = proxy.open(
            ctx.net, host, ctx.receiver, size, scenario.transport,
            on_receiver_complete=ctx.make_on_done(i),
            on_sender_fail=ctx.make_on_fail(i),
            label=f"{scenario.scheme}{i}",
        )
        if backup is not None:
            backup.attach(conn)  # inert until reroute_via points here
        wiring.senders.append(conn.sender)
        conns.append(conn)
        conn.start()
    if backup is not None:
        wiring.manager = ProxyPoolManager(
            ctx.sim, (proxy, backup), conns, cfg=scenario.failover, net=ctx.net
        ).start()
    return wiring


def _wire_streamlined(ctx: SchemeContext) -> SchemeWiring:
    return _wire_via(ctx, _make_streamlined_proxy, with_backup=False)


def _wire_trimless(ctx: SchemeContext) -> SchemeWiring:
    return _wire_via(ctx, _make_trimless_proxy, with_backup=False)


def _wire_proxy_failover(ctx: SchemeContext) -> SchemeWiring:
    return _wire_via(ctx, _make_streamlined_proxy, with_backup=True)


# Registration order defines the public SCHEMES tuple; keep the paper's
# presentation order (baseline first, variants after).
SCHEME_REGISTRY.register(SchemeSpec(
    name="baseline",
    display_name="Baseline",
    trimming=False,
    crash_semantics="no proxy: nothing to crash",
    make_proxy=None,
    wire=_wire_baseline,
))
SCHEME_REGISTRY.register(SchemeSpec(
    name="naive",
    display_name="Proxy (Naive)",
    trimming=False,
    crash_semantics=(
        "split-connection state is process memory: a crash kills every "
        "in-flight relay for good; restart serves new flows only"
    ),
    make_proxy=_make_naive_proxy,
    wire=_wire_naive,
))
SCHEME_REGISTRY.register(SchemeSpec(
    name="streamlined",
    display_name="Proxy (Streamlined)",
    trimming=True,
    crash_semantics=(
        "stateless forwarding: restart resumes every attached flow; "
        "packets in the processing pipeline at crash time are lost"
    ),
    make_proxy=_make_streamlined_proxy,
    wire=_wire_streamlined,
))
SCHEME_REGISTRY.register(SchemeSpec(
    name="trimless",
    display_name="Proxy (Streamlined, trim-free)",
    trimming=False,
    crash_semantics=(
        "forwarding resumes on restart but detector state is lost: gaps "
        "straddling the outage fall back to sender RTO recovery"
    ),
    make_proxy=_make_trimless_proxy,
    wire=_wire_trimless,
))
SCHEME_REGISTRY.register(SchemeSpec(
    name="proxy-failover",
    display_name="Proxy (Streamlined + hot standby)",
    trimming=True,
    crash_semantics=(
        "heartbeat failure detector migrates attached flows to a hot-"
        "standby proxy; stateless plane makes migration loss-free past "
        "the packets in flight; the standby crashing too degrades flows "
        "to direct forwarding, and a restarted primary wins them back "
        "after a stabilization period"
    ),
    make_proxy=_make_streamlined_proxy,
    wire=_wire_proxy_failover,
))

#: The built-in scheme names.  Taken here, not where a harness is first
#: imported, so ``repro.competitors.install()`` can never be in it; the
#: registry is the source of truth and covers schemes registered later.
SCHEMES = SCHEME_REGISTRY.names()
