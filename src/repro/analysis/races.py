"""The dynamic race detector: ``python -m repro races``.

The simulator's determinism rests on a FIFO tie-break contract: events
scheduled for the same picosecond fire in scheduling order.  Correct
components must not *depend* on that order — two same-tick packet arrivals
are physically concurrent, so any result that changes when they swap is a
latent race, exactly the class of bug TSan finds in threaded code.  This
module is the DES analogue: it shuffles the *serialization domains* of
same-timestamp event batches under a named :mod:`repro.sim.rng` substream
(``tiebreak:<order>``), re-runs a scenario grid under K perturbed orders,
and diffs result digests against the canonical (unshuffled) baseline.
Events within one domain — one network node's ports, agents, and timers —
keep a canonical serialized order (see :func:`_canonical_key`); only the
order *between* physically concurrent components is perturbed.

On divergence it *bisects*: ``tie_break_limit`` shuffles only the first N
permutable ticks, so a binary search over N isolates the first tick whose
permutation flips the outcome.  The report names the simulated time, the
handler qualnames in canonical and permuted order, the first swapped pair,
and a minimized one-line repro command.

Neutrality guarantee: with no tie-break seed the scheduler hook is never
installed, and the run loop then never looks at tick boundaries, so
default runs are bit-identical to runs before this module existed
(asserted by tests/test_races.py and every existing digest test).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExperimentError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    import argparse

    # type-only: the permutation rng is handed in as a named substream of
    # the simulator's seeded registry, never constructed here.
    from random import Random  # repro: allow[raw-random] annotation only

    from repro.experiments.parallel import ExperimentEngine
    from repro.experiments.runner import IncastResult, IncastScenario
    from repro.schemes import SchemeContext, SchemeWiring
    from repro.sim.scheduler import Entry, EventScheduler, HeapEventScheduler
    from repro.sim.simulator import Simulator
    from repro.telemetry.options import RunOptions

__all__ = [
    "ORDER_SENSITIVE_SCHEME",
    "DivergenceReport",
    "TickRecord",
    "TieBreakScheduler",
    "bisect_divergence",
    "handler_qualname",
    "install_tie_break",
    "main",
    "register_order_sensitive_fixture",
    "result_digest",
    "unregister_order_sensitive_fixture",
]

#: The substream family tie-break permutations draw from: order ``k`` uses
#: ``sim.rng.stream("tiebreak:k")``, so permutations are reproducible per
#: (scenario seed, order) and independent of every simulation substream.
TIE_BREAK_STREAM = "tiebreak"

#: Name of the deliberately order-sensitive scheme the smoke run seeds to
#: prove the detector actually catches races (see
#: :func:`register_order_sensitive_fixture`).
ORDER_SENSITIVE_SCHEME = "order-sensitive-fixture"


def handler_qualname(payload: object) -> str:
    """A stable human-readable name for a scheduler entry's callback."""
    callback = payload.callback if isinstance(payload, Event) else payload
    func = getattr(callback, "func", callback)  # unwrap functools.partial
    name = getattr(func, "__qualname__", None)
    if name is None:
        name = type(func).__name__
    return str(name)


def _unwrap(payload: object) -> object:
    """The innermost callback of a scheduler entry (partials, timers)."""
    from repro.sim.timers import Timer

    callback = payload.callback if isinstance(payload, Event) else payload
    for _ in range(8):  # unwrap partials and lazy timers
        inner = getattr(callback, "func", None)
        if inner is not None:
            callback = inner
            continue
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Timer):
            callback = owner._callback
            continue
        break
    return callback


def _host_of(owner: object) -> object:
    host = getattr(owner, "host", None)
    if host is None:
        sender = getattr(owner, "sender", None)  # Connection.start
        host = getattr(sender, "host", None)
    return host


def _domain_of(payload: object) -> str | None:
    """The serialization domain a scheduler entry's handler mutates.

    Same-tick events are physically concurrent only when they touch
    *different* components: two packets landing on different hosts at the
    same picosecond have no defined order, but an arrival and a
    transmit-completion on the *same* port queue are serialized by that
    port — their relative order is part of the component's semantics (the
    queue depth an ECN decision sees), not a race.  The permutation
    therefore reorders events across domains while preserving each
    domain's internal order — the DES analogue of "program order within a
    thread, happens-before across threads".

    Domains are network nodes, resolved from the callback's bound
    instance: a port's ``_arrive`` executes on the *destination* node
    (it delivers into ``dst_node.receive`` and that node's output
    queues), every other port event on the owning node; transport and
    proxy agents resolve through their ``.host``.  ``_arrive`` also
    catches its own port up (it starts the queued packets whose start
    tick has come), which mutates the *source* node's port.  That
    catch-up depends only on virtual time: it pops the packets whose start
    tick is at or before ``now``, and a same-tick ``send`` on that port
    runs the same catch-up before it offers.  So it commutes with every
    same-tick event of the source node, and ``_arrive`` stays in the
    destination's domain.  Handlers with no
    resolvable domain (plain functions, controllers) are treated as
    free-floating: each is its own domain and permutes freely.
    """
    from repro.net.node import Node
    from repro.net.port import OutputPort

    callback = _unwrap(payload)
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return None
    if isinstance(owner, OutputPort):
        if getattr(callback, "__name__", "") == "_arrive":
            return f"node:{owner.dst_node.name}"
        return f"node:{owner.name.split('->', 1)[0]}"
    if isinstance(owner, Node):
        return f"node:{owner.name}"
    host = _host_of(owner)
    if isinstance(host, Node):
        return f"node:{host.name}"
    return None


def _canonical_key(payload: object) -> tuple[str, str, str]:
    """A history-independent ordering key for a scheduler entry.

    Same-tick entries inside one serialization domain are executed in
    *canonical* order — sorted by this key — rather than FIFO scheduling
    order.  FIFO order is history-dependent: which of two upstream nodes
    ran first at an earlier (permuted) tick decides whose packet was
    scheduled first here, so comparing digests across permuted runs would
    flag that echo as a race.  The canonical key depends only on the
    component's stable identity (port or node name, handler name), never
    on scheduling sequence numbers, so every perturbed run sees the same
    downstream order and a digest difference can only come from a genuine
    cross-domain race.  Entries with equal keys (e.g. back-to-back
    arrivals on one wire) keep their FIFO order, which for a single
    serialized component is itself history-independent.
    """
    from repro.net.node import Node
    from repro.net.port import OutputPort

    callback = _unwrap(payload)
    qual = handler_qualname(payload)
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return ("anon", getattr(callback, "__module__", "") or "", qual)
    if isinstance(owner, OutputPort):
        return ("port", owner.name, qual)
    if isinstance(owner, Node):
        return ("node", owner.name, qual)
    host = _host_of(owner)
    label = str(getattr(owner, "label", "") or "")
    where = host.name if isinstance(host, Node) else type(owner).__name__
    return ("agent", f"{where}:{label}", qual)


@dataclass(frozen=True)
class TickRecord:
    """One permuted tick, as captured for the divergence report."""

    #: 0-based index among the *permutable* (multi-domain) ticks of the run.
    index: int
    #: simulated time of the tick, in picoseconds.
    time_ps: int
    #: handler qualnames in canonical (unshuffled baseline) order.
    original: tuple[str, ...]
    #: handler qualnames in the order actually executed.
    permuted: tuple[str, ...]

    @property
    def swapped(self) -> tuple[str, str]:
        """The first (FIFO handler, executed handler) pair that differs."""
        for before, after in zip(self.original, self.permuted):
            if before != after:
                return (before, after)
        return (self.original[-1], self.permuted[-1])


class TieBreakScheduler:
    """Permutes same-tick event batches under a named RNG substream.

    Installs itself as the scheduler's ``tie_break`` hook and does two
    things to every multi-entry tick:

    1. *Canonical normalization* (always): entries are grouped by
       serialization domain (see :func:`_domain_of`), each group is
       ordered by the history-independent :func:`_canonical_key`, and the
       groups themselves are laid out in canonical key order.  This
       erases the one legitimate way upstream execution order leaks
       downstream — FIFO sequence numbers of events scheduled *from* a
       permuted tick — so two runs that differ only in shuffles execute
       bit-identically everywhere the shuffles don't genuinely matter.
    2. *Domain shuffle* (the perturbation): when the tick holds two or
       more domains — physically concurrent components — the group order
       is shuffled under the RNG.  When the shuffle happens to produce
       the canonical identity the groups are rotated by one instead, so
       a permutable tick is *guaranteed* to execute in non-canonical
       order — a two-domain race cannot hide behind a 50% identity
       shuffle.

    ``limit`` gates only the shuffle (first N permutable ticks — the
    bisection knob; 0 = the canonical baseline); normalization always
    applies, so every ``digest_at(N)`` run is comparable.  ``capture_at``
    records the tick at that permutation index into :attr:`captured` for
    the divergence report.
    """

    def __init__(
        self,
        scheduler: "EventScheduler | HeapEventScheduler",
        rng: "Random",
        *,
        limit: int | None = None,
        capture_at: int | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.rng = rng
        self.limit = limit
        self.capture_at = capture_at
        #: multi-entry ticks actually permuted so far
        self.permuted_ticks = 0
        #: multi-entry ticks seen (permuted or past the limit)
        self.multi_ticks = 0
        self.captured: TickRecord | None = None
        scheduler.tie_break = self._permute

    def uninstall(self) -> None:
        """Detach from the scheduler, restoring pure FIFO order."""
        self.scheduler.tie_break = None

    def _permute(self, time: int, entries: "list[Entry]") -> "list[Entry] | None":
        self.multi_ticks += 1
        groups: list[list[Entry]] = []
        keys: list[tuple[str, str, str]] = []
        slots: dict[str, int] = {}
        for entry in entries:
            key = _domain_of(entry[-1])
            if key is None:
                groups.append([entry])
                keys.append(_canonical_key(entry[-1]))
                continue
            at = slots.get(key)
            if at is None:
                slots[key] = len(groups)
                groups.append([entry])
                keys.append(("domain", key, ""))
            else:
                groups[at].append(entry)
        # Canonical normalization — applied to EVERY multi-entry tick,
        # shuffled or not, so all compared runs (the limit=0 baseline and
        # each perturbed order) execute identical downstream orders and a
        # digest change can only come from the shuffles themselves.
        for group in groups:
            if len(group) > 1:
                group.sort(key=lambda e: _canonical_key(e[-1]))
        base = sorted(range(len(groups)), key=keys.__getitem__)
        order = base
        if len(groups) >= 2 and (
            self.limit is None or self.permuted_ticks < self.limit
        ):
            index = self.permuted_ticks
            self.permuted_ticks = index + 1
            order = base[:]
            self.rng.shuffle(order)
            if order == base:
                order = order[1:] + order[:1]
            if self.capture_at is not None and index == self.capture_at:
                canonical = [e for i in base for e in groups[i]]
                permuted = [e for i in order for e in groups[i]]
                self.captured = TickRecord(
                    index=index,
                    time_ps=time,
                    original=tuple(handler_qualname(e[-1]) for e in canonical),
                    permuted=tuple(handler_qualname(e[-1]) for e in permuted),
                )
        return [entry for i in order for entry in groups[i]]


#: The installer below parks each run's TieBreakScheduler here so the
#: in-process bisection driver can read back tick counts and captures
#: after ``run_incast`` returns.  Single-slot by design: race-detector
#: runs are serial, in-process, and bypass the worker pool.
_LAST: list[TieBreakScheduler | None] = [None]
_CAPTURE_AT: list[int | None] = [None]


def install_tie_break(
    sim: "Simulator", order: int, *, limit: int | None = None
) -> TieBreakScheduler:
    """Attach a :class:`TieBreakScheduler` for perturbed order ``order``.

    Called by the runner when ``RunOptions.tie_break_seed`` is set.  The
    permutation RNG is the named substream ``tiebreak:<order>`` of the
    simulator's seeded registry, so it is reproducible per (scenario seed,
    order) and never perturbs a simulation draw.
    """
    detector = TieBreakScheduler(
        sim.scheduler,
        sim.rng.stream(f"{TIE_BREAK_STREAM}:{order}"),
        limit=limit,
        capture_at=_CAPTURE_AT[0],
    )
    _LAST[0] = detector
    return detector


def result_digest(result: "IncastResult") -> str:
    """SHA-256 over every order-sensitive observable of one run.

    Stricter than the sweep digest: covers per-flow completion times and
    the event count, so even a divergence that cancels out in the summary
    statistics is caught.
    """
    counters = result.counters
    parts = (
        result.ict_ps,
        tuple(result.flow_completion_ps),
        result.completed,
        result.events_executed,
        result.retransmissions,
        result.timeouts,
        result.nacks_received,
        result.marked_acks,
        result.proxy_nacks_sent,
        result.failed_flows,
        result.failovers,
        result.failbacks,
        result.reroutes,
        counters.packets_dropped,
        counters.packets_trimmed,
        counters.packets_marked,
        counters.tx_packets,
        counters.tx_bytes,
        counters.bytes_dropped,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class ScenarioCheck:
    """Digest comparison of one scenario across the perturbed orders."""

    scenario: "IncastScenario"
    baseline: str
    by_order: dict[int, str] = field(default_factory=dict)

    @property
    def divergent_orders(self) -> list[int]:
        return sorted(k for k, d in self.by_order.items() if d != self.baseline)

    @property
    def invariant(self) -> bool:
        return not self.divergent_orders


@dataclass(frozen=True)
class DivergenceReport:
    """A bisected race: the first tick whose permutation flips the result."""

    scenario: "IncastScenario"
    order: int
    #: 1-based count of permuted ticks needed to reproduce the divergence
    #: (i.e. the first divergent tick is permutation index ``limit - 1``).
    limit: int
    record: TickRecord | None

    def render(self) -> str:
        lines = [
            f"race in scheme={self.scenario.scheme!r} "
            f"seed={self.scenario.seed} under tie-break order {self.order}:",
            f"  first divergent tick: permutation #{self.limit} of the run",
        ]
        record = self.record
        if record is not None:
            swapped = record.swapped
            lines += [
                f"  time: t={record.time_ps} ps",
                f"  canonical order: {', '.join(record.original)}",
                f"  executed order:  {', '.join(record.permuted)}",
                f"  swapped pair:   {swapped[0]} <-> {swapped[1]}",
            ]
        lines.append(
            "  repro: python -m repro races "
            f"--scheme {self.scenario.scheme} --seed {self.scenario.seed} "
            f"--order {self.order} --limit {self.limit}"
        )
        return "\n".join(lines)


def _run_one(scenario: "IncastScenario", options: "RunOptions") -> "IncastResult":
    from repro.experiments.runner import run_incast

    return run_incast(scenario, options)


def bisect_divergence(
    scenario: "IncastScenario",
    order: int,
    *,
    baseline_digest: str | None = None,
) -> DivergenceReport:
    """Find the first tick whose permutation makes ``scenario`` diverge.

    Runs in-process (never through the worker pool) so the installed
    :class:`TieBreakScheduler` can be inspected between runs.  Binary
    search over ``tie_break_limit``: shuffling 0 ticks reproduces the
    canonical baseline by construction, shuffling all of them reproduces
    the full divergence, and the search isolates the smallest prefix that
    flips the digest.  The final run re-executes with the divergent tick
    captured for the report.
    """
    from repro.telemetry.options import RunOptions

    if baseline_digest is None:
        baseline_digest = result_digest(_run_one(
            scenario, RunOptions(tie_break_seed=order, tie_break_limit=0)
        ))
    full = _run_one(scenario, RunOptions(tie_break_seed=order))
    detector = _LAST[0]
    assert detector is not None
    total = detector.permuted_ticks
    if result_digest(full) == baseline_digest:
        raise ExperimentError(
            f"scheme {scenario.scheme!r} does not diverge under tie-break "
            f"order {order}; nothing to bisect"
        )

    def digest_at(limit: int) -> str:
        return result_digest(_run_one(
            scenario, RunOptions(tie_break_seed=order, tie_break_limit=limit)
        ))

    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        if digest_at(mid) == baseline_digest:
            lo = mid + 1
        else:
            hi = mid
    # Re-run the minimal prefix with the last (divergent) tick captured.
    _CAPTURE_AT[0] = lo - 1
    try:
        digest_at(lo)
        detector = _LAST[0]
        record = detector.captured if detector is not None else None
    finally:
        _CAPTURE_AT[0] = None
    return DivergenceReport(scenario=scenario, order=order, limit=lo, record=record)


# -- the grid driver ----------------------------------------------------------


def check_scenarios(
    scenarios: Sequence["IncastScenario"],
    *,
    orders: int = 3,
    engine: "ExperimentEngine | None" = None,
) -> list[ScenarioCheck]:
    """Run each scenario in canonical order plus ``orders`` shuffled orders.

    The baseline is the *canonical* run (``tie_break_limit=0``: detector
    installed, normalization active, no shuffles) so each perturbed run
    differs from it only in the domain shuffles — any digest mismatch is
    order-dependence.  Returns one :class:`ScenarioCheck` per scenario, in
    input order.  All passes bypass the result cache
    (``RunOptions.bypasses_cache``) but fan out across the engine's
    workers.
    """
    from repro.experiments.parallel import ExperimentEngine

    if orders < 1:
        raise ExperimentError("need at least one perturbed order")
    engine = engine if engine is not None else ExperimentEngine(workers=1)
    base_options = engine.options

    def pass_engine(seed: int, limit: int | None) -> "ExperimentEngine":
        return ExperimentEngine(
            workers=engine.workers,
            cache=None,
            on_fallback=engine.on_fallback,
            run_timeout_s=engine.run_timeout_s,
            options=replace(base_options, tie_break_seed=seed,
                            tie_break_limit=limit),
        )

    baseline = pass_engine(0, 0)
    checks = [
        ScenarioCheck(scenario=s, baseline=result_digest(r))
        for s, r in zip(scenarios, baseline.run_incasts(list(scenarios)))
    ]
    for order in range(1, orders + 1):
        for check, result in zip(
            checks, pass_engine(order, None).run_incasts(list(scenarios))
        ):
            check.by_order[order] = result_digest(result)
    return checks


# -- the seeded order-sensitive fixture ---------------------------------------


def _wire_order_sensitive(ctx: "SchemeContext") -> "SchemeWiring":
    """A scheme that (incorrectly) depends on same-tick execution order.

    Two callbacks race to claim a token at t=1000 ps; whichever runs first
    wins.  Under FIFO order ``claim_alpha`` always wins and the flows start
    immediately; if a permutation lets ``claim_beta`` win, every flow start
    is delayed by 500 ns, shifting all completion times.  This is the
    minimal shape of a first-writer-wins race, and the detector must both
    catch it and bisect it back to the t=1000 tick.
    """
    from repro.schemes import SchemeWiring
    from repro.transport.connection import Connection

    sim = ctx.sim
    wiring = SchemeWiring()
    winner: list[str] = []

    def claim_alpha() -> None:
        if not winner:
            winner.append("alpha")

    def claim_beta() -> None:
        if not winner:
            winner.append("beta")

    connections: list[Connection] = []
    for i, (host, size) in enumerate(zip(ctx.senders, ctx.sizes)):
        connections.append(Connection(
            ctx.net, host, ctx.receiver, size, ctx.scenario.transport,
            on_receiver_complete=ctx.make_on_done(i),
            on_sender_fail=ctx.make_on_fail(i),
            label=f"race{i}",
        ))
        wiring.senders.append(connections[-1].sender)

    def kick() -> None:
        delay = 0 if winner == ["alpha"] else 500_000
        for conn in connections:
            sim.schedule(delay, conn.start)

    sim.schedule(1_000, claim_alpha)
    sim.schedule(1_000, claim_beta)
    sim.schedule(2_000, kick)
    return wiring


def register_order_sensitive_fixture() -> None:
    """Register the deliberately racy scheme (smoke runs and tests)."""
    from repro.schemes import SCHEME_REGISTRY, SchemeSpec

    SCHEME_REGISTRY.register(
        SchemeSpec(
            name=ORDER_SENSITIVE_SCHEME,
            display_name="order-sensitive fixture",
            trimming=False,
            crash_semantics="unspecified",
            make_proxy=None,
            wire=_wire_order_sensitive,
        ),
        replace=True,
    )


def unregister_order_sensitive_fixture() -> None:
    """Remove the racy fixture scheme from the registry."""
    from repro.schemes import SCHEME_REGISTRY

    SCHEME_REGISTRY.unregister(ORDER_SENSITIVE_SCHEME)


# -- CLI ----------------------------------------------------------------------


def _grid(args: argparse.Namespace, schemes: Sequence[str]) -> list["IncastScenario"]:
    from repro.config import TransportConfig, small_interdc_config
    from repro.experiments.runner import IncastScenario
    from repro.units import megabytes

    return [
        IncastScenario(
            scheme=scheme,
            degree=args.degree,
            total_bytes=megabytes(args.bytes_mb),
            interdc=small_interdc_config(),
            transport=TransportConfig(payload_bytes=4096),
            seed=args.seed,
        )
        for scheme in schemes
    ]


def _print_sweep_digest(checks: Sequence[ScenarioCheck]) -> None:
    digest = hashlib.sha256("\n".join(
        f"{c.scenario.scheme}|{c.baseline}|"
        + ",".join(f"{k}:{d}" for k, d in sorted(c.by_order.items()))
        for c in checks
    ).encode()).hexdigest()
    print(f"sweep_digest: {digest}")


def _replay(args: argparse.Namespace) -> int:
    """Re-run one (scenario, order) pair — the minimized repro command."""
    from repro.telemetry.options import RunOptions

    scenario = _grid(args, [args.scheme])[0]
    baseline = result_digest(_run_one(
        scenario, RunOptions(tie_break_seed=args.order, tie_break_limit=0)
    ))
    if args.limit is not None:
        _CAPTURE_AT[0] = args.limit - 1
    try:
        perturbed = result_digest(_run_one(scenario, RunOptions(
            tie_break_seed=args.order, tie_break_limit=args.limit,
        )))
        detector = _LAST[0]
    finally:
        _CAPTURE_AT[0] = None
    print(f"baseline digest:  {baseline}")
    print(f"perturbed digest: {perturbed} (order {args.order}"
          + (f", limit {args.limit}" if args.limit is not None else "") + ")")
    if detector is not None and detector.captured is not None:
        record = detector.captured
        swapped = record.swapped
        print(f"tick #{record.index + 1}: t={record.time_ps} ps")
        print(f"  canonical order: {', '.join(record.original)}")
        print(f"  executed order:  {', '.join(record.permuted)}")
        print(f"  swapped pair:   {swapped[0]} <-> {swapped[1]}")
    if perturbed != baseline:
        print("result: DIVERGENT (order-dependent behavior reproduced)")
        return 1
    print("result: invariant under this order")
    return 0


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for ``python -m repro races``."""
    import argparse

    from repro.__main__ import check_common_args, common_parser

    parser = argparse.ArgumentParser(
        prog="python -m repro races",
        description="dynamic race detector: re-run scenarios under "
                    "perturbed same-tick event orders and diff digests",
        parents=[common_parser()],
    )
    parser.add_argument(
        "--orders", type=int, default=3, metavar="K",
        help="perturbed tie-break orders to test per scenario (default 3)",
    )
    parser.add_argument(
        "--schemes", nargs="*", default=None, metavar="NAME",
        help="schemes to check (default: every registered scheme, "
             "including the repro.competitors plug-ins)",
    )
    parser.add_argument(
        "--degree", type=int, default=4, metavar="N",
        help="incast degree of the check scenario (default 4)",
    )
    parser.add_argument(
        "--bytes-mb", type=float, default=40.0, metavar="MB",
        help="total incast size in MB (default 40, quickstart-sized)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: reduced size, all schemes must be invariant AND the "
             "seeded order-sensitive fixture must be caught and bisected",
    )
    parser.add_argument(
        "--scheme", default=None, metavar="NAME",
        help="replay mode: the single scheme to re-run (with --order)",
    )
    parser.add_argument(
        "--order", type=int, default=None, metavar="K",
        help="replay mode: re-run one scenario under tie-break order K "
             "and print both digests (plus the captured tick with --limit)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="replay mode: permute only the first N multi-entry ticks",
    )
    args = parser.parse_args(argv)
    check_common_args(parser, args)
    if args.orders < 1:
        parser.error(f"--orders must be at least 1, got {args.orders}")

    import repro.competitors as competitors

    with competitors.installed():
        _check(parser, args)


def _check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Replay one order, or check every scheme (and, in smoke mode, the fixture)."""
    if args.order is not None:
        if args.scheme is None:
            parser.error("--order requires --scheme")
        if args.scheme == ORDER_SENSITIVE_SCHEME:
            register_order_sensitive_fixture()
        raise SystemExit(_replay(args))

    if args.smoke:
        args.bytes_mb = min(args.bytes_mb, 8.0)
    from repro.__main__ import build_engine
    from repro.schemes import SCHEME_REGISTRY

    schemes = list(args.schemes) if args.schemes else list(SCHEME_REGISTRY.names())
    engine = build_engine(args)
    scenarios = _grid(args, schemes)
    print(f"checking {len(schemes)} scheme(s) under {args.orders} perturbed "
          f"tie-break order(s), degree={args.degree}, "
          f"{args.bytes_mb:g} MB ...")
    checks = check_scenarios(scenarios, orders=args.orders, engine=engine)
    failed: list[ScenarioCheck] = []
    for check in checks:
        status = "invariant" if check.invariant else (
            f"DIVERGENT under order(s) {check.divergent_orders}"
        )
        print(f"{check.scenario.scheme:<24} {status}")
        if not check.invariant:
            failed.append(check)
    _print_sweep_digest(checks)
    for check in failed:
        report = bisect_divergence(
            check.scenario, check.divergent_orders[0],
            baseline_digest=check.baseline,
        )
        print(report.render())

    if args.smoke:
        print("\nseeding the order-sensitive fixture scheme ...")
        register_order_sensitive_fixture()
        try:
            fixture = _grid(args, [ORDER_SENSITIVE_SCHEME])
            fixture_checks = check_scenarios(fixture, orders=args.orders)
            caught = [c for c in fixture_checks if not c.invariant]
            if not caught:
                print("FAIL: the order-sensitive fixture was NOT detected")
                raise SystemExit(1)
            report = bisect_divergence(
                caught[0].scenario, caught[0].divergent_orders[0],
                baseline_digest=caught[0].baseline,
            )
            print("fixture caught as expected:")
            print(report.render())
            if report.record is None:
                print("FAIL: divergence bisected but no tick captured")
                raise SystemExit(1)
        finally:
            unregister_order_sensitive_fixture()
        if failed:
            print(f"\nFAIL: {len(failed)} scheme(s) order-dependent")
            raise SystemExit(1)
        print("\nrace smoke ok: all schemes digest-invariant, fixture caught")
        return
    if failed:
        raise SystemExit(1)

