"""Parallel experiment execution with deterministic merge and a result cache.

Every figure in the paper is a parameter sweep that runs each scheme
``reps`` times per x-axis point; the trials are independent seeded runs,
so they fan out over a process pool the same way RepFlow replicates flows:
do the work N ways, merge deterministically.  This module provides

* :func:`guarded_fanout` — fan any picklable ``fn`` over items on a
  ``multiprocessing`` pool (``fork`` preferred, ``spawn``-safe), yielding
  ``(index, outcome)`` as each item finishes, with a graceful fallback to
  in-process execution when ``workers <= 1``, the items are unpicklable,
  or the platform cannot provide a pool;
* :func:`scenario_key` — a stable content hash of any config dataclass
  (scheme, degree, bytes, nested configs, seed), suitable as a cache key;
* :class:`ResultCache` — an on-disk pickle store keyed by scenario hash,
  so re-running a figure only simulates changed points;
* :class:`ExperimentEngine` — the object the sweeps, figure drivers, and
  CLI sit on.  :meth:`ExperimentEngine.stream` is the one completion
  path: cache lookup, dispatch of the misses, cache store,
  :class:`RunFailure` construction, :class:`ExecutionStats` accounting
  (cache hits, simulated wall time vs engine wall time) and telemetry all
  happen there, and ``run_incasts`` / ``run_incasts_detailed`` are its
  positional collects.

Crash-proofing: a long sweep must survive one bad point.  Every run is
guarded — :func:`guarded_fanout` enforces a per-run wall-clock
deadline *inside* the worker (``SIGALRM``; a ``ProcessPoolExecutor``
cannot cancel a running task from outside), retries transient exceptions
with exponential backoff, and when a worker process dies outright
(segfault, ``os._exit``) re-runs the surviving items in fresh single-run
isolation pools so one poison scenario cannot take down its batchmates.
A run that still fails is **quarantined**: the engine yields a
structured :class:`RunFailure` for its index and every other point's
result survives, instead of one exception discarding an hour of
simulation.

Determinism contract: each simulation is a pure function of its scenario
(seed included), so for a fixed scenario list the engine produces the same
results — bitwise, minus host-dependent wall-clock fields — for any worker
count, completion order, or cache state.  Quarantine preserves this:
every entry carries its index, so a positional collect never shifts and
the order-independent folds never notice the order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import ExperimentError
from repro.metrics.config import DEFAULT_METRICS
from repro.experiments.runner import IncastResult, IncastScenario, run_incast
from repro.telemetry.options import RunOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.sweep import SweepTelemetry

T = TypeVar("T")
R = TypeVar("R")

#: One guarded run as the fan-out reports it: ``(status, payload, attempts,
#: elapsed_seconds)``.  ``status`` is ``"ok"`` (payload = the result) or a
#: :class:`RunFailure` kind (payload = the message).
Outcome = tuple[str, Any, int, float]

#: Bump when the result schema changes so stale cache entries never load.
#: v2: IncastResult gained fault/failure fields; IncastScenario gained
#: faults/failover.
#: v3: IncastResult gained the conservation tally (--sanitize).
#: v4: IncastResult gained the telemetry snapshot (repro.telemetry).
#: v5: scenario keys fold in the registered scheme's spec fingerprint, so a
#: re-registered scheme under an old name never reuses stale entries.
#: v6: IncastScenario gained the control-plane config; IncastResult gained
#: failbacks/proxy_degrades/reroutes/detected_at_ps/converged_at_ps;
#: FailoverConfig gained failback_stabilization_ps (the proxy-failover
#: manager now probes past the first migration, so cached pre-v6 results
#: would disagree on events_executed).
#: v7: scenario keys fold in the run's MetricsConfig (exact vs sketch
#: sinks change the recorded telemetry series), so sketch-mode and
#: exact-mode runs never share cache entries; pre-v7 entries carry no
#: metrics field and must not satisfy either mode.
#: v8: IncastScenario's per-packet proxy cost became the named
#: proxy_overhead field (it was a callable), so every scenario document
#: and key changed shape.
#: v9: one event per hop — the output port no longer schedules a
#: serialization-end event, which changes same-tick order, and with it
#: every result and events_executed; cached v8 results describe the
#: two-event port.
CACHE_SCHEMA_VERSION = 9

#: Default on-disk cache location (override with $REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", "results/.sweep-cache"))


# ---------------------------------------------------------------------------
# Stable scenario hashing
# ---------------------------------------------------------------------------

def _canonical(value: Any) -> Any:
    """Recursively reduce a config value to JSON-encodable primitives.

    Raises :class:`TypeError` for values that are not data (a callable, an
    open file): a scenario is plain data, so such a value is a caller bug.
    """
    if is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no stable representation for {type(value).__name__}")


def scenario_key(scenario: Any, options: RunOptions | None = None) -> str:
    """Stable SHA-256 content hash of a config dataclass.

    Two scenarios that compare equal field-by-field hash identically across
    processes and interpreter runs; any field change (scheme, degree,
    bytes, nested config, seed) changes the key.

    When the scenario names a registered scheme, the scheme's spec
    :meth:`~repro.schemes.SchemeSpec.fingerprint` is folded in as well:
    the scheme *name* alone is not a stable identity once third parties can
    ``@register_scheme(..., replace=True)`` a different implementation
    under a previously used name.

    The run's :class:`~repro.metrics.config.MetricsConfig` (taken from
    ``options``, defaulting to exact mode) is folded in too: sketch-mode
    telemetry is a different artifact from exact-mode telemetry, so the
    two must never share a cache entry.
    """
    if not is_dataclass(scenario) or isinstance(scenario, type):
        raise TypeError(f"cache keys require a dataclass, got {type(scenario).__name__}")
    metrics = options.metrics if options is not None else DEFAULT_METRICS
    document: dict[str, Any] = {
        "schema": CACHE_SCHEMA_VERSION,
        "scenario": _canonical(scenario),
        "metrics": _canonical(metrics),
    }
    scheme = getattr(scenario, "scheme", None)
    if isinstance(scheme, str):
        from repro.schemes import SCHEME_REGISTRY

        if scheme in SCHEME_REGISTRY:
            document["scheme_fingerprint"] = SCHEME_REGISTRY.get(scheme).fingerprint()
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

#: An entry file is this magic, the payload's sha256, then the payload (a
#: pickle).  A file that does not start with it -- an entry written before
#: the framing, or a foreign file -- reads as a miss.
_ENTRY_MAGIC = b"RPCACHE\x01"
_ENTRY_HEADER = len(_ENTRY_MAGIC) + hashlib.sha256().digest_size


class ResultCache:
    """Pickle-per-entry result store keyed by :func:`scenario_key`.

    Entries are written atomically (tmp file + rename) so a crashed or
    concurrent run never leaves a truncated entry, and framed with their
    payload's sha256 so a damaged one is never unpickled; unreadable
    entries are treated as misses and overwritten.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fanout keeps dirs small)."""
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """Load the cached value for ``key``, or None on miss/corruption.

        A corrupted-but-readable entry (short header, digest mismatch, old
        format, stale class layout) is deleted on the spot: leaving it
        would turn every future lookup of this key into a doomed read, and
        ``put`` only runs when a fresh result exists to overwrite it with.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        body = blob[_ENTRY_HEADER:]
        if (
            blob.startswith(_ENTRY_MAGIC)
            and hashlib.sha256(body).digest() == blob[len(_ENTRY_MAGIC):_ENTRY_HEADER]
        ):
            try:
                return pickle.loads(body)
            except Exception:  # an intact entry this code cannot load: a miss
                pass
        try:
            path.unlink()
        except OSError:  # pragma: no cover - unwritable cache dir
            pass
        return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with tmp.open("wb") as fh:
            fh.write(_ENTRY_MAGIC + hashlib.sha256(body).digest())
            fh.write(body)
        tmp.replace(path)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: None/0 = one per available CPU."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ExperimentError(f"workers must be non-negative, got {workers}")
    return workers


def _pool_context():
    """Pick a multiprocessing context: ``fork`` where available, else spawn."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _all_picklable(values: Iterable[Any]) -> bool:
    try:
        for value in values:
            pickle.dumps(value)
    except Exception:
        return False
    return True


# ---------------------------------------------------------------------------
# Guarded execution: deadlines, retries, quarantine
# ---------------------------------------------------------------------------

@dataclass
class RunFailure:
    """One quarantined run: the sweep continued; this point is marked failed.

    ``kind`` is ``"exception"`` (the run raised after all retry attempts),
    ``"timeout"`` (it exceeded the per-run wall-clock deadline), or
    ``"worker-crash"`` (the worker process died — segfault, OOM-kill,
    ``os._exit``).  Failures are never cached: a re-run gets a fresh try.
    """

    scenario: IncastScenario
    kind: str
    message: str
    attempts: int = 1
    elapsed_seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"RunFailure({self.kind}: {self.message}; "
            f"attempts={self.attempts}, elapsed={self.elapsed_seconds:.2f}s)"
        )


class _RunTimeout(Exception):
    """Internal: raised by the SIGALRM handler when a run overruns."""


def _call_with_deadline(fn: Callable[[T], R], item: T, timeout_s: float | None) -> R:
    """Run ``fn(item)``, raising :class:`_RunTimeout` past ``timeout_s``.

    The deadline is enforced *inside* the executing process via
    ``SIGALRM`` + ``setitimer`` — the only way to interrupt a task a
    ``ProcessPoolExecutor`` has already started.  Platforms without
    ``SIGALRM`` (Windows) and non-main threads run without a deadline.
    """
    if (
        not timeout_s
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(item)

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise _RunTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(item)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _guarded_call(
    fn: Callable[[T], R],
    item: T,
    timeout_s: float | None,
    max_attempts: int,
    backoff_s: float,
) -> tuple[str, Any, int, float]:
    """One guarded run: ``("ok", result, ...)`` or a failure tuple.

    Exceptions are retried up to ``max_attempts`` with exponential
    backoff (transient failures — a full /tmp, a cache race — deserve a
    second chance).  Timeouts are **not** retried: a run that exhausted
    its deadline once would almost certainly do it again, doubling the
    wall-clock cost of an already-slow point.
    """
    start = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            result = _call_with_deadline(fn, item, timeout_s)
            return ("ok", result, attempts, time.perf_counter() - start)
        except _RunTimeout:
            return (
                "timeout",
                f"exceeded the {timeout_s:g}s per-run wall-clock deadline",
                attempts,
                time.perf_counter() - start,
            )
        except Exception as exc:  # noqa: BLE001 - quarantine boundary
            if attempts >= max_attempts:
                return (
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                    attempts,
                    time.perf_counter() - start,
                )
            time.sleep(backoff_s * (2 ** (attempts - 1)))


class _GuardedTask:
    """Picklable closure shipping the guard parameters to worker processes."""

    def __init__(
        self,
        fn: Callable[[T], R],
        timeout_s: float | None,
        max_attempts: int,
        backoff_s: float,
    ) -> None:
        self.fn = fn
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s

    def __call__(self, item: T) -> tuple[str, Any, int, float]:
        return _guarded_call(
            self.fn, item, self.timeout_s, self.max_attempts, self.backoff_s
        )


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker as soon as ``parent`` is gone.

    A SIGKILLed parent cannot shut its pool down, and its workers would
    otherwise wait on the call queue forever, reparented to init.  A
    daemon thread polls the parent pid; the worker's own thread runs the
    tasks and keeps its ``SIGALRM`` deadline.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _pool(max_workers: int):
    """A worker pool on :func:`_pool_context` (the one executor factory)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=_pool_context(),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


def _run_isolated(task: _GuardedTask, item: Any) -> Outcome:
    """Re-run one item from a broken batch in a fresh single-run pool.

    Never runs the item in-process: it is a suspect in a worker's death,
    and a hard crash (``os._exit``, segfault) in the caller would discard
    the whole sweep — exactly what quarantine exists to prevent.
    """
    from concurrent.futures.process import BrokenProcessPool

    try:
        with _pool(1) as pool:
            return pool.submit(task, item).result()
    except BrokenProcessPool:
        return (
            "worker-crash",
            "worker process died while executing this run (hard crash)",
            1,
            0.0,
        )
    except (OSError, ImportError, PermissionError) as exc:
        return ("worker-crash", f"isolation pool unavailable: {exc}", 1, 0.0)


def _pool_fanout(
    task: _GuardedTask, items: Sequence[Any], workers: int
) -> Iterator[tuple[int, Outcome]]:
    """One pool pass, then isolation re-runs for what a dead worker took down."""
    from concurrent.futures import as_completed
    from concurrent.futures.process import BrokenProcessPool

    crashed = set(range(len(items)))
    with _pool(workers) as pool:
        futures = {}
        try:
            for i, item in enumerate(items):
                futures[pool.submit(task, item)] = i
        except BrokenProcessPool:
            pass  # unsubmitted items go straight to isolation below
        for future in as_completed(futures):
            try:
                outcome = future.result()
            except BrokenProcessPool:
                continue
            except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
                outcome = ("exception", f"{type(exc).__name__}: {exc}", 1, 0.0)
            crashed.discard(futures[future])
            yield futures[future], outcome
    for i in sorted(crashed):
        yield i, _run_isolated(task, items[i])


def guarded_fanout(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = 1,
    timeout_s: float | None = None,
    max_attempts: int = 2,
    backoff_s: float = 0.05,
    on_fallback: Callable[[str], None] | None = None,
) -> Iterator[tuple[int, Outcome]]:
    """Guarded fan-out: yield ``(index, outcome)`` as each item finishes.

    Every index is yielded exactly once, in **completion** order; callers
    that need input order collect by index.  No single item can sink the
    batch: exceptions and deadline overruns come back as failure
    outcomes, and if a worker process dies the items it took down with it
    are re-run in fresh isolation pools — so a segfault in item 3 still
    yields results for items 0–2 and 4–N.

    Runs in-process (same guard, same outcomes) when ``workers <= 1``,
    there is at most one item, the work is unpicklable, or the platform
    refuses to start a pool (sandboxes without /dev/shm, missing fork).
    There exceptions and timeouts are still guarded, but a hard crash
    cannot be contained — there is no process boundary to die behind.
    """
    items = list(items)
    task = _GuardedTask(fn, timeout_s, max_attempts, backoff_s)
    pending = set(range(len(items)))
    fallback: str | None = None
    effective = min(resolve_workers(workers), len(items))
    if effective > 1:
        if not _all_picklable([fn]) or not _all_picklable(items):
            fallback = "work items are not picklable; running serially"
        else:
            try:
                for i, outcome in _pool_fanout(task, items, effective):
                    pending.discard(i)
                    yield i, outcome
                return
            except (OSError, ImportError, PermissionError) as exc:
                fallback = f"process pool unavailable ({exc}); running serially"
    if fallback is not None and on_fallback is not None:
        on_fallback(fallback)
    for i in sorted(pending):
        yield i, task(items[i])


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class ExecutionStats:
    """What one engine did: task counts, cache traffic, and timing."""

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    #: runs quarantined as RunFailure (never cached; see ExperimentEngine.stream).
    failures: int = 0
    #: extra attempts spent retrying transient exceptions.
    retries: int = 0
    #: wall-clock the engine spent orchestrating (dispatch + cache + merge).
    wall_seconds: float = 0.0
    #: summed single-run wall-clock of the simulations actually executed —
    #: the serial-equivalent cost, so speedup = sim_wall_seconds / wall_seconds.
    sim_wall_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over engine wall time (>1 = parallel win)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.sim_wall_seconds / self.wall_seconds


class ExperimentEngine:
    """Cached, parallel executor for independent seeded experiment runs.

    :meth:`stream` is the only way results leave an engine: it owns the
    cache lookup/store, :class:`RunFailure` construction,
    :class:`ExecutionStats` and the telemetry records.  A backend
    supplies only :meth:`_dispatch` — how the cache misses execute; this
    class fans them over a worker pool, and
    :class:`~repro.experiments.service.QueueEngine` journals what that
    pool returns.
    """

    def __init__(
        self,
        workers: int | None = 1,
        cache: ResultCache | None = None,
        *,
        on_fallback: Callable[[str], None] | None = None,
        run_timeout_s: float | None = None,
        max_attempts: int = 2,
        retry_backoff_s: float = 0.05,
        options: RunOptions | None = None,
        telemetry: SweepTelemetry | None = None,
    ) -> None:
        if run_timeout_s is not None and run_timeout_s <= 0:
            raise ExperimentError(
                f"run_timeout_s must be positive, got {run_timeout_s}"
            )
        if max_attempts < 1:
            raise ExperimentError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ExperimentError(
                f"retry_backoff_s must be non-negative, got {retry_backoff_s}"
            )
        self.workers = resolve_workers(workers)
        self.cache = cache
        #: the per-run execution options every incast is run under.  Runs
        #: whose options bypass the cache (sanitize, telemetry, a probe)
        #: skip it in both directions: a cached result proves nothing
        #: about invariants and carries no snapshot, and an observed
        #: result is not interchangeable with a plain one.
        self.options = options if options is not None else RunOptions()
        #: sweep-level telemetry sink (heartbeats + per-run records);
        #: None means no sweep accounting beyond ``stats``.
        self.telemetry = telemetry
        self.on_fallback = on_fallback
        self.run_timeout_s = run_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.stats = ExecutionStats(workers=self.workers)

    # -- generic fan-out -----------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Uncached fan-out of ``fn`` over ``items``, results in input order.

        Items run under the same guard as incast runs; the first failure
        raises :class:`ExperimentError`.
        """
        start = time.perf_counter()
        items = list(items)
        results: list[Any] = [None] * len(items)
        for i, (status, payload, _attempts, _elapsed) in self._fan_out(fn, items):
            if status != "ok":
                raise ExperimentError(f"item {i} failed ({status}): {payload}")
            results[i] = payload
        self.stats.tasks += len(items)
        self.stats.wall_seconds += time.perf_counter() - start
        return results

    def _fan_out(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> Iterator[tuple[int, Outcome]]:
        return guarded_fanout(
            fn,
            items,
            workers=self.workers,
            timeout_s=self.run_timeout_s,
            max_attempts=self.max_attempts,
            backoff_s=self.retry_backoff_s,
            on_fallback=self.on_fallback,
        )

    # -- incast runs ---------------------------------------------------------

    def stream(
        self, scenarios: Iterable[IncastScenario]
    ) -> Iterator[tuple[int, IncastResult | RunFailure]]:
        """Run every scenario, yielding ``(index, entry)`` as cells finish.

        Every index is yielded exactly once: cache hits first (in input
        order), then the misses in completion order.  ``entry`` is the
        :class:`~repro.experiments.runner.IncastResult`, or a
        :class:`RunFailure` when the run was quarantined; failures are
        never written to the cache, so a re-run retries them from scratch.
        """
        start = time.perf_counter()
        scenarios = list(scenarios)
        keys = [self._cache_key(scenario) for scenario in scenarios]
        total = len(scenarios)
        done = 0
        misses: list[int] = []
        try:
            for i, key in enumerate(keys):
                cached = self._lookup(key)
                if cached is None:
                    misses.append(i)
                    continue
                cached.from_cache = True
                self.stats.cache_hits += 1
                done += 1
                self._record(scenarios[i], "cached", 0, 0.0, done, total)
                yield i, cached
            for i, (status, payload, attempts, elapsed) in self._dispatch(
                scenarios, keys, misses
            ):
                self.stats.cache_misses += 1
                self.stats.retries += attempts - 1
                done += 1
                self._record(scenarios[i], status, attempts, elapsed, done, total)
                if status == "ok":
                    self.stats.sim_wall_seconds += payload.wall_seconds
                    self._store(keys[i], payload)
                    yield i, payload
                else:
                    self.stats.failures += 1
                    yield i, RunFailure(
                        scenario=scenarios[i],
                        kind=status,
                        message=str(payload),
                        attempts=attempts,
                        elapsed_seconds=elapsed,
                    )
        finally:
            self.stats.tasks += done
            self.stats.wall_seconds += time.perf_counter() - start

    def run_incasts_detailed(
        self, scenarios: Sequence[IncastScenario]
    ) -> list[IncastResult | RunFailure]:
        """The positional collect of :meth:`stream`.

        Slot ``i`` always describes ``scenarios[i]``, whether it
        succeeded, was served from cache, or was quarantined.
        """
        scenarios = list(scenarios)
        results: list[Any] = [None] * len(scenarios)
        for index, entry in self.stream(scenarios):
            results[index] = entry
        return results

    def run_incasts(self, scenarios: Sequence[IncastScenario]) -> list[IncastResult]:
        """Run every scenario (cache-aware), results in input order.

        Raises :class:`ExperimentError` if any run fails — callers that
        want partial results use :meth:`run_incasts_detailed` instead.
        """
        results = self.run_incasts_detailed(scenarios)
        for entry in results:
            if isinstance(entry, RunFailure):
                raise ExperimentError(
                    f"run failed ({entry.kind}) for scheme="
                    f"{entry.scenario.scheme!r} seed={entry.scenario.seed}: "
                    f"{entry.message}"
                )
        return results  # type: ignore[return-value]  # all IncastResult here

    # -- backend hook --------------------------------------------------------

    def _dispatch(
        self,
        scenarios: Sequence[IncastScenario],
        keys: Sequence[str | None],
        misses: Sequence[int],
    ) -> Iterator[tuple[int, Outcome]]:
        """Execute ``scenarios[i]`` for every ``i`` in ``misses``.

        Yields ``(i, outcome)`` exactly once per miss, in completion
        order.  ``keys`` covers the whole batch (hits included) for
        engines that journal it; it is called even when ``misses`` is
        empty, so an all-hits pass is journaled too, and an empty fan-out
        starts no pool.
        """
        for j, outcome in self._fan_out(
            _RunTask(self.options), [scenarios[i] for i in misses]
        ):
            yield misses[j], outcome

    # -- cache and telemetry (the one site each) -----------------------------

    def _cache_key(self, scenario: IncastScenario) -> str | None:
        """The scenario's cache key; None when this run must not be cached."""
        if self.cache is None or self.options.bypasses_cache:
            return None
        return scenario_key(scenario, self.options)

    def _lookup(self, key: str | None) -> IncastResult | None:
        if key is None or self.cache is None:
            return None
        value = self.cache.get(key)
        return value if isinstance(value, IncastResult) else None

    def _store(self, key: str | None, result: IncastResult) -> None:
        if key is None or self.cache is None:
            return
        try:
            self.cache.put(key, result)
        except OSError:  # read-only filesystem: run uncached, don't fail
            pass

    def _record(
        self, scenario: IncastScenario, status: str, attempts: int,
        elapsed: float, done: int, total: int,
    ) -> None:
        if self.telemetry is not None:
            self.telemetry.record(scenario, status, attempts, elapsed)
            self.telemetry.on_progress(done, total)


class _RunTask:
    """Picklable ``run_incast`` closure carrying the engine's run options."""

    def __init__(self, options: RunOptions) -> None:
        self.options = options

    def __call__(self, scenario: IncastScenario) -> IncastResult:
        return run_incast(scenario, options=self.options)
