"""Sweep service: a journaled, killable, resumable run over a scenario grid.

A :class:`~repro.experiments.grid.GridSpec` names every cell of a
campaign; this module runs those cells on the pool engine and journals
each one's progress:

* :class:`WorkQueue` — a SQLite journal of cells (``pending → done |
  failed``, plus ``leased`` for callers that hand cells out one by one).
  Completion is exactly-once (a guarded ``UPDATE ... WHERE status !=
  'done'``), and reopening the journal resets everything not done to
  pending.
* :class:`QueueEngine` — the pool
  :class:`~repro.experiments.parallel.ExperimentEngine` plus that
  journal.  Each batch's cache misses run through the base engine's
  dispatch (:func:`~repro.experiments.parallel.guarded_fanout` on the
  fork pool); a result is written to the cache *before* its cell is
  marked done, so a done cell is proof the result is durable.
* resumability — kill the coordinating process at any point and restart
  with the same batch: the result cache serves the completed cells, the
  journal resets the rest, only the missing ones execute, and the final
  digest is bit-identical to an uninterrupted serial run (the fold is
  order-independent and the simulations are pure functions of their
  scenarios).  The pool's workers exit with their parent.
* across hosts — run ``GridSpec.shard(i, n)`` on each host against one
  shared cache directory, then one ``coordinate`` pass over the whole
  grid, which is all cache hits.

:func:`main` is the ``python -m repro service`` CLI (``spec`` /
``coordinate`` / ``status``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import sqlite3
import time
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import ExperimentError
from repro.experiments.grid import GridSpec, run_grid
from repro.experiments.parallel import (
    ExperimentEngine,
    Outcome,
    ResultCache,
    scenario_key,
)
from repro.experiments.runner import IncastResult, IncastScenario

#: Leases one cell may burn before :meth:`WorkQueue.lease` quarantines it
#: as a worker-crash failure: a cell that keeps killing its runner must
#: not starve the rest of the grid.
MAX_CELL_ATTEMPTS = 3


def batch_fingerprint(keys: Sequence[str]) -> str:
    """Identity of one batch: the ordered cell keys, hashed."""
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def journal_path_for(cache: ResultCache, keys: Sequence[str]) -> Path:
    """Where the journal for this batch lives (inside the cache tree)."""
    return cache.root / "queue" / f"{batch_fingerprint(keys)[:16]}.db"


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

class WorkQueue:
    """SQLite journal of one batch's cells with lease/complete/fail semantics.

    WAL mode, so a concurrent ``status`` reader never blocks.  The journal
    is the *only* scheduling truth — the owning process can die at any
    instruction and a restart resumes from the last committed transition.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(str(self.path))
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            " name TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS cells ("
            " idx INTEGER PRIMARY KEY,"
            " key TEXT NOT NULL,"
            " status TEXT NOT NULL DEFAULT 'pending',"
            " worker TEXT,"
            " lease_expires REAL,"
            " attempts INTEGER NOT NULL DEFAULT 0,"
            " source TEXT,"
            " kind TEXT,"
            " message TEXT,"
            " elapsed REAL)"
        )
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    def initialize(self, fingerprint: str, keys: Sequence[str]) -> None:
        """Bind the journal to one batch and make every cell schedulable.

        Refuses a fingerprint mismatch (resuming against a different grid
        would complete the wrong cells).  Stale leases and failures from
        an earlier attempt both reset to pending with a fresh attempt
        budget — a resume is a clean slate for everything not already done.
        """
        row = self._db.execute(
            "SELECT value FROM meta WHERE name = 'fingerprint'"
        ).fetchone()
        if row is not None and row[0] != fingerprint:
            raise ExperimentError(
                f"journal {self.path} belongs to a different grid "
                f"(fingerprint {row[0][:16]}… != {fingerprint[:16]}…); "
                f"delete it or use another --cache-dir"
            )
        self._db.execute(
            "INSERT OR REPLACE INTO meta (name, value) VALUES "
            "('fingerprint', ?)",
            (fingerprint,),
        )
        self._db.executemany(
            "INSERT OR IGNORE INTO cells (idx, key) VALUES (?, ?)",
            list(enumerate(keys)),
        )
        self._db.execute(
            "UPDATE cells SET status = 'pending', worker = NULL,"
            " lease_expires = NULL, attempts = 0, kind = NULL,"
            " message = NULL WHERE status IN ('leased', 'failed')"
        )
        self._db.commit()

    def lease(
        self,
        worker: str,
        limit: int,
        ttl_s: float,
        *,
        max_cell_attempts: int = MAX_CELL_ATTEMPTS,
        now: float | None = None,
    ) -> list[tuple[int, str]]:
        """Grant up to ``limit`` pending cells to ``worker``.

        Expired leases requeue first; a requeued cell whose attempt budget
        is spent flips to a terminal ``worker-crash`` failure instead of
        being granted again.  Returns ``(index, key)`` pairs.
        """
        now = time.time() if now is None else now
        self._db.execute(
            "UPDATE cells SET status = 'pending', worker = NULL,"
            " lease_expires = NULL"
            " WHERE status = 'leased' AND lease_expires < ?",
            (now,),
        )
        self._db.execute(
            "UPDATE cells SET status = 'failed', kind = 'worker-crash',"
            " message = 'lease expired ' || attempts || ' times"
            " (worker died or hung mid-run)'"
            " WHERE status = 'pending' AND attempts >= ?",
            (max_cell_attempts,),
        )
        rows = self._db.execute(
            "SELECT idx, key FROM cells WHERE status = 'pending'"
            " ORDER BY idx LIMIT ?",
            (limit,),
        ).fetchall()
        for index, _key in rows:
            self._db.execute(
                "UPDATE cells SET status = 'leased', worker = ?,"
                " lease_expires = ?, attempts = attempts + 1"
                " WHERE idx = ?",
                (worker, now + ttl_s, index),
            )
        self._db.commit()
        return [(int(i), str(k)) for i, k in rows]

    def complete(
        self, index: int, *, source: str, elapsed: float | None = None
    ) -> bool:
        """Record cell ``index`` done; True only for the *first* completion.

        The ``status != 'done'`` guard is the exactly-once edge: a cell
        completed twice (a served-from-cache pass after an executed one)
        keeps its first record.
        """
        cur = self._db.execute(
            "UPDATE cells SET status = 'done', source = ?, worker = NULL,"
            " lease_expires = NULL, kind = NULL, message = NULL,"
            " elapsed = ? WHERE idx = ? AND status != 'done'",
            (source, elapsed, index),
        )
        self._db.commit()
        return cur.rowcount == 1

    def fail(
        self, index: int, kind: str, message: str,
        elapsed: float | None = None,
    ) -> bool:
        """Record a terminal failure; True only on the first transition."""
        cur = self._db.execute(
            "UPDATE cells SET status = 'failed', kind = ?, message = ?,"
            " worker = NULL, lease_expires = NULL, elapsed = ?"
            " WHERE idx = ? AND status NOT IN ('done', 'failed')",
            (kind, message, elapsed, index),
        )
        self._db.commit()
        return cur.rowcount == 1

    def reset_to_pending(self, index: int) -> None:
        """Force one cell schedulable again (e.g. journal-done, cache-lost)."""
        self._db.execute(
            "UPDATE cells SET status = 'pending', worker = NULL,"
            " lease_expires = NULL, source = NULL WHERE idx = ?",
            (index,),
        )
        self._db.commit()

    def cell_status(self, index: int) -> str:
        row = self._db.execute(
            "SELECT status FROM cells WHERE idx = ?", (index,)
        ).fetchone()
        if row is None:
            raise ExperimentError(f"journal has no cell {index}")
        return str(row[0])

    def counts(self) -> dict[str, int]:
        """``status -> cell count`` (absent statuses omitted)."""
        rows = self._db.execute(
            "SELECT status, COUNT(*) FROM cells GROUP BY status"
        ).fetchall()
        return {str(status): int(count) for status, count in rows}


# ---------------------------------------------------------------------------
# The engine: the pool plus its journal
# ---------------------------------------------------------------------------

class QueueEngine(ExperimentEngine):
    """The pool engine, with every batch's misses journaled in a :class:`WorkQueue`.

    Same ``stream`` and the same dispatch as the pool engine — cache-aware,
    quarantined failures, stats, telemetry, :func:`~repro.experiments.
    parallel.guarded_fanout` on the fork pool — but each outcome is
    journaled as it lands: a result is written to the cache *before* its
    cell is marked done, a failure is recorded as terminal.  ``service
    status`` reads that journal while a campaign runs, and a killed
    campaign resumes from it with only the missing cells executed.
    Requires a cache (the journal is keyed by the cells' cache keys) and
    cache-compatible run options.
    """

    def __init__(
        self,
        workers: int | None = 2,
        cache: ResultCache | None = None,
        *,
        kill_after: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(workers=workers, cache=cache, **kwargs)
        if self.cache is None:
            raise ExperimentError(
                "the journaled engine requires a result cache: its journal "
                "is keyed by the cells' cache keys"
            )
        if self.options.bypasses_cache:
            raise ExperimentError(
                "the journaled engine cannot run cache-bypassing options "
                "(sanitize/telemetry/probe); use ExperimentEngine"
            )
        #: SIGKILL this process after that many executed cells are
        #: journaled (crash-recovery drills).
        self.kill_after = kill_after

    def _dispatch(
        self,
        scenarios: Sequence[IncastScenario],
        keys: Sequence[str | None],
        misses: Sequence[int],
    ) -> Iterator[tuple[int, Outcome]]:
        if None in keys:
            raise ExperimentError(
                f"the journaled engine cannot run scenario {keys.index(None)}: "
                f"cache-bypassing options leave it no cache key to journal"
            )
        assert self.cache is not None
        journal = WorkQueue(journal_path_for(self.cache, keys))
        try:
            journal.initialize(batch_fingerprint(keys), keys)
            _sync_journal(journal, len(keys), set(misses))
            executed = 0
            for index, outcome in super()._dispatch(scenarios, keys, misses):
                status, payload, _attempts, elapsed = outcome
                if status == "ok":
                    self.cache.put(keys[index], payload)  # durable BEFORE done
                    journal.complete(index, source="executed", elapsed=elapsed)
                    executed += 1
                    if self.kill_after is not None and executed >= self.kill_after:
                        # crash-recovery hook: die *after* the journal
                        # commit, exactly like a power loss mid-campaign.
                        os.kill(os.getpid(), signal.SIGKILL)
                else:
                    journal.fail(index, status, str(payload), elapsed)
                yield index, outcome
        finally:
            journal.close()

    def _store(self, key: str | None, result: IncastResult) -> None:
        """Nothing to do: :meth:`_dispatch` stored the entry before journaling it."""


def _sync_journal(journal: WorkQueue, cells: int, misses: set[int]) -> None:
    """Square the journal with what the cache could (not) serve.

    A cell the engine served from the cache is done whoever ran it (an
    earlier pass or a serial run); a journal-done cell whose cache entry
    vanished is reset to pending so it runs again rather than leaving a
    hole in the fold.
    """
    for index in range(cells):
        if index not in misses:
            journal.complete(index, source="cache")
        elif journal.cell_status(index) == "done":
            journal.reset_to_pending(index)


# ---------------------------------------------------------------------------
# CLI: python -m repro service {spec, coordinate, status}
# ---------------------------------------------------------------------------

#: Grids the CLI can declare by name (small, CI-sized).
NAMED_GRIDS = ("bakeoff-smoke", "degree-smoke")


def named_grid(name: str, reps: int = 2, seed0: int = 0) -> GridSpec:
    """Build one of the CLI's named smoke grids."""
    from repro.units import kilobytes, milliseconds

    if name == "bakeoff-smoke":
        from repro.experiments.bakeoff import (
            bakeoff_base_scenario,
            bakeoff_grid_spec,
        )

        return bakeoff_grid_spec(
            bakeoff_base_scenario(total_bytes=kilobytes(200)),
            degrees=(4,),
            delays_ps=(milliseconds(1),),
            buffer_scales=(1.0,),
            schemes=("baseline", "naive", "streamlined"),
            reps=reps,
            seed0=seed0,
        )
    if name == "degree-smoke":
        from repro.experiments.bakeoff import bakeoff_base_scenario
        from repro.experiments.sweeps import degree_sweep_spec

        return degree_sweep_spec(
            bakeoff_base_scenario(total_bytes=kilobytes(200)),
            degrees=(2, 4),
            reps=reps,
            seed0=seed0,
        )
    raise ExperimentError(
        f"unknown named grid {name!r}; available: {', '.join(NAMED_GRIDS)}"
    )


def _load_spec(path: Path) -> GridSpec:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ExperimentError(f"cannot read spec {path}: {exc}") from exc
    return GridSpec.from_json(text)


def _coordinate(args: argparse.Namespace) -> None:
    from repro import competitors
    from repro.experiments.sweeps import sweep_digest
    from repro.telemetry.sweep import SweepTelemetry

    shared: dict[str, Any] = dict(
        cache=ResultCache(args.cache_dir),
        run_timeout_s=args.run_timeout,
        telemetry=SweepTelemetry() if args.progress else None,
    )
    engine = (
        ExperimentEngine(workers=1, **shared)
        if args.serial
        else QueueEngine(
            workers=args.workers, kill_after=args.kill_after, **shared
        )
    )
    with competitors.installed():
        points = run_grid(_load_spec(args.spec), engine=engine)
    stats = engine.stats
    print(f"sweep_digest: {sweep_digest(points)}")
    print(
        f"service: total={stats.tasks} "
        f"executed={stats.cache_misses - stats.failures} "
        f"resumed={stats.cache_hits} failed={stats.failures}"
    )
    if stats.failures:
        raise SystemExit(1)


def _status(args: argparse.Namespace) -> None:
    from repro import competitors

    with competitors.installed():
        spec = _load_spec(args.spec)
        keys = [scenario_key(cell.scenario) for cell in spec.expand()]
    path = journal_path_for(ResultCache(args.cache_dir), keys)
    print(f"grid: {len(keys)} cells, fingerprint {spec.fingerprint()[:16]}…")
    print(f"journal: {path}")
    if not path.exists():
        print("status: no journal yet (nothing scheduled)")
        return
    journal = WorkQueue(path)
    try:
        counts = journal.counts()
    finally:
        journal.close()
    for status in ("pending", "done", "failed"):
        print(f"  {status}: {counts.get(status, 0)}")
    done = counts.get("done", 0)
    print(f"status: {done}/{len(keys)} done")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the sweep service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="sweep service: declare a grid, run it as a journaled, "
                    "resumable campaign, or inspect its progress",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_p = sub.add_parser("spec", help="write a named grid spec as JSON")
    spec_p.add_argument("--grid", choices=NAMED_GRIDS, required=True)
    spec_p.add_argument("--out", type=Path, required=True, metavar="FILE")
    spec_p.add_argument("--reps", type=int, default=2)
    spec_p.add_argument("--seed", type=int, default=0)

    coord_p = sub.add_parser(
        "coordinate",
        help="run a grid to completion (resumable); prints the sweep digest",
    )
    coord_p.add_argument("--spec", type=Path, required=True, metavar="FILE")
    coord_p.add_argument("--cache-dir", type=Path, required=True, metavar="DIR")
    coord_p.add_argument(
        "--workers", type=int, default=2,
        help="pool worker processes (0 = one per CPU)",
    )
    coord_p.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock deadline inside workers",
    )
    coord_p.add_argument(
        "--serial", action="store_true",
        help="reference mode: run the grid on the in-process serial engine "
             "(no journal) and print the same digest/summary lines",
    )
    coord_p.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="SIGKILL the coordinator after N executed cells "
             "(crash-recovery testing)",
    )
    coord_p.add_argument(
        "--progress", action="store_true",
        help="print per-cell telemetry heartbeats",
    )

    status_p = sub.add_parser(
        "status", help="inspect a grid's journal without touching it")
    status_p.add_argument("--spec", type=Path, required=True, metavar="FILE")
    status_p.add_argument(
        "--cache-dir", type=Path, required=True, metavar="DIR")

    args = parser.parse_args(argv)
    try:
        if args.command == "spec":
            grid = named_grid(args.grid, reps=args.reps, seed0=args.seed)
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(grid.to_json() + "\n")
            print(
                f"wrote {args.out}: {args.grid}, {len(grid)} cells, "
                f"fingerprint {grid.fingerprint()[:16]}…"
            )
        elif args.command == "coordinate":
            _coordinate(args)
        elif args.command == "status":
            _status(args)
    except ExperimentError as exc:
        parser.exit(2, f"error: {exc}\n")
