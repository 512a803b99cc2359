"""Distributed sweep service: a shardable work queue over scenario grids.

ROADMAP item 4's execution layer.  A :class:`~repro.experiments.grid.
GridSpec` names every cell of a campaign; this module runs those cells
across N worker *processes* on M hosts with nothing beyond the standard
library:

* :class:`WorkQueue` — a SQLite journal of cells (``pending → leased →
  done | failed``) with lease/ack/requeue semantics.  Completion is
  exactly-once (a guarded ``UPDATE ... WHERE status != 'done'``), leases
  expire so a SIGKILLed worker's cells requeue, and a cell that burns
  :data:`MAX_CELL_ATTEMPTS` leases is quarantined as a ``worker-crash``
  failure instead of looping forever.
* :class:`Coordinator` — one batch's dispatcher: it owns the journal and
  a JSON-lines-over-TCP endpoint (one request per connection).  Workers
  ``hello`` for the run parameters, ``lease`` cells (spec documents
  travel over the wire, so a worker on another host rebuilds the exact
  scenarios), and ``ack`` completions.  Results never cross the socket:
  a worker writes into the shared on-disk
  :class:`~repro.experiments.parallel.ResultCache` *before* acking, and
  the coordinator reads the entry back — so an ack is proof the result
  is durable, and a crash between the two costs one re-run, never a
  wrong answer.  :meth:`Coordinator.dispatch` yields each cell's outcome
  exactly once, as it reaches a terminal state.
* :class:`QueueEngine` — an ordinary
  :class:`~repro.experiments.parallel.ExperimentEngine` whose
  ``_dispatch`` is a :class:`Coordinator`.  Everything else — cache
  lookup, :class:`~repro.experiments.parallel.RunFailure` construction,
  stats, telemetry, the streaming hand-off to the bounded-memory
  :class:`~repro.experiments.grid.GridFold` — is the base engine's
  ``stream``, so every driver gains ``--backend queue`` for free.
* resumability — kill the coordinator or any worker at any point and
  restart with the same batch: the result cache serves the completed
  cells, the journal requeues the rest, only the missing ones execute,
  and the final digest is bit-identical to an uninterrupted serial run
  (the fold is order-independent and the simulations are pure functions
  of their scenarios).

:func:`main` is the ``python -m repro service`` CLI (``spec`` /
``coordinate`` / ``work`` / ``status``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import signal
import socket
import socketserver
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import ExperimentError
from repro.experiments.grid import (
    GridSpec,
    run_grid,
    scenario_from_doc,
    scenario_to_doc,
)
from repro.experiments.parallel import (
    ExperimentEngine,
    Outcome,
    ResultCache,
    _GuardedTask,
    _RunTask,
    scenario_key,
)
from repro.experiments.runner import IncastResult, IncastScenario
from repro.metrics.config import DEFAULT_METRICS
from repro.telemetry.options import RunOptions

#: A lease not acked within this window is considered abandoned (the
#: worker died or hung) and its cell requeues.  Must comfortably exceed
#: one run's wall clock; drivers pass tighter values in tests.
DEFAULT_LEASE_TTL_S = 60.0

#: Leases one cell may burn before it is quarantined as a worker-crash
#: failure — the queue analogue of the pool's isolation re-run: a cell
#: that keeps killing workers must not starve the rest of the grid.
MAX_CELL_ATTEMPTS = 3

#: How long an idle worker sleeps between empty leases.
WORKER_IDLE_SLEEP_S = 0.2

#: Socket timeout for one request/response exchange.
REQUEST_TIMEOUT_S = 30.0


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
    """SQLite-journaled cell queue with lease/ack/requeue semantics.

    One writer connection guarded by a lock (handler threads serialize
    here); WAL mode so a concurrent ``status`` reader never blocks.  The
    journal is the *only* scheduling truth — the coordinator process can
    die at any instruction and a restart resumes from the last committed
    transition.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock:
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
        with self._lock:
            self._db.close()

    def initialize(self, fingerprint: str, keys: Sequence[str]) -> None:
        """Bind the journal to one batch and make every cell schedulable.

        Refuses a fingerprint mismatch (resuming against a different grid
        would complete the wrong cells).  Stale leases from a crashed
        coordinator and failures from an earlier attempt both reset to
        pending with a fresh attempt budget — a resume is a clean slate
        for everything not already done.
        """
        with self._lock:
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
        with self._lock:
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

        The ``status != 'done'`` guard is the exactly-once edge: two
        workers racing the same requeued cell both cached identical
        results, but only one ack flips the row and is delivered.
        """
        with self._lock:
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
        with self._lock:
            cur = self._db.execute(
                "UPDATE cells SET status = 'failed', kind = ?, message = ?,"
                " worker = NULL, lease_expires = NULL, elapsed = ?"
                " WHERE idx = ? AND status NOT IN ('done', 'failed')",
                (kind, message, elapsed, index),
            )
            self._db.commit()
            return cur.rowcount == 1

    def release(self, worker: str) -> int:
        """Requeue every cell ``worker`` holds (its process was seen dead)."""
        with self._lock:
            cur = self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL WHERE status = 'leased' AND worker = ?",
                (worker,),
            )
            self._db.commit()
            return cur.rowcount

    def reset_to_pending(self, index: int) -> None:
        """Force one cell schedulable again (e.g. journal-done, cache-lost)."""
        with self._lock:
            self._db.execute(
                "UPDATE cells SET status = 'pending', worker = NULL,"
                " lease_expires = NULL, source = NULL WHERE idx = ?",
                (index,),
            )
            self._db.commit()

    def cell_status(self, index: int) -> str:
        with self._lock:
            row = self._db.execute(
                "SELECT status FROM cells WHERE idx = ?", (index,)
            ).fetchone()
        if row is None:
            raise ExperimentError(f"journal has no cell {index}")
        return str(row[0])

    def counts(self) -> dict[str, int]:
        """``status -> cell count`` (absent statuses omitted)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT status, COUNT(*) FROM cells GROUP BY status"
            ).fetchall()
        return {str(status): int(count) for status, count in rows}

    def failed_cells(self) -> list[tuple[int, str, str, int, float]]:
        """Every failed cell: (index, kind, message, attempts, elapsed)."""
        with self._lock:
            rows = self._db.execute(
                "SELECT idx, kind, message, attempts, elapsed FROM cells"
                " WHERE status = 'failed' ORDER BY idx"
            ).fetchall()
        return [
            (int(i), str(kind or "worker-crash"), str(message or ""),
             int(attempts or 1), float(elapsed or 0.0))
            for i, kind, message, attempts, elapsed in rows
        ]

    def all_terminal(self) -> bool:
        """True when no cell is pending or leased."""
        with self._lock:
            row = self._db.execute(
                "SELECT COUNT(*) FROM cells"
                " WHERE status NOT IN ('done', 'failed')"
            ).fetchone()
        return int(row[0]) == 0


# ---------------------------------------------------------------------------
# Wire protocol (JSON lines over TCP, one request per connection)
# ---------------------------------------------------------------------------

def _request(
    host: str, port: int, doc: dict[str, Any],
    timeout_s: float = REQUEST_TIMEOUT_S,
) -> dict[str, Any]:
    """One request/response exchange with the coordinator."""
    with socket.create_connection((host, port), timeout=timeout_s) as conn:
        conn.sendall((json.dumps(doc) + "\n").encode())
        with conn.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise OSError("coordinator closed the connection without replying")
    response = json.loads(line.decode())
    if not response.get("ok"):
        raise ExperimentError(
            f"coordinator rejected {doc.get('op')!r}: {response.get('error')}"
        )
    return response


class _QueueServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    coordinator: "Coordinator"


class _QueueRequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        line = self.rfile.readline()
        if not line:
            return
        try:
            request = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            response: dict[str, Any] = {"ok": False, "error": f"bad request: {exc}"}
        else:
            response = self.server.coordinator.handle(request)  # type: ignore[attr-defined]
        self.wfile.write((json.dumps(response) + "\n").encode())


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

class Coordinator:
    """One batch's dispatcher: journal, TCP endpoint, worker supervision.

    ``keys`` are the cache keys of the whole batch, in order (they name
    the journal, so a restart finds the same file); ``docs`` maps each
    index the engine could not serve from the cache to its scenario
    document.  The engine computes the keys (workers never hash scenarios,
    so a version-skewed worker cannot poison the cache under a wrong key)
    and a worker on any host rebuilds the scenario from the document with
    :func:`~repro.experiments.grid.scenario_from_doc`.  :meth:`dispatch`
    runs the ``docs`` cells through the journaled queue and yields each
    one's outcome exactly once.  The guard parameters, cache, endpoint
    address and lease TTL come from the owning :class:`QueueEngine`,
    whose ``workers=0`` spawns nothing and waits for external workers
    (``python -m repro service work --host … --port …`` on any host that
    shares the cache directory).
    """

    def __init__(
        self,
        engine: "QueueEngine",
        keys: Sequence[str],
        docs: dict[int, Any],
    ) -> None:
        if not docs:
            raise ExperimentError("the coordinator needs at least one cell")
        assert engine.cache is not None
        self.engine = engine
        self.cache = engine.cache
        self.keys = list(keys)
        self.docs = docs
        self.workers = engine.spawn
        self.host = engine.host
        self.port = engine.port

        self.journal: WorkQueue | None = None
        self._shutdown = threading.Event()
        #: acked cells on their way to :meth:`dispatch` (handler threads put).
        self._acked: "queue.Queue[tuple[int, Outcome]]" = queue.Queue()
        self._executed = 0
        self._procs: list[tuple[str, subprocess.Popen]] = []
        self._released: set[str] = set()
        self._worker_seq = 0

    # -- lifecycle ----------------------------------------------------------

    def dispatch(self) -> Iterator[tuple[int, Outcome]]:
        """Drive the pending cells to completion, yielding as they finish."""
        self.journal = WorkQueue(journal_path_for(self.cache, self.keys))
        try:
            self.journal.initialize(batch_fingerprint(self.keys), self.keys)
            self._sync_journal()
            yield from self._serve()
        finally:
            self.journal.close()

    def _sync_journal(self) -> None:
        """Square the journal with what the cache could (not) serve.

        A cell the engine served from the cache is done whoever ran it
        (an earlier queue pass or a serial run); a journal-done cell
        whose cache entry vanished is reset to pending so it runs again
        rather than leaving a hole in the fold.
        """
        assert self.journal is not None
        for index in range(len(self.keys)):
            if index not in self.docs:
                self.journal.complete(index, source="cache")
            elif self.journal.cell_status(index) == "done":
                self.journal.reset_to_pending(index)

    def _serve(self) -> Iterator[tuple[int, Outcome]]:
        server = _QueueServer((self.host, self.port), _QueueRequestHandler)
        server.coordinator = self
        self.port = int(server.server_address[1])
        thread = threading.Thread(
            target=server.serve_forever, name="queue-server", daemon=True
        )
        thread.start()
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            yield from self._monitor()
        finally:
            self._shutdown.set()
            self._drain_workers()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

    def _monitor(self) -> Iterator[tuple[int, Outcome]]:
        """Yield terminal cells while watching the journal and the workers.

        Acked cells arrive from the handler threads; failed ones (a
        worker's failure ack, the lease attempt cap, a spent respawn
        budget) are read off the journal.  A dead worker's leases requeue
        immediately (no need to wait out the TTL) and the pool refills
        within the respawn budget; when the budget is spent and nobody is
        left, the remaining cells fail terminally rather than hanging the
        coordinator forever.
        """
        assert self.journal is not None
        remaining = set(self.docs)
        budget = self.workers * 2
        next_check = 0.0
        while remaining:
            try:
                index, outcome = self._acked.get(timeout=0.05)
            except queue.Empty:
                pass
            else:
                if index in remaining:  # a late ack may race a quarantine
                    remaining.discard(index)
                    yield index, outcome
            if time.monotonic() < next_check:
                continue
            next_check = time.monotonic() + 0.05
            live = 0
            for worker_id, proc in self._procs:
                if proc.poll() is None:
                    live += 1
                elif worker_id not in self._released:
                    self._released.add(worker_id)
                    self.journal.release(worker_id)
            if self.workers > 0:
                while live < self.workers and len(self._procs) < budget:
                    self._spawn_worker()
                    live += 1
                if live == 0:
                    for index in sorted(remaining):
                        self.journal.fail(
                            index, "worker-crash",
                            "no workers left (respawn budget exhausted)",
                        )
            for index, kind, message, attempts, elapsed in (
                self.journal.failed_cells()
            ):
                if index in remaining:
                    remaining.discard(index)
                    yield index, (kind, message, attempts, elapsed)

    def _spawn_worker(self) -> None:
        self._worker_seq += 1
        worker_id = f"local-{os.getpid()}-{self._worker_seq}"
        command = [
            sys.executable, "-m", "repro", "service", "work",
            "--host", self.host, "--port", str(self.port),
            "--worker-id", worker_id,
        ]
        self._procs.append((worker_id, subprocess.Popen(command)))

    def _drain_workers(self) -> None:
        for _worker_id, proc in self._procs:
            if proc.poll() is not None:
                continue
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    proc.wait()

    # -- protocol -----------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one worker request (called from handler threads)."""
        try:
            op = request.get("op")
            if op == "hello":
                return {
                    "ok": True,
                    "cache_dir": str(self.cache.root),
                    "run": {
                        "timeout_s": self.engine.run_timeout_s,
                        "max_attempts": self.engine.max_attempts,
                        "backoff_s": self.engine.retry_backoff_s,
                    },
                }
            if op == "lease":
                return self._handle_lease(request)
            if op == "ack":
                return self._handle_ack(request)
            if op == "status":
                assert self.journal is not None
                return {"ok": True, "counts": self.journal.counts()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle_lease(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self.journal is not None
        if self._shutdown.is_set():
            return {"ok": True, "cells": [], "shutdown": True}
        worker = str(request.get("worker", "?"))
        limit = max(1, int(request.get("limit", 1)))
        leased = self.journal.lease(worker, limit, self.engine.lease_ttl_s)
        cells = [
            {"idx": index, "key": key, "scenario": self.docs[index]}
            for index, key in leased
        ]
        if not cells and self.journal.all_terminal():
            self._shutdown.set()
        return {
            "ok": True,
            "cells": cells,
            "shutdown": self._shutdown.is_set(),
        }

    def _handle_ack(self, request: dict[str, Any]) -> dict[str, Any]:
        assert self.journal is not None
        index = int(request["idx"])
        if not 0 <= index < len(self.keys):
            return {"ok": False, "error": f"no such cell {index}"}
        status = str(request.get("status", ""))
        attempts = int(request.get("attempts", 1))
        elapsed = float(request.get("elapsed", 0.0))
        if status != "ok":
            self.journal.fail(
                index, status, str(request.get("message", "")), elapsed
            )
            return {"ok": True}
        value = self.engine._lookup(self.keys[index])
        if value is None:
            # acked without a durable result (cache raced away?):
            # treat as never-happened and let it requeue.
            self.journal.reset_to_pending(index)
        elif self.journal.complete(index, source="executed", elapsed=elapsed):
            self._acked.put((index, ("ok", value, attempts, elapsed)))
            self._executed += 1
            kill_after = self.engine.kill_after
            if kill_after is not None and self._executed >= kill_after:
                # crash-recovery hook: die *after* the journal commit,
                # exactly like a power loss mid-campaign.
                os.kill(os.getpid(), signal.SIGKILL)
        return {"ok": True}


# ---------------------------------------------------------------------------
# The worker loop
# ---------------------------------------------------------------------------

def run_worker(
    host: str,
    port: int,
    worker_id: str | None = None,
    *,
    max_cells: int | None = None,
    idle_sleep_s: float = WORKER_IDLE_SLEEP_S,
) -> int:
    """Lease, simulate, cache, ack — until the coordinator says shutdown.

    The result is written to the shared cache *before* the ack, so the
    coordinator only ever marks durable work done.  A vanished
    coordinator (connection refused mid-campaign) is a clean exit: every
    completed cell is journaled, every leased one will requeue.
    """
    from repro import competitors

    competitors.install()  # scenario docs may name plug-in schemes
    worker_id = worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
    try:
        hello = _request(host, port, {"op": "hello", "worker": worker_id})
    except OSError as exc:
        print(
            f"[service] worker {worker_id}: coordinator unreachable "
            f"at {host}:{port} ({exc})",
            file=sys.stderr,
        )
        return 1
    cache = ResultCache(hello["cache_dir"])
    run = hello["run"]
    task = _GuardedTask(
        _RunTask(RunOptions()),
        run.get("timeout_s"),
        int(run.get("max_attempts", 2)),
        float(run.get("backoff_s", 0.05)),
    )
    executed = 0
    while True:
        try:
            response = _request(
                host, port, {"op": "lease", "worker": worker_id, "limit": 1}
            )
        except OSError:
            return 0  # coordinator gone; journaled state survives
        cells = response.get("cells", [])
        if not cells:
            if response.get("shutdown"):
                return 0
            time.sleep(idle_sleep_s)
            continue
        for cell in cells:
            scenario = scenario_from_doc(cell["scenario"])
            status, payload, attempts, elapsed = task(scenario)
            ack: dict[str, Any] = {
                "op": "ack",
                "worker": worker_id,
                "idx": cell["idx"],
                "status": status,
                "attempts": attempts,
                "elapsed": elapsed,
            }
            if status == "ok":
                cache.put(cell["key"], payload)  # durable BEFORE the ack
            else:
                ack["message"] = str(payload)
            try:
                _request(host, port, ack)
            except OSError:
                return 0
            executed += 1
            if max_cells is not None and executed >= max_cells:
                return 0


# ---------------------------------------------------------------------------
# The engine wrapper: --backend queue for every driver
# ---------------------------------------------------------------------------

class QueueEngine(ExperimentEngine):
    """An :class:`ExperimentEngine` that dispatches through the work queue.

    Same ``stream`` as the pool engine — cache-aware, quarantined
    failures, stats, telemetry — but the cache misses of each batch become
    a journaled campaign run by worker processes, so any driver's sweep is
    killable and resumable.  Requires a cache (workers hand results back
    through it) and cache-compatible run options.  ``workers=0`` spawns no
    local workers and waits for external ones to join ``host:port``.
    """

    def __init__(
        self,
        workers: int | None = 2,
        cache: ResultCache | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        kill_after: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(workers=workers, cache=cache, **kwargs)
        if self.cache is None:
            raise ExperimentError(
                "the queue backend requires a result cache "
                "(--no-cache is incompatible): workers hand results "
                "back through it"
            )
        if self.options.bypasses_cache:
            raise ExperimentError(
                "the queue backend cannot run cache-bypassing options "
                "(sanitize/telemetry/probe); use the pool backend"
            )
        if self.options.metrics != DEFAULT_METRICS:
            raise ExperimentError(
                "the queue backend runs workers with default metrics; a "
                "non-default MetricsConfig would key results it cannot "
                "produce — use the pool backend"
            )
        if lease_ttl_s <= 0:
            raise ExperimentError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        #: local worker processes each batch spawns (0 = external only).
        self.spawn = 0 if workers == 0 else self.workers
        self.host = host
        self.port = port
        self.lease_ttl_s = lease_ttl_s
        self.kill_after = kill_after

    def _dispatch(
        self,
        scenarios: Sequence[IncastScenario],
        keys: Sequence[str | None],
        misses: Sequence[int],
    ) -> Iterator[tuple[int, Outcome]]:
        if None in keys:
            raise ExperimentError(
                f"the queue backend cannot run scenario {keys.index(None)}: "
                f"cache-bypassing options leave it no cache key to hand its "
                f"result back under"
            )
        docs = {index: scenario_to_doc(scenarios[index]) for index in misses}
        return Coordinator(self, keys, docs).dispatch()

    def _store(self, key: str | None, result: IncastResult) -> None:
        """Nothing to do: the worker wrote the entry before it acked."""


# ---------------------------------------------------------------------------
# CLI: python -m repro service {spec, coordinate, work, status}
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

    competitors.install()
    spec = _load_spec(args.spec)
    shared: dict[str, Any] = dict(
        cache=ResultCache(args.cache_dir),
        run_timeout_s=args.run_timeout,
        telemetry=SweepTelemetry() if args.progress else None,
    )
    engine = (
        ExperimentEngine(workers=1, **shared)
        if args.serial
        else QueueEngine(
            workers=args.workers, host=args.host, port=args.port,
            lease_ttl_s=args.lease_ttl, kill_after=args.kill_after, **shared,
        )
    )
    points = run_grid(spec, engine=engine)
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

    competitors.install()
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
    for status in ("pending", "leased", "done", "failed"):
        print(f"  {status}: {counts.get(status, 0)}")
    done = counts.get("done", 0)
    print(f"status: {done}/{len(keys)} done")


def main(argv: Sequence[str] | None = None) -> None:
    """CLI entry point for the sweep service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="distributed sweep service: declare a grid, coordinate "
                    "a work queue over it, join as a worker, or inspect "
                    "progress",
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
        help="local worker processes to spawn (0 = external workers only)",
    )
    coord_p.add_argument("--host", default="127.0.0.1")
    coord_p.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned")
    coord_p.add_argument(
        "--run-timeout", type=float, default=None, metavar="S",
        help="per-run wall-clock deadline inside workers",
    )
    coord_p.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL_S, metavar="S",
        help="unacked leases requeue after this long",
    )
    coord_p.add_argument(
        "--serial", action="store_true",
        help="reference mode: run the grid on the in-process serial engine "
             "(no queue) and print the same digest/summary lines",
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

    work_p = sub.add_parser(
        "work", help="join a coordinator as a worker process")
    work_p.add_argument("--host", default="127.0.0.1")
    work_p.add_argument("--port", type=int, required=True)
    work_p.add_argument("--worker-id", default=None)
    work_p.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after executing this many cells (testing)",
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
        elif args.command == "work":
            raise SystemExit(
                run_worker(
                    args.host, args.port, args.worker_id,
                    max_cells=args.max_cells,
                )
            )
        elif args.command == "status":
            _status(args)
    except ExperimentError as exc:
        parser.exit(2, f"error: {exc}\n")
