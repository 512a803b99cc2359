"""The distributed sweep service: journal semantics, engine, kill-and-resume."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ExperimentEngine, ResultCache
from repro.experiments.runner import IncastScenario
from repro.experiments.service import (
    Coordinator,
    QueueEngine,
    WorkQueue,
    batch_fingerprint,
    named_grid,
)
from repro.experiments.sweeps import degree_sweep_spec, sweep_digest
from repro.telemetry import RunOptions
from repro.units import kilobytes

KEYS = ["k0", "k1", "k2"]
FP = batch_fingerprint(KEYS)


def _base():
    return IncastScenario(
        degree=2,
        total_bytes=kilobytes(100),
        interdc=small_interdc_config(),
        transport=TransportConfig(payload_bytes=4096),
    )


def _tiny_spec():
    return degree_sweep_spec(
        _base(), (2,), ("baseline", "naive"), reps=2, seed0=0
    )


def _serial_digest(spec, cache_dir):
    engine = ExperimentEngine(workers=1, cache=ResultCache(cache_dir))
    return sweep_digest(run_grid(spec, engine=engine))


class TestWorkQueue:
    def _queue(self, tmp_path, keys=KEYS, fingerprint=FP):
        queue = WorkQueue(tmp_path / "journal.db")
        queue.initialize(fingerprint, keys)
        return queue

    def test_lease_grants_in_index_order(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.lease("w1", 2, 60.0, now=0.0) == [(0, "k0"), (1, "k1")]
        assert queue.lease("w2", 5, 60.0, now=0.0) == [(2, "k2")]
        assert queue.lease("w2", 1, 60.0, now=0.0) == []
        queue.close()

    def test_complete_is_exactly_once(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.lease("w1", 1, 60.0, now=0.0)
        assert queue.complete(0, source="executed", elapsed=0.1)
        assert not queue.complete(0, source="executed", elapsed=0.1)
        assert queue.cell_status(0) == "done"
        queue.close()

    def test_fail_is_terminal_and_first_wins(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.fail(1, "exception", "boom")
        assert not queue.fail(1, "timeout", "late")
        [(index, kind, message, _attempts, _elapsed)] = queue.failed_cells()
        assert (index, kind, message) == (1, "exception", "boom")
        assert not queue.all_terminal()
        queue.complete(0, source="executed")
        queue.complete(2, source="executed")
        assert queue.all_terminal()
        queue.close()

    def test_expired_lease_requeues_with_attempt_count(self, tmp_path):
        queue = self._queue(tmp_path)
        assert queue.lease("w1", 1, 10.0, now=100.0) == [(0, "k0")]
        # Before the TTL the cell stays leased; w2 gets the next one.
        assert queue.lease("w2", 1, 10.0, now=105.0) == [(1, "k1")]
        # Past the TTL the dead worker's cell is granted again.
        assert queue.lease("w3", 3, 10.0, now=111.0) == [(0, "k0"), (2, "k2")]
        queue.close()

    def test_attempt_cap_fails_the_cell_as_worker_crash(self, tmp_path):
        queue = self._queue(tmp_path)
        now = 0.0
        for _ in range(3):  # three granted leases, all expire
            assert (0, "k0") in queue.lease("w", 1, 1.0, now=now)
            queue.release("w")
            now += 10.0
        # The capped cell flips to failed; the grant moves on to the next.
        assert queue.lease("w", 1, 1.0, now=now, max_cell_attempts=3) == [
            (1, "k1")
        ]
        [(index, kind, _message, attempts, _elapsed)] = queue.failed_cells()
        assert (index, kind, attempts) == (0, "worker-crash", 3)
        queue.close()

    def test_release_requeues_a_dead_workers_cells(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.lease("w1", 2, 60.0, now=0.0)
        assert queue.release("w1") == 2
        assert queue.cell_status(0) == "pending"
        assert queue.lease("w2", 1, 60.0, now=0.0) == [(0, "k0")]
        queue.close()

    def test_initialize_rejects_a_different_grid(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.close()
        other = WorkQueue(tmp_path / "journal.db")
        with pytest.raises(ExperimentError, match="different grid"):
            other.initialize(batch_fingerprint(["x"]), ["x"])
        other.close()

    def test_reopen_resets_leases_and_failures_but_keeps_done(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.complete(2, source="executed")
        queue.lease("w1", 1, 60.0, now=0.0)
        queue.fail(1, "exception", "boom")
        queue.close()
        resumed = self._queue(tmp_path)
        assert resumed.counts() == {"pending": 2, "done": 1}
        assert resumed.lease("w2", 1, 60.0, now=0.0) == [(0, "k0")]
        resumed.close()


class TestQueueEngine:
    def test_requires_a_cache(self):
        with pytest.raises(ExperimentError, match="cache"):
            QueueEngine(workers=1, cache=None)

    def test_rejects_cache_bypassing_options(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="cache-bypassing"):
            QueueEngine(
                workers=1, cache=cache, options=RunOptions(sanitize=True)
            )

    def test_rejects_bad_worker_and_lease_parameters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="workers"):
            QueueEngine(workers=-1, cache=cache)
        with pytest.raises(ExperimentError, match="lease_ttl"):
            QueueEngine(workers=1, cache=cache, lease_ttl_s=0.0)

    def test_rejects_uncacheable_scenarios(self, tmp_path):
        # Every scenario has a key; only cache-bypassing options take it
        # away, and the queue refuses to run a cell it cannot key.
        engine = QueueEngine(workers=1, cache=ResultCache(tmp_path / "cache"))
        engine.options = RunOptions(sanitize=True)
        with pytest.raises(ExperimentError, match="no cache key"):
            list(engine.stream([_base()]))


class TestCoordinatorValidation:
    def test_rejects_empty_and_misindexed_batches(self, tmp_path):
        # A batch is its ordered key list plus the documents still to run,
        # so a misindexed batch is unrepresentable; an empty one is refused.
        engine = QueueEngine(workers=1, cache=ResultCache(tmp_path / "cache"))
        with pytest.raises(ExperimentError, match="at least one cell"):
            Coordinator(engine, ["k0"], {})

    def test_named_grids(self):
        assert len(named_grid("bakeoff-smoke")) == 6
        with pytest.raises(ExperimentError):
            named_grid("no-such-grid")


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "service", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=240,
    )


def _parse_summary(stdout):
    digest = counts = None
    for line in stdout.splitlines():
        if line.startswith("sweep_digest: "):
            digest = line.split(": ", 1)[1]
        if line.startswith("service: "):
            counts = dict(
                field.split("=") for field in line.split(" ", 1)[1].split()
            )
    return digest, counts


class TestServiceEndToEnd:
    def test_queue_engine_matches_serial_digest(self, tmp_path):
        spec = _tiny_spec()
        serial = _serial_digest(spec, tmp_path / "serial")
        engine = QueueEngine(workers=2, cache=ResultCache(tmp_path / "queue"))
        queued = run_grid(spec, engine=engine)
        assert sweep_digest(queued) == serial
        assert engine.stats.failures == 0
        assert engine.stats.cache_misses == len(spec)
        assert engine.stats.sim_wall_seconds > 0
        # A second pass over the same cache resumes everything.
        resumed_engine = QueueEngine(
            workers=2, cache=ResultCache(tmp_path / "queue")
        )
        resumed = run_grid(spec, engine=resumed_engine)
        assert sweep_digest(resumed) == serial
        assert resumed_engine.stats.cache_hits == len(spec)
        assert resumed_engine.stats.cache_misses == 0

    def test_coordinator_kill_and_resume_runs_only_missing_cells(
        self, tmp_path
    ):
        spec = _tiny_spec()
        serial = _serial_digest(spec, tmp_path / "serial")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json() + "\n")
        common = ["--spec", str(spec_path), "--cache-dir",
                  str(tmp_path / "queue"), "--workers", "2"]

        killed = _run_cli(
            ["coordinate", *common, "--kill-after", "2"], tmp_path
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        status = _run_cli(
            ["status", "--spec", str(spec_path),
             "--cache-dir", str(tmp_path / "queue")], tmp_path
        )
        assert "done" in status.stdout

        resumed = _run_cli(["coordinate", *common], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        digest, counts = _parse_summary(resumed.stdout)
        assert digest == serial
        assert counts["failed"] == "0"
        # The journal survived the SIGKILL: at least the two acked cells
        # resume from cache, and only the remainder executes.
        assert int(counts["resumed"]) >= 2
        assert int(counts["executed"]) + int(counts["resumed"]) == len(spec)
        assert int(counts["executed"]) < len(spec)

    def test_worker_sigkill_mid_batch_still_completes(self, tmp_path):
        spec = _tiny_spec()
        serial = _serial_digest(spec, tmp_path / "serial")
        with socket.socket() as probe:  # an OS-picked free port
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # workers=0: nothing is spawned; the cells wait for our workers.
        engine = QueueEngine(
            workers=0, cache=ResultCache(tmp_path / "queue"),
            port=port, lease_ttl_s=1.0,
        )
        points = {}
        thread = threading.Thread(
            target=lambda: points.setdefault(
                "value", run_grid(spec, engine=engine)
            )
        )
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), 0.5).close()
                    break
                except OSError:
                    time.sleep(0.02)
            else:
                pytest.fail("coordinator never bound its port")

            def spawn():
                env = dict(os.environ)
                src = str(Path(__file__).resolve().parent.parent / "src")
                env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
                return subprocess.Popen(
                    [sys.executable, "-m", "repro", "service", "work",
                     "--host", "127.0.0.1", "--port", str(port)],
                    env=env, cwd=tmp_path,
                )

            victim = spawn()
            time.sleep(1.0)  # let it lease (and usually start) a cell
            victim.kill()
            victim.wait()
            survivor = spawn()
            thread.join(timeout=180.0)
            assert not thread.is_alive(), "coordinator never finished"
            survivor.wait(timeout=30.0)
        finally:
            thread.join(timeout=10.0)

        assert engine.stats.failures == 0
        assert engine.stats.cache_misses == len(spec)
        assert sweep_digest(points["value"]) == serial
