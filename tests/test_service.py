"""The sweep service: journal semantics, engine, kill-and-resume drills."""

import contextlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.config import TransportConfig, small_interdc_config
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.grid import run_grid
from repro.experiments.parallel import ExperimentEngine, ResultCache
from repro.experiments.runner import IncastScenario
from repro.experiments.service import (
    QueueEngine,
    WorkQueue,
    batch_fingerprint,
    journal_path_for,
    named_grid,
)
from repro.experiments.service import main as service_main
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
        assert queue.complete(0, source="executed")
        assert not queue.fail(0, "exception", "after done")
        assert queue.counts() == {"pending": 1, "failed": 1, "done": 1}
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
            assert queue.lease("w", 1, 1.0, now=now) == [(0, "k0")]
            now += 10.0
        # The capped cell flips to failed; the grant moves on to the next.
        assert queue.lease("w", 1, 1.0, now=now, max_cell_attempts=3) == [
            (1, "k1")
        ]
        assert queue.cell_status(0) == "failed"
        row = queue._db.execute(
            "SELECT kind, attempts FROM cells WHERE idx = 0"
        ).fetchone()
        assert row == ("worker-crash", 3)
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

    def test_rejects_bad_worker_count(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ExperimentError, match="workers"):
            QueueEngine(workers=-1, cache=cache)

    def test_rejects_uncacheable_scenarios(self, tmp_path):
        # Every scenario has a key; only cache-bypassing options take it
        # away, and the queue refuses to run a cell it cannot key.
        engine = QueueEngine(workers=1, cache=ResultCache(tmp_path / "cache"))
        engine.options = RunOptions(sanitize=True)
        with pytest.raises(ExperimentError, match="no cache key"):
            list(engine.stream([_base()]))


class TestCoordinatorValidation:
    def test_named_grids(self):
        assert len(named_grid("bakeoff-smoke")) == 6
        with pytest.raises(ExperimentError):
            named_grid("no-such-grid")


def _env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(command, cwd):
    """Run ``command`` with its output in files, not pipes.

    A leaked child holding a pipe open would stall the wait until the
    timeout; a file does not.
    """
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        done = subprocess.run(
            command, cwd=cwd, env=_env(), stdout=out, stderr=err, timeout=240
        )
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(
            command, done.returncode, out.read(), err.read()
        )


def _run_cli(args, cwd):
    return _run([sys.executable, "-m", "repro", "service", *args], cwd)


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


def _live(pid):
    """True while ``pid`` runs (a zombie has exited; only its entry is left)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _live_naming(text):
    """Live processes whose command line mentions ``text``."""
    return [
        int(entry.name) for entry in Path("/proc").iterdir()
        if entry.name.isdigit() and _live(entry.name)
        and text.encode() in _read_bytes(entry / "cmdline")
    ]


def _read_bytes(path):
    try:
        return path.read_bytes()
    except OSError:
        return b""


def _assert_gone_within(pids_now, seconds=5.0):
    """Every process ``pids_now()`` lists must be gone within ``seconds``."""
    deadline = time.monotonic() + seconds
    while (left := pids_now()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in left:  # do not leave them running past the test
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    assert not left, f"processes outlived their SIGKILLed parent: {left}"


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)

#: A pool sweep (no journal) that SIGKILLs itself after two cells are
#: cached, printing its worker pids first.  argv: spec file, cache dir.
_KILLED_POOL_SWEEP = """
import multiprocessing, os, signal, sys
from pathlib import Path
from repro.experiments.grid import GridSpec
from repro.experiments.parallel import ExperimentEngine, ResultCache

spec = GridSpec.from_json(Path(sys.argv[1]).read_text())
engine = ExperimentEngine(workers=2, cache=ResultCache(sys.argv[2]))
for done, _ in enumerate(engine.stream(c.scenario for c in spec.expand()), 1):
    if done == 2:
        print(*[p.pid for p in multiprocessing.active_children()], flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
"""


def _refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch with no misses started a pool")

    monkeypatch.setattr(parallel, "_pool_fanout", refuse)


class TestAllHitsPass:
    """A pass the cache serves entirely still journals, and starts no pool."""

    def test_status_reports_a_served_grid_done(self, tmp_path, capsys, monkeypatch):
        spec = str(tmp_path / "spec.json")
        cache = ["--cache-dir", str(tmp_path / "cache")]
        service_main(["spec", "--grid", "degree-smoke", "--out", spec])
        service_main(["coordinate", "--spec", spec, *cache, "--serial"])
        _refuse_pools(monkeypatch)
        capsys.readouterr()
        service_main(["coordinate", "--spec", spec, *cache, "--workers", "2"])
        assert "executed=0 resumed=12" in capsys.readouterr().out
        service_main(["status", "--spec", spec, *cache])
        assert "status: 12/12 done" in capsys.readouterr().out

    def test_an_empty_batch_needs_no_pool(self, monkeypatch):
        _refuse_pools(monkeypatch)
        assert list(ExperimentEngine(workers=2).stream([])) == []


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
        keys = [engine._cache_key(cell.scenario) for cell in spec.expand()]
        journal = WorkQueue(journal_path_for(engine.cache, keys))
        assert journal.counts() == {"done": len(spec)}
        journal.close()
        # A second pass over the same cache resumes everything.
        resumed_engine = QueueEngine(
            workers=2, cache=ResultCache(tmp_path / "queue")
        )
        resumed = run_grid(spec, engine=resumed_engine)
        assert sweep_digest(resumed) == serial
        assert resumed_engine.stats.cache_hits == len(spec)
        assert resumed_engine.stats.cache_misses == 0

    @needs_proc
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
        # Forked pool workers carry the coordinator's command line.
        _assert_gone_within(lambda: _live_naming(str(spec_path)))

        status = _run_cli(
            ["status", "--spec", str(spec_path),
             "--cache-dir", str(tmp_path / "queue")], tmp_path
        )
        assert "done: 2" in status.stdout

        resumed = _run_cli(["coordinate", *common], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        digest, counts = _parse_summary(resumed.stdout)
        assert digest == serial
        # Each result is cached before its cell is journaled done, and the
        # kill follows the second commit: exactly two cells resume from
        # cache, and only the remainder executes.
        assert counts == {
            "total": str(len(spec)), "executed": str(len(spec) - 2),
            "resumed": "2", "failed": "0",
        }

    @needs_proc
    def test_pool_kill_and_rerun_runs_only_missing_cells(self, tmp_path):
        spec = _tiny_spec()
        serial = _serial_digest(spec, tmp_path / "serial")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json() + "\n")
        cache_dir = tmp_path / "pool"

        killed = _run(
            [sys.executable, "-c", _KILLED_POOL_SWEEP, str(spec_path),
             str(cache_dir)],
            tmp_path,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        workers = [int(pid) for pid in killed.stdout.split()]
        assert len(workers) == 2, killed.stdout
        _assert_gone_within(lambda: [pid for pid in workers if _live(pid)])

        engine = ExperimentEngine(workers=2, cache=ResultCache(cache_dir))
        points = run_grid(spec, engine=engine)
        assert sweep_digest(points) == serial
        assert engine.stats.failures == 0
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_misses == len(spec) - 2
