"""Controller-driven recovery across every scheme, plus the recovery sweep
(fold, digest, acceptance invariants, export)."""

from dataclasses import replace

import pytest

from repro.competitors import COMPETITOR_SCHEMES, install, uninstall
from repro.control import ControlConfig
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.recovery import (
    RECOVERY_FAILOVER,
    RecoveryRow,
    build_cases,
    check_recovery,
    export_recovery,
    recovery_base_scenario,
    recovery_digest,
    recovery_sweep,
    recovery_table,
)
from repro.experiments.runner import SCHEMES, run_incast
from repro.faults.plan import FaultPlan, LinkDown, proxy_crash_plan
from repro.telemetry import RunOptions
from repro.units import microseconds


@pytest.fixture
def competitors():
    """Install the competitor schemes, and always tear them down again."""
    install()
    try:
        yield
    finally:
        uninstall()


def _linkdown_scenario(scheme):
    return replace(
        recovery_base_scenario(),
        scheme=scheme,
        control=ControlConfig(),
        faults=FaultPlan((LinkDown(microseconds(10), link="backbone:0"),)),
    )


class TestPerSchemeRecovery:
    """Every registered scheme must survive a mid-incast backbone failure
    once the controller is in the loop: the run completes, the reroute is
    counted, and packet/byte conservation holds under the sanitizer."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_builtin_scheme_recovers_from_linkdown(self, scheme):
        result = run_incast(
            _linkdown_scenario(scheme), options=RunOptions(sanitize=True)
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.reroutes >= 1
        assert result.converged_at_ps is not None
        assert result.converged_at_ps > microseconds(10)

    @pytest.mark.parametrize("scheme", COMPETITOR_SCHEMES)
    def test_competitor_scheme_recovers_from_linkdown(self, scheme, competitors):
        result = run_incast(
            _linkdown_scenario(scheme), options=RunOptions(sanitize=True)
        )
        assert result.completed
        assert result.failed_flows == 0
        assert result.reroutes >= 1

    def test_recovery_is_deterministic(self):
        first = run_incast(_linkdown_scenario("streamlined"))
        second = run_incast(_linkdown_scenario("streamlined"))
        assert first.ict_ps == second.ict_ps
        assert first.converged_at_ps == second.converged_at_ps

    def test_without_controller_no_reroute_is_counted(self):
        scenario = replace(_linkdown_scenario("baseline"), control=None)
        result = run_incast(scenario)
        assert result.reroutes == 0
        assert result.converged_at_ps is None


class TestCrashRecovery:
    def test_crash_with_restart_fails_back(self):
        # The pool detects the crash, migrates, and — because the primary
        # restarts and stays up past the stabilization window — wins the
        # flows back before the incast ends.
        scenario = replace(
            recovery_base_scenario(),
            scheme="proxy-failover",
            control=ControlConfig(),
            faults=proxy_crash_plan(
                at_ps=microseconds(10), restart_after_ps=microseconds(300)
            ),
        )
        result = run_incast(scenario)
        assert result.completed
        assert result.failovers == 1
        assert result.failbacks == 1
        assert result.detected_at_ps is not None
        assert microseconds(10) < result.detected_at_ps <= microseconds(110)


class TestRecoverySweep:
    _KW = dict(
        cases=build_cases(link_times_ps=(microseconds(10),), crash_times_ps=()),
        schemes=("baseline", "streamlined"),
        reps=1,
    )

    def test_digest_identical_across_worker_counts(self):
        serial = recovery_sweep(engine=ExperimentEngine(workers=1), **self._KW)
        pooled = recovery_sweep(engine=ExperimentEngine(workers=2), **self._KW)
        assert recovery_digest(serial) == recovery_digest(pooled)

    def test_fold_shape_and_inflation(self):
        rows = recovery_sweep(engine=ExperimentEngine(workers=1), **self._KW)
        assert [r.kind for r in rows] == ["control", "control", "link", "link"]
        for row in rows:
            if row.kind == "control":
                assert row.inflation is None
                assert row.reroutes == 0
            else:
                assert row.inflation is not None and row.inflation > 1.0
                assert row.reroutes >= 1
        assert check_recovery(rows) == []

    def test_table_and_export(self, tmp_path):
        rows = recovery_sweep(engine=ExperimentEngine(workers=1), **self._KW)
        table = recovery_table(rows)
        assert "linkdown@10us" in table and "baseline" in table
        paths = export_recovery(rows, tmp_path)
        assert [p.name for p in paths] == ["recovery.csv", "recovery.json"]
        csv = paths[0].read_text().splitlines()
        assert len(csv) == len(rows) + 1  # header + one line per row

    def test_check_recovery_flags_violations(self):
        def row(**overrides):
            fields = dict(
                kind="control", label="no-fault", scheme="baseline",
                fault_at_ps=0, ict_ps=1.0, inflation=None, detect_lag_ps=None,
                converge_lag_ps=None, reroutes=0.0, failovers=0.0,
                failbacks=0.0, degrades=0.0, completed=True, failures=0,
            )
            fields.update(overrides)
            return RecoveryRow(**fields)

        assert check_recovery([row()]) == []
        assert check_recovery([row(reroutes=1.0)])  # idle plane rerouted
        assert check_recovery([row(kind="link", label="linkdown@10us",
                                   completed=False)])
        assert check_recovery([
            row(kind="crash", label="crash@10us", scheme="proxy-failover",
                failovers=1.0, failbacks=0.0, detect_lag_ps=90e6)
        ])  # no fail-back counted

    def test_reps_must_be_positive(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            recovery_sweep(reps=0)

    def test_failover_timings_fit_the_incast(self):
        # The sweep's crash cell only demonstrates fail-back if detection
        # plus restart plus stabilization land inside one small incast.
        assert RECOVERY_FAILOVER.detection_timeout_ps < microseconds(300)
        assert (RECOVERY_FAILOVER.failback_stabilization_ps
                >= RECOVERY_FAILOVER.probe_interval_ps)


class TestSmokeCli:
    """``python -m repro recovery --smoke``, which CI's recovery job runs."""

    #: The smoke grid's sweep digest; a behaviour-neutral change keeps it.
    SMOKE_DIGEST = "bb1d27398caaa857d16c415e70577d2fe9090a30ad2dcdbfdbddfeab449ab0c0"

    def test_smoke_run_passes_its_invariants_and_prints_its_digest(self, capsys):
        from repro.experiments.recovery import main

        try:
            main(["--smoke", "--no-cache"])
        finally:
            uninstall()  # main() installs the competitors globally
        out = capsys.readouterr().out
        (digest,) = [line.split()[1] for line in out.splitlines()
                     if line.startswith("sweep_digest: ")]
        assert digest == self.SMOKE_DIGEST
        assert "recovery: ok" in out
