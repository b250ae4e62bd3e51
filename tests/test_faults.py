"""Chaos tests: bit-identity under deterministic fault injection.

The repo's headline guarantee — engine, workers and store are wall-clock
knobs, never numerics knobs — must extend to *fault schedules*: a sweep
that survives worker kills, transient exceptions, hung units and store
corruption has to produce rows bit-identical to a fault-free run.  These
tests install seeded :class:`~repro.experiments.faults.FaultPlan` schedules
through ``OSP_FAULT_PLAN`` (the same env-var channel pool workers inherit)
and assert exactly that.
"""

import json

import pytest

from repro.algorithms import GreedyWeightAlgorithm, RandPrAlgorithm
from repro.engine import clear_compile_cache
from repro.exceptions import MeasurementFailedError
from repro.experiments import faults, run_sweep
from repro.experiments.competitive_ratio import (
    measure_suite,
    simulation_benefits,
)
from repro.experiments.faults import FAULT_PLAN_ENV_VAR, Fault, FaultPlan
from repro.experiments.opt_cache import default_opt_cache
from repro.experiments.resilience import RetryPolicy
from repro.experiments.runner import main
from repro.experiments.store import STORE_ENV_VAR, SolutionStore, store_for_path
from repro.workloads import random_online_instance

WORKER_COUNTS = (1, 2, 4)

#: A quick policy for tests: no real backoff waiting, prompt recovery.
FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.0)


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    """No leftover fault plans, store attachments or env stores."""
    monkeypatch.delenv(FAULT_PLAN_ENV_VAR, raising=False)
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()
    yield
    FaultPlan.uninstall()
    cache = default_opt_cache()
    cache.clear()
    cache.store = None


def _points(sizes=(24, 16)):
    points = []
    for num_elements in sizes:
        def factory(rng, num_elements=num_elements):
            return random_online_instance(
                10, num_elements, (2, 3), rng, weight_range=(1.0, 4.0)
            )

        points.append((f"n={num_elements}", factory))
    return points


def _sweep(workers=1, store=None, policy=None, instances=2, sizes=(24, 16)):
    return run_sweep(
        "chaos-test",
        _points(sizes),
        [RandPrAlgorithm(), GreedyWeightAlgorithm()],
        instances_per_point=instances,
        trials_per_instance=8,
        seed=11,
        engine="auto",
        workers=workers,
        store=store,
        policy=policy,
    )


class TestFaultPlanModel:
    def test_rejects_unknown_action_and_stage(self):
        with pytest.raises(ValueError):
            Fault(action="explode")
        with pytest.raises(ValueError):
            Fault(action="kill", stage="middle")

    def test_wildcards_match_everything(self):
        fault = Fault(action="raise")
        assert fault.matches(0, 1, "start")
        assert fault.matches(99, 7, "start")
        assert not fault.matches(0, 1, "end")

    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault(action="kill", unit=3, attempt=1),
                Fault(action="sleep", unit=0, seconds=2.5, stage="end"),
                Fault(action="garble-store", path="/tmp/x.sqlite"),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(seed=3, num_units=12, kills=2, transients=2)
        b = FaultPlan.seeded(seed=3, num_units=12, kills=2, transients=2)
        assert a == b
        assert a != FaultPlan.seeded(seed=4, num_units=12, kills=2, transients=2)

    def test_install_round_trips_through_env(self, monkeypatch):
        plan = FaultPlan.seeded(seed=0, num_units=5)
        plan.install()
        assert faults.active_plan() == plan

    def test_malformed_env_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "{not json")
        with pytest.raises(ValueError):
            faults.active_plan()

    def test_no_plan_injects_nothing(self):
        faults.maybe_inject(0, 1)  # must be a silent no-op


class TestChaosContract:
    """Rows are bit-identical to fault-free, at every worker count and
    store temperature, under a mixed kill + transient schedule."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _sweep(workers=1).rows

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_store_off(self, workers, baseline):
        FaultPlan(
            (
                Fault(action="kill", unit=1, attempt=1),
                Fault(action="raise", unit=0, attempt=1),
            )
        ).install()
        chaotic = _sweep(workers=workers, policy=FAST_POLICY)
        assert chaotic.rows == baseline
        assert chaotic.ok

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_store_cold_and_warm(self, workers, baseline, tmp_path):
        path = str(tmp_path / "chaos.sqlite")
        FaultPlan(
            (
                Fault(action="kill", unit=2, attempt=1),
                Fault(action="raise", unit=3, attempt=1),
            )
        ).install()
        cold = _sweep(workers=workers, store=path, policy=FAST_POLICY)
        warm = _sweep(workers=workers, store=path, policy=FAST_POLICY)
        assert cold.rows == baseline
        assert warm.rows == baseline

    def test_seeded_plan_matches_fault_free(self, baseline):
        FaultPlan.seeded(seed=1, num_units=4, kills=1, transients=2).install()
        chaotic = _sweep(workers=2, policy=FAST_POLICY)
        assert chaotic.rows == baseline
        assert chaotic.ok


class TestCrashRecoveryAroundTheStore:
    """Kills on either side of the store write-back leave complete,
    bit-identical rows behind."""

    @pytest.mark.parametrize("stage", ("start", "end"))
    def test_kill_before_and_after_write_back(self, stage, tmp_path):
        baseline = _sweep(workers=1).rows
        path = str(tmp_path / f"kill-{stage}.sqlite")
        FaultPlan((Fault(action="kill", unit=0, attempt=1, stage=stage),)).install()
        chaotic = _sweep(workers=2, store=path, policy=FAST_POLICY)
        assert chaotic.rows == baseline
        # Every unit made it to disk despite the crash (resume = no recompute).
        FaultPlan.uninstall()
        store = SolutionStore(path)
        try:
            assert store.stats()["unit_entries"] == 4
        finally:
            store.close()

    def test_timeout_chaos_matches_fault_free(self):
        baseline = _sweep(workers=1, sizes=(16,), instances=2).rows
        FaultPlan(
            (Fault(action="sleep", unit=1, attempt=1, seconds=30.0),)
        ).install()
        chaotic = _sweep(
            workers=2,
            sizes=(16,),
            instances=2,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0, timeout=2.0),
        )
        assert chaotic.rows == baseline
        assert chaotic.ok

    def test_garbled_store_is_survived(self, tmp_path):
        path = str(tmp_path / "garble.sqlite")
        clean = _sweep(workers=1, store=path)
        # Close the writer's connection so the corruption is read from disk,
        # then flip payload bytes through the fault plumbing and re-run warm:
        # the store's checksum path must drop the garbled row with a warning
        # and the sweep must recompute to identical rows.
        store_for_path(path).close()
        FaultPlan((Fault(action="garble-store", unit=0, path=path),)).install()
        faults.maybe_inject(0, 1, stage="start")
        FaultPlan.uninstall()
        with pytest.warns(Warning):
            rerun = _sweep(workers=1, store=path)
        assert rerun.rows == clean.rows


class TestQuarantineSemantics:
    @pytest.mark.parametrize(
        "workers, unit, poisoned, healthy_label",
        [(2, 1, "n=16", "n=24"), (1, 0, "n=24", "n=16"), (2, 0, "n=24", "n=16")],
        ids=["unit1-w2", "unit0-w1", "unit0-w2"],
    )
    def test_poison_unit_yields_failure_report(
        self, workers, unit, poisoned, healthy_label
    ):
        baseline = _sweep(workers=1, instances=1).rows
        # One instance per point: unit index == point index.  Unit 0 also
        # addresses chunk 0 of every unit's nested trial map, whose fail-fast
        # map fires no hooks — so exactly one unit is quarantined either way.
        FaultPlan((Fault(action="raise", unit=unit),)).install()
        chaotic = _sweep(workers=workers, instances=1, policy=FAST_POLICY)
        assert not chaotic.ok
        assert len(chaotic.failures) == 1
        report = chaotic.failures[0]
        assert report.label == f"{poisoned}[instance 0]"
        assert len(report.attempts) == FAST_POLICY.max_attempts
        # The healthy point's rows are untouched, bit for bit.
        healthy = [row for row in baseline if row.parameter_label == healthy_label]
        assert [
            row for row in chaotic.rows if row.parameter_label == healthy_label
        ] == healthy
        # The poisoned point contributes no rows at all (1 instance, 0 survivors).
        assert [row for row in chaotic.rows if row.parameter_label == poisoned] == []

    def test_simulation_benefits_cannot_quarantine(self):
        instance = random_online_instance(
            10, 16, (2, 3), __import__("random").Random(0)
        )
        FaultPlan((Fault(action="raise", unit=0),)).install()
        with pytest.raises(MeasurementFailedError):
            simulation_benefits(
                instance, RandPrAlgorithm(), trials=8, workers=2, policy=FAST_POLICY
            )

    def test_simulation_benefits_retry_is_bit_identical(self):
        instance = random_online_instance(
            10, 16, (2, 3), __import__("random").Random(0)
        )
        clean = list(simulation_benefits(instance, RandPrAlgorithm(), trials=8))
        FaultPlan((Fault(action="raise", unit=1, attempt=1),)).install()
        faulted = list(
            simulation_benefits(
                instance, RandPrAlgorithm(), trials=8, workers=2, policy=FAST_POLICY
            )
        )
        assert faulted == clean

    def test_measure_suite_fails_whole_on_exhaustion(self):
        instance = random_online_instance(
            10, 16, (2, 3), __import__("random").Random(0)
        )
        FaultPlan((Fault(action="raise", unit=1),)).install()
        with pytest.raises(MeasurementFailedError) as excinfo:
            measure_suite(
                instance,
                [RandPrAlgorithm(), GreedyWeightAlgorithm()],
                trials=4,
                policy=FAST_POLICY,
            )
        assert excinfo.value.failures[0].label == "greedy-weight"


class TestRunnerUnderFaults:
    def test_transient_faults_do_not_change_verdicts(self, capsys, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV_VAR,
            FaultPlan((Fault(action="raise", unit=0, attempt=1),)).to_json(),
        )
        code = main(
            ["--trials", "10", "--workers", "2", "--max-attempts", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ALL CLAIMS HOLD" in out

    def test_exhausted_retries_exit_3_with_json_summary(self, capsys, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV_VAR,
            FaultPlan((Fault(action="raise", unit=0),)).to_json(),
        )
        code = main(["--trials", "10", "--workers", "2", "--max-attempts", "2"])
        out = capsys.readouterr().out
        assert code == 3
        assert "MEASUREMENT FAILED" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["failures"][0]["attempts"][0]["kind"] == "exception"

    def test_workers_auto_accepted(self, capsys):
        code = main(["--trials", "8", "--workers", "auto"])
        assert code == 0

    def test_workers_garbage_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", "lots"])
        assert excinfo.value.code == 2
