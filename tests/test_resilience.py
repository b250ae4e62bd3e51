"""Tests for the supervised process pool (``map_ordered``).

The contract: supervision is a *wall-clock* knob, never a numerics knob.
``map_ordered`` under a retry policy must return exactly what the fail-fast
``map_ordered`` returns when nothing fails; under crashes, transient
exceptions and timeouts it must still return the identical values for every
unit that completes; and the retry schedule itself must be deterministic
(stable-seed jitter, no global RNG, no wall-clock-derived seeds).  Without a
policy the map is fail-fast: the unit's own exception, unwrapped.
"""

import os
import tempfile
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exceptions import MeasurementFailedError
from repro.experiments.parallel import resolve_workers, workers_from_env
from repro.experiments.resilience import (
    AttemptFailure,
    FailureReport,
    RetryPolicy,
    map_ordered,
)
from repro.experiments import faults


def _square(value):
    """Top-level so process-pool workers can unpickle it."""
    return value * value


def _boom(value):
    raise ValueError(f"boom({value})")


def _boom_on_one(item):
    """Record the call in ``directory``, then fail on item 1 only."""
    directory, value = item
    os.close(tempfile.mkstemp(prefix=f"call-{value}-", dir=directory)[0])
    if value == 1:
        raise ValueError(f"boom({value})")
    return value


def _exit_on_one(value):
    """Kill the worker process outright on item 1."""
    if value == 1:
        os._exit(3)
    return value


@pytest.fixture(autouse=True)
def _no_leftover_fault_plan():
    """Every test starts and ends without an installed fault plan."""
    faults.FaultPlan.uninstall()
    yield
    faults.FaultPlan.uninstall()


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=-1)

    def test_first_attempt_never_waits(self):
        assert RetryPolicy().backoff_seconds(0, 1) == 0.0

    def test_backoff_is_deterministic(self):
        a = RetryPolicy(jitter_seed=7)
        b = RetryPolicy(jitter_seed=7)
        for unit in range(5):
            for attempt in (2, 3, 4):
                assert a.backoff_seconds(unit, attempt) == b.backoff_seconds(
                    unit, attempt
                )

    def test_backoff_varies_with_jitter_seed(self):
        values_a = [RetryPolicy(jitter_seed=0).backoff_seconds(u, 2) for u in range(8)]
        values_b = [RetryPolicy(jitter_seed=1).backoff_seconds(u, 2) for u in range(8)]
        assert values_a != values_b

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.3, jitter_seed=0)
        # Jitter scales the capped base into [base/2, base); the cap is the hard roof.
        assert policy.backoff_seconds(0, 9) < 0.3
        assert policy.backoff_seconds(0, 9) >= 0.15

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.backoff_seconds(3, 5) == 0.0


class TestWorkersAuto:
    def test_resolve_workers_auto_is_positive(self):
        assert resolve_workers("auto") >= 1

    def test_resolve_workers_rejects_garbage(self):
        for bad in ("many", 0, -2, 1.5, True):
            with pytest.raises(ValueError):
                resolve_workers(bad)

    def test_workers_from_env_accepts_auto(self, monkeypatch):
        monkeypatch.setenv("OSP_BENCH_WORKERS", "auto")
        assert workers_from_env() == resolve_workers("auto")

    def test_workers_from_env_accepts_int(self, monkeypatch):
        monkeypatch.setenv("OSP_BENCH_WORKERS", "3")
        assert workers_from_env() == 3

    def test_map_ordered_accepts_auto(self):
        assert map_ordered(_square, [1, 2, 3], workers="auto").results == [1, 4, 9]


class TestMapResilientFaultFree:
    @pytest.mark.parametrize("workers", (1, 2, "auto"))
    def test_matches_map_ordered(self, workers):
        items = list(range(7))
        outcome = map_ordered(_square, items, workers=workers)
        assert outcome.results == map_ordered(_square, items).results
        assert outcome.ok
        assert outcome.failures == []
        assert outcome.pool_rebuilds == 0
        assert not outcome.degraded
        assert outcome.retries == 0

    def test_empty_items(self):
        outcome = map_ordered(_square, [], workers=4)
        assert outcome.results == []
        assert outcome.ok

    def test_labels_must_align(self):
        with pytest.raises(ValueError):
            map_ordered(_square, [1, 2], labels=["only-one"])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_fail_fast_reraises_the_units_own_error(self, workers, tmp_path):
        # No policy: one attempt, and the unit's ValueError itself — not a
        # MeasurementFailedError, not a retry.  Each call leaves a marker.
        items = [(str(tmp_path), 0), (str(tmp_path), 1), (str(tmp_path), 2)]
        with pytest.raises(ValueError, match="boom") as excinfo:
            map_ordered(_boom_on_one, items, workers=workers)
        assert not isinstance(excinfo.value, MeasurementFailedError)
        assert len(list(tmp_path.glob("call-1-*"))) == 1

    def test_fail_fast_worker_death_is_broken_pool(self):
        with pytest.raises(BrokenProcessPool):
            map_ordered(_exit_on_one, [0, 1, 2], workers=2)


class TestMapResilientRetries:
    def test_transient_failure_is_retried_in_process(self):
        faults.FaultPlan((faults.Fault(action="raise", unit=1, attempt=1),)).install()
        outcome = map_ordered(
            _square, [1, 2, 3], workers=1, policy=RetryPolicy(backoff_base=0.0)
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.retries == 1
        assert outcome.ok

    def test_transient_failure_is_retried_in_pool(self):
        faults.FaultPlan((faults.Fault(action="raise", unit=0, attempt=1),)).install()
        outcome = map_ordered(
            _square, [1, 2, 3], workers=2, policy=RetryPolicy(backoff_base=0.0)
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.retries == 1
        assert outcome.ok

    @pytest.mark.parametrize("workers", (1, 2))
    def test_poison_unit_is_quarantined(self, workers):
        faults.FaultPlan((faults.Fault(action="raise", unit=2),)).install()
        outcome = map_ordered(
            _square,
            [1, 2, 3, 4],
            workers=workers,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.0),
            labels=["a", "b", "c", "d"],
        )
        assert outcome.results == [1, 4, None, 16]
        assert not outcome.ok
        assert len(outcome.failures) == 1
        report = outcome.failures[0]
        assert report.index == 2
        assert report.label == "c"
        assert len(report.attempts) == 3
        assert all(entry.kind == "exception" for entry in report.attempts)
        assert "FaultInjected" in report.attempts[0].error

    def test_every_unit_failing_does_not_hang(self):
        outcome = map_ordered(
            _boom,
            [1, 2],
            workers=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        assert outcome.results == [None, None]
        assert len(outcome.failures) == 2

    def test_failure_report_round_trips_to_json(self):
        report = FailureReport(
            index=0,
            label="demo",
            attempts=(AttemptFailure(1, "timeout", "budget exceeded"),),
        )
        rendered = report.as_dict()
        assert rendered["label"] == "demo"
        assert rendered["attempts"][0]["kind"] == "timeout"


class TestMapResilientCrashes:
    def test_worker_kill_is_survived(self):
        faults.FaultPlan((faults.Fault(action="kill", unit=1, attempt=1),)).install()
        outcome = map_ordered(
            _square,
            list(range(5)),
            workers=2,
            policy=RetryPolicy(backoff_base=0.0),
        )
        assert outcome.results == [0, 1, 4, 9, 16]
        assert outcome.pool_rebuilds >= 1
        assert outcome.ok

    def test_repeated_collapse_degrades_to_in_process(self):
        # Kill unit 0 on *every* attempt: each pool incarnation dies, and the
        # map must fall back to in-process execution, where the kill fault is
        # a no-op by design (the supervising process must not shoot itself).
        faults.FaultPlan((faults.Fault(action="kill", unit=0),)).install()
        outcome = map_ordered(
            _square,
            list(range(4)),
            workers=2,
            policy=RetryPolicy(
                max_attempts=10, backoff_base=0.0, max_pool_rebuilds=1
            ),
        )
        assert outcome.results == [0, 1, 4, 9]
        assert outcome.degraded
        assert outcome.pool_rebuilds == 2
        assert outcome.ok

    def test_timeout_charges_only_the_stuck_unit(self):
        faults.FaultPlan(
            (faults.Fault(action="sleep", unit=1, attempt=1, seconds=30.0),)
        ).install()
        outcome = map_ordered(
            _square,
            [1, 2, 3],
            workers=2,
            policy=RetryPolicy(backoff_base=0.0, timeout=1.0),
        )
        assert outcome.results == [1, 4, 9]
        assert outcome.ok
        # The sleeping unit was charged exactly one timeout attempt, retried
        # (attempt 2 has no matching fault) and completed.
        assert outcome.retries == 1
        assert outcome.pool_rebuilds >= 1

    def test_timeout_exhaustion_quarantines(self):
        faults.FaultPlan(
            (faults.Fault(action="sleep", unit=0, seconds=30.0),)
        ).install()
        outcome = map_ordered(
            _square,
            [1, 2],
            workers=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0, timeout=0.8),
        )
        assert outcome.results == [None, 4]
        assert len(outcome.failures) == 1
        assert all(
            entry.kind == "timeout" for entry in outcome.failures[0].attempts
        )
