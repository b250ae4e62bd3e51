"""The supervised pool: the one place a process pool is started.

:func:`map_ordered` applies a function to independent work units and returns
the results in **submission order** with **bit-identical values**, whatever
order the workers finished in — so a parallel run assembles exactly the
sequence a serial run would have produced.  ``workers=1`` never touches
``multiprocessing``: the map runs in-process, which keeps single-worker
behaviour identical on platforms where process pools are unavailable (and
makes ``workers=1`` the bit-identical reference for the differential
tests).  Every fan-out in the package — sweep units, trial chunks, suite
measurements, battle grids — goes through it.

Without a :class:`RetryPolicy` (``policy=None``) the map is **fail-fast**:
one attempt per unit, no timeout, no pool rebuild.  A unit's exception is
re-raised with its original type, and a worker that dies surfaces as
``BrokenProcessPool``.  With a policy, the same loop survives arbitrary
fault schedules:

* **Worker crashes** (``BrokenProcessPool``): the pool is rebuilt and only
  the *lost in-flight* units are requeued; completed results are kept.
  Because the crashed worker cannot be identified among its siblings, every
  unit that was in flight at the moment of collapse is charged one
  ``worker-crash`` attempt — a safe upper bound on work, never on results.
* **Transient per-unit failures**: an attempt that raises is retried up to
  :attr:`RetryPolicy.max_attempts` times with exponential backoff.  The
  backoff jitter is derived via
  :func:`~repro.core.seeding.stable_seed` — never ``random.random()``
  or the wall clock — so a retried schedule is itself deterministic and can
  never perturb results (units are pure functions of their inputs; retrying
  one recomputes the identical value).
* **Hung units**: a per-unit wall-clock timeout (pool mode only — an
  in-process unit cannot be preempted).  The deadline is measured from
  submission; in-flight work is capped at the pool size so submission and
  execution start coincide.  On expiry the pool is killed and rebuilt, the
  timed-out unit is charged a ``timeout`` attempt, and its innocent
  in-flight siblings are requeued *without* an attempt charge.
* **Poison units**: a unit that fails ``max_attempts`` times is quarantined
  into a structured :class:`FailureReport` instead of aborting the map —
  the healthy units complete and the caller decides what a partial result
  means (the sweep harness completes with the healthy rows; the runner CLI
  exits nonzero with a JSON failure summary).
* **Repeated pool collapse**: after :attr:`RetryPolicy.max_pool_rebuilds`
  rebuilds the map degrades gracefully to in-process execution for the
  remaining units — slower, but immune to pool pathology.

Fault injection for the chaos tests lives in
:mod:`repro.experiments.faults`; every supervised attempt routes through
:func:`~repro.experiments.faults.maybe_inject`, which is a no-op unless the
``OSP_FAULT_PLAN`` environment variable carries a plan (the env var is what
crosses the process boundary into pool workers).  Fail-fast maps never
fire the hooks, so the fail-fast maps nested inside a supervised unit (a
sweep unit's trial chunks) are not hit by the unit's faults.

>>> policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
>>> outcome = map_ordered(len, ["a", "bb", "ccc"], policy=policy)
>>> outcome.results
[1, 2, 3]
>>> outcome.ok
True
"""

from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.seeding import stable_seed
from repro.experiments import faults
from repro.experiments.parallel import resolve_workers

__all__ = [
    "RetryPolicy",
    "AttemptFailure",
    "FailureReport",
    "ResilientMapResult",
    "map_ordered",
]

T = TypeVar("T")
R = TypeVar("R")

#: Supervisor tick: the longest the event loop blocks before re-checking
#: per-unit deadlines and backoff release times.
_TICK_SECONDS = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised pool retries, times out and degrades.

    ``max_attempts`` bounds the tries per unit (1 = no retry).  ``timeout``
    is the per-unit wall-clock budget in seconds (``None`` disables it;
    enforced in pool mode only).  The backoff before attempt ``n`` is
    ``backoff_base * 2**(n - 2)`` capped at ``backoff_cap``, scaled by a
    deterministic jitter in ``[0.5, 1.0)`` derived from
    :func:`~repro.core.seeding.stable_seed` — retries never consult
    the wall clock or a global RNG, so a faulted schedule stays a pure
    function of ``(jitter_seed, unit, attempt)``.  After
    ``max_pool_rebuilds`` pool collapses the remaining units run in-process.

    >>> policy = RetryPolicy(max_attempts=3)
    >>> policy.backoff_seconds(unit_index=4, attempt=2) == \\
    ...     policy.backoff_seconds(unit_index=4, attempt=2)
    True
    >>> 0.0 <= policy.backoff_seconds(0, 2) < policy.backoff_cap
    True
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter_seed: int = 0
    max_pool_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be non-negative")
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    def backoff_seconds(self, unit_index: int, attempt: int) -> float:
        """The deterministic pause before running ``attempt`` of one unit.

        ``attempt`` counts from 1; the first attempt never waits.
        """
        if attempt <= 1 or self.backoff_base == 0.0:
            return 0.0
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 2)))
        jitter = (
            stable_seed("retry-jitter", self.jitter_seed, unit_index, attempt) % 1024
        ) / 1024.0
        return base * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt of one unit: what went wrong, on which try.

    ``kind`` is ``"exception"`` (the unit raised), ``"timeout"`` (the unit
    exceeded the policy's wall-clock budget) or ``"worker-crash"`` (the unit
    was in flight when its process pool collapsed).
    """

    attempt: int
    kind: str
    error: str

    def as_dict(self) -> Dict[str, object]:
        return {"attempt": self.attempt, "kind": self.kind, "error": self.error}


@dataclass(frozen=True)
class FailureReport:
    """A quarantined unit: every attempt failed, here is the evidence.

    >>> report = FailureReport(index=3, label="n=40[instance 1]", attempts=(
    ...     AttemptFailure(1, "exception", "ValueError('boom')"),))
    >>> report.as_dict()["label"]
    'n=40[instance 1]'
    """

    index: int
    label: str
    attempts: Tuple[AttemptFailure, ...]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering (the runner's failure summary)."""
        return {
            "index": self.index,
            "label": self.label,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


@dataclass
class ResilientMapResult:
    """Everything :func:`map_ordered` observed, aligned with the items.

    ``results[i]`` is the value of item ``i``, or ``None`` when the unit was
    quarantined (its :class:`FailureReport` is in ``failures``).  ``ok`` is
    the no-failures predicate; ``pool_rebuilds``/``degraded``/``retries``
    describe the fault schedule the map survived.
    """

    results: List[Optional[object]]
    failures: List[FailureReport] = field(default_factory=list)
    pool_rebuilds: int = 0
    degraded: bool = False
    retries: int = 0

    @property
    def ok(self) -> bool:
        """Whether every unit produced a result."""
        return not self.failures


def _call_unit(
    function: Callable[[T], R], index: int, attempt: int, item: T, supervised: bool
) -> R:
    """Run one attempt of one unit, with fault-injection hooks around it.

    Top-level (not a closure) so process-pool workers can unpickle it.  The
    hooks fire only in supervised maps (``supervised``) and are no-ops unless
    ``OSP_FAULT_PLAN`` is set — the chaos tests use them to kill this very
    process, raise transient errors, sleep past the timeout or garble store
    bytes, at deterministic ``(unit, attempt)`` coordinates.
    """
    if not supervised:
        return function(item)
    faults.maybe_inject(index, attempt, stage="start")
    result = function(item)
    faults.maybe_inject(index, attempt, stage="end")
    return result


def _run_in_process(
    function: Callable[[T], R],
    items: Sequence[T],
    pending: Sequence[Tuple[int, int]],
    policy: RetryPolicy,
    charge: Callable[[int, int, str, str], Optional[int]],
    outcome: ResilientMapResult,
) -> None:
    """Serial retry loop for ``pending`` ``(index, attempt)`` units.

    Used for supervised ``workers=1`` maps and as the degraded fallback
    after repeated pool collapse.  No timeout is enforced — an in-process
    unit cannot be preempted — but retries and quarantine behave exactly as
    in pool mode: ``charge`` records each failed attempt and names the next
    one (``None`` once the unit is quarantined).
    """
    for index, attempt in pending:
        while attempt is not None:
            delay = policy.backoff_seconds(index, attempt)
            if delay > 0.0:
                time.sleep(delay)
            try:
                outcome.results[index] = _call_unit(
                    function, index, attempt, items[index], supervised=True
                )
                break
            except Exception as exc:  # noqa: BLE001 — every failure is recorded
                attempt = charge(index, attempt, "exception", repr(exc))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a (possibly stuck or broken) pool down without waiting on it.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever; the worker processes are terminated explicitly (SIGTERM, then
    SIGKILL for survivors).  Touching ``_processes`` is deliberate — the
    executor API offers no other way to reap a stuck child — and guarded,
    so a stdlib that renames the attribute degrades to a plain shutdown.
    """
    processes_map = getattr(pool, "_processes", None)
    processes = list(processes_map.values()) if isinstance(processes_map, dict) else []
    for process in processes:
        try:
            process.terminate()
        except Exception:  # already dead / already reaped
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.join(timeout=1.0)
        if process.is_alive():
            try:
                process.kill()
            except Exception:
                pass
            process.join(timeout=1.0)


def map_ordered(
    function: Callable[[T], R],
    items: Sequence[T],
    workers: "int | str" = 1,
    policy: Optional[RetryPolicy] = None,
    labels: Optional[Sequence[str]] = None,
) -> ResilientMapResult:
    """Apply ``function`` to every item, returning results in item order.

    ``workers=1`` runs in-process (no pool, no pickling); ``workers>1`` fans
    the items out over a process pool, keeping at most ``workers`` units in
    flight.  ``function`` and the items must be picklable when
    ``workers > 1``; the callers keep their work payloads to plain
    dataclasses and tuples for this reason.  Every worker the map started
    has exited and been reaped by the time it returns or raises.

    With ``policy=None`` the map is fail-fast: the first failing unit
    re-raises its own exception (``BrokenProcessPool`` if its worker died),
    exactly as if the caller had looped over the items itself.  With a
    :class:`RetryPolicy`, worker crashes, transient exceptions and hung
    units are survived instead; units that exhaust their attempts are
    quarantined into :class:`FailureReport` records and everything else
    completes.  Either way the values are bit-identical — retries recompute
    pure functions, and the deterministic backoff jitter never touches a
    global RNG.

    ``labels`` (optional, aligned with ``items``) names units in failure
    reports; it defaults to ``unit[i]``.

    >>> outcome = map_ordered(abs, [-2, 3], workers=1)
    >>> (outcome.results, outcome.ok, outcome.pool_rebuilds)
    ([2, 3], True, 0)
    """
    workers = resolve_workers(workers)
    items = list(items)
    if labels is None:
        labels = [f"unit[{index}]" for index in range(len(items))]
    else:
        labels = [str(label) for label in labels]
        if len(labels) != len(items):
            raise ValueError(
                f"labels must align with items: {len(labels)} != {len(items)}"
            )

    outcome = ResilientMapResult(results=[None] * len(items))
    in_process = workers == 1 or len(items) <= 1
    if policy is None and in_process:
        outcome.results = [function(item) for item in items]
        return outcome

    history: Dict[int, List[AttemptFailure]] = defaultdict(list)

    def charge(index: int, attempt: int, kind: str, error: str) -> Optional[int]:
        """Record a failed attempt: the next attempt, or None once quarantined."""
        failures = history[index]
        failures.append(AttemptFailure(attempt=attempt, kind=kind, error=error))
        if len(failures) >= policy.max_attempts:
            report = FailureReport(index, labels[index], tuple(failures))
            outcome.failures.append(report)
            return None
        outcome.retries += 1
        return len(failures) + 1

    if in_process:
        pending_units = [(index, 1) for index in range(len(items))]
        _run_in_process(function, items, pending_units, policy, charge, outcome)
        return outcome

    pool_size = min(workers, len(items))
    # (index, attempt, ready_at): ready_at is a time.monotonic() release
    # time implementing backoff without blocking the supervisor.
    pending = deque((index, 1, 0.0) for index in range(len(items)))
    in_flight: Dict[object, Tuple[int, int, float]] = {}
    pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(max_workers=pool_size)
    outstanding = len(items)
    supervised = policy is not None
    timeout = policy.timeout if supervised else None

    def requeue(index: int, attempt: int, kind: str, error: str, now: float) -> None:
        """Charge a failed pool attempt; schedule its retry or drop the unit."""
        nonlocal outstanding
        next_attempt = charge(index, attempt, kind, error)
        if next_attempt is None:
            outstanding -= 1
        else:
            ready_at = now + policy.backoff_seconds(index, next_attempt)
            pending.append((index, next_attempt, ready_at))

    try:
        while outstanding > 0:
            # Degrade: repeated pool collapse means pooling itself is the
            # hazard; finish the remaining units serially in this process.
            if pool is None:
                outcome.degraded = True
                remaining = sorted(
                    ((index, attempt) for index, attempt, _ready in pending),
                    key=lambda entry: entry[0],
                )
                pending.clear()
                _run_in_process(function, items, remaining, policy, charge, outcome)
                return outcome

            now = time.monotonic()
            # Submit ready work, capping in-flight at the pool size so a
            # submitted unit starts (approximately) immediately — that is
            # what lets the timeout deadline be measured from submission.
            for _ in range(len(pending)):
                if len(in_flight) >= pool_size:
                    break
                index, attempt, ready_at = pending[0]
                if ready_at > now:
                    pending.rotate(-1)
                    continue
                pending.popleft()
                future = pool.submit(
                    _call_unit, function, index, attempt, items[index], supervised
                )
                deadline = now + timeout if timeout is not None else math.inf
                in_flight[future] = (index, attempt, deadline)

            if not in_flight:
                # Everything runnable is in a backoff window; sleep to the
                # earliest release.
                next_ready = min(ready for _i, _a, ready in pending)
                time.sleep(min(_TICK_SECONDS, max(0.0, next_ready - now)) or 0.001)
                continue

            nearest_deadline = min(deadline for _i, _a, deadline in in_flight.values())
            tick = _TICK_SECONDS
            if math.isfinite(nearest_deadline):
                tick = min(tick, max(0.01, nearest_deadline - now))
            done, _running = wait(
                set(in_flight), timeout=tick, return_when=FIRST_COMPLETED
            )

            pool_broken = False
            now = time.monotonic()
            for future in done:
                index, attempt, _deadline = in_flight.pop(future)
                try:
                    outcome.results[index] = future.result()
                    outstanding -= 1
                except Exception as exc:  # noqa: BLE001 — recorded + retried
                    if not supervised:
                        raise  # fail-fast: the unit's own error, unwrapped
                    crashed = isinstance(exc, BrokenProcessPool)
                    pool_broken = pool_broken or crashed
                    kind = "worker-crash" if crashed else "exception"
                    requeue(index, attempt, kind, repr(exc), now)

            # Timeouts: a unit past its deadline is charged a failed attempt
            # and its (stuck) pool is recycled below.
            timed_out = [
                future
                for future, (_i, _a, deadline) in in_flight.items()
                if deadline <= now
            ]
            for future in timed_out:
                index, attempt, deadline = in_flight.pop(future)
                pool_broken = True
                requeue(
                    index,
                    attempt,
                    "timeout",
                    f"unit exceeded the {policy.timeout}s wall-clock budget",
                    now,
                )

            if pool_broken:
                # The surviving in-flight units were *lost*, not failed:
                # requeue them at the same attempt, with no charge.
                for future, (index, attempt, _deadline) in in_flight.items():
                    pending.append((index, attempt, now))
                in_flight.clear()
                _terminate_pool(pool)
                outcome.pool_rebuilds += 1
                if outcome.pool_rebuilds > policy.max_pool_rebuilds:
                    pool = None
                else:
                    pool = ProcessPoolExecutor(max_workers=pool_size)
    except BaseException:
        # A fail-fast error or an interrupt: the in-flight siblings' results
        # are unwanted, and a hung one would block a graceful shutdown.
        if pool is not None:
            _terminate_pool(pool)
        raise
    if pool is not None:
        # Join the idle workers, so none outlives the map and their CPU time
        # counts in this process's reaped-children usage.
        pool.shutdown()
    return outcome
