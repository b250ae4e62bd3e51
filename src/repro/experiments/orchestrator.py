"""Parallel sweep orchestration: decompose, execute, merge deterministically.

A parameter sweep is an embarrassingly parallel computation hiding inside a
serial loop: every ``(parameter point, instance)`` pair needs an offline OPT
solve, instance statistics and one measurement per algorithm — and none of
that work depends on any other pair.  This module makes the decomposition
explicit, in the PRAM style of the related parallel-algorithms literature:

1. **Decompose** (:func:`build_sweep_units`): the parent process draws every
   instance up front — instance generation is cheap and keeping it in one
   place pins the RNG stream — and wraps each ``(point, instance)`` pair in
   a self-contained, picklable :class:`SweepUnit`.
2. **Execute** (:func:`run_units`): the units are mapped over a process pool
   (:func:`~repro.experiments.resilience.map_ordered`; ``workers=1`` stays
   in-process).  Each worker solves OPT through its per-process
   :func:`~repro.experiments.opt_cache.default_opt_cache`, compiles the
   instance once through the engine's compile cache, and measures every
   algorithm on it.
3. **Merge** (:func:`merge_sweep`): unit results come back aligned with the
   submission order, and the merge aggregates them point by point with the
   same float arithmetic — the same summation order — as the serial loop.

**Determinism contract:** for fixed inputs, ``run_sweep(..., workers=n)``
returns *bit-identical* rows for every ``n``.  Per-unit seeds are derived
with :func:`~repro.core.seeding.stable_seed` (not ``hash()``), every
simulation seed is a pure function of the unit, and the merge never consumes
results in completion order.  ``tests/test_orchestrator.py`` enforces the
contract at workers ∈ {1, 2, 4}.
"""

from __future__ import annotations

import os
import random
import socket
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.core.algorithm import OnlineAlgorithm
from repro.core.bounds import BoundReport, bound_report
from repro.core.instance import OnlineInstance
from repro.core.seeding import stable_seed
from repro.core.statistics import InstanceStatistics, compute_statistics
from repro.experiments.competitive_ratio import (
    EXACT_SOLVER_SET_LIMIT,
    OptEstimate,
    RatioMeasurement,
    _trace_or_none,
    estimate_opt,
    measure_ratio,
    validate_engine,
)
from repro.experiments.opt_cache import attached_store, default_opt_cache
from repro.experiments.parallel import resolve_workers
from repro.experiments.resilience import FailureReport, RetryPolicy, map_ordered
from repro.experiments.store import store_for_path, unit_key
from repro.exceptions import MeasurementFailedError

if TYPE_CHECKING:  # repro.network imports the experiment layer back
    from repro.network.traffic import Trace

__all__ = [
    "SweepUnit",
    "SweepUnitResult",
    "build_sweep_units",
    "run_units",
    "run_units_resilient",
    "instance_seed",
]

#: A sweep point's generator: draws either an :class:`OnlineInstance` or a
#: router :class:`~repro.network.traffic.Trace` (reduced to its instance for
#: OPT/statistics/keys; streamed directly by the batch engines).
InstanceFactory = Callable[[random.Random], "OnlineInstance | Trace"]


def instance_seed(base_seed: int, point_index: int, instance_index: int) -> int:
    """The RNG seed for one drawn instance of a sweep.

    A documented, stable replacement for the historical
    ``(seed, point_index, instance_index).__hash__() & 0x7FFFFFFF`` idiom:
    tuple hashing varies across interpreters and ``PYTHONHASHSEED`` values,
    so seeds derived from it were not reproducible guarantees.  The mix is
    :func:`~repro.core.seeding.stable_seed` over a tagged component
    list, so any process — including a pool worker regenerating an instance
    from its indices — derives the identical RNG stream.

    >>> instance_seed(0, 0, 0)   # frozen: same value on every platform
    5463517088171824964
    >>> instance_seed(0, 0, 1) != instance_seed(0, 0, 0)
    True
    """
    return stable_seed("sweep-instance", base_seed, point_index, instance_index)


@dataclass(frozen=True)
class SweepUnit:
    """One independent work unit of a sweep: one instance at one point.

    Units are self-contained and picklable: a worker process needs nothing
    beyond the unit, the algorithm list and the measurement parameters.  The
    instance is shipped with the unit (drawn in the parent, so factories may
    be lambdas/closures — only the *instance* crosses the process boundary).
    ``measure_seed`` is the simulation seed shared by every algorithm on
    this unit, preserving the harness's paired-comparison convention.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> unit = SweepUnit(point_index=0, instance_index=1, label="demo-point",
    ...                  instance=OnlineInstance(system), measure_seed=5)
    >>> (unit.point_index, unit.instance_index, unit.measure_seed)
    (0, 1, 5)
    """

    point_index: int
    instance_index: int
    label: str
    instance: OnlineInstance
    measure_seed: int
    #: The router trace behind ``instance``, when the factory drew one.  The
    #: reduction (``trace.to_instance()``) stays the source of OPT,
    #: statistics and store keys; the batch engines stream the trace itself.
    trace: "Optional[Trace]" = None


@dataclass(frozen=True)
class SweepUnitResult:
    """Everything a sweep needs from one executed unit.

    ``measurements`` is aligned with the algorithm list passed to
    :func:`run_units`.  The record carries the unit's indices so the merge
    can re-group by point without trusting arrival order.

    >>> from repro.algorithms import GreedyWeightAlgorithm
    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> units = build_sweep_units(
    ...     [("demo", lambda rng: OnlineInstance(system, name="demo"))],
    ...     instances_per_point=1, seed=0)
    >>> result = run_units(units, [GreedyWeightAlgorithm()], trials=1)[0]
    >>> result.opt
    OptEstimate(2.0000, exact, exact)
    >>> result.measurements[0].ratio
    1.0
    """

    point_index: int
    instance_index: int
    opt: OptEstimate
    stats: InstanceStatistics
    bounds: BoundReport
    measurements: Tuple[RatioMeasurement, ...]


def build_sweep_units(
    parameter_points: Sequence[Tuple[str, InstanceFactory]],
    instances_per_point: int,
    seed: int,
) -> List[SweepUnit]:
    """Draw every instance of the sweep and wrap it in a work unit.

    Instances are generated here, in the parent process, in deterministic
    ``(point, instance)`` order; each draw gets its own RNG seeded by
    :func:`instance_seed`, so the stream consumed by one factory can never
    leak into the next draw.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> units = build_sweep_units(
    ...     [("demo-point", lambda rng: OnlineInstance(system, name="demo"))],
    ...     instances_per_point=2, seed=0)
    >>> [(u.point_index, u.instance_index, u.label) for u in units]
    [(0, 0, 'demo-point'), (0, 1, 'demo-point')]
    >>> units[0].measure_seed    # seed + point_index, shared by the point
    0
    """
    if instances_per_point < 1:
        raise ValueError(
            f"instances_per_point must be at least 1, got {instances_per_point}"
        )
    units: List[SweepUnit] = []
    for point_index, (label, factory) in enumerate(parameter_points):
        for instance_index in range(instances_per_point):
            rng = random.Random(instance_seed(seed, point_index, instance_index))
            drawn = factory(rng)
            trace = _trace_or_none(drawn)
            if trace is not None:
                drawn = trace.to_instance()
            units.append(
                SweepUnit(
                    point_index=point_index,
                    instance_index=instance_index,
                    label=label,
                    instance=drawn,
                    measure_seed=seed + point_index,
                    trace=trace,
                )
            )
    return units


def _lease_owner() -> str:
    """The advisory-lease owner token for this process: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _await_or_claim(store, key: str, owner: str, lease_ttl: float):
    """Wait for a leased unit's result, or steal the lease after its TTL.

    Called when another process already holds the lease on ``key``.  Polls
    the store for the holder's result; if none appears within ``lease_ttl``
    seconds and the lease cannot be re-claimed (the holder keeps renewing),
    returns ``None`` and the caller computes the unit anyway — duplicated
    work is merely wasted wall-clock, and ``INSERT OR IGNORE`` first-writer-
    wins keeps the stored bytes convergent no matter how many processes
    race.  Returns the stored :class:`SweepUnitResult` when one appears.
    """
    deadline = time.monotonic() + lease_ttl
    poll = min(0.05, max(lease_ttl / 10.0, 0.005))
    while time.monotonic() < deadline:
        time.sleep(poll)
        stored = store.get_unit(key)
        if stored is not None:
            return stored
        if store.claim_lease(key, owner, lease_ttl):
            return None  # stolen: the holder expired without writing a result
    return None


def _execute_unit(
    unit: SweepUnit,
    algorithms: Sequence[OnlineAlgorithm],
    trials: int,
    opt_method: str,
    engine: str,
    store_path: Optional[str] = None,
    lease_ttl: float = 0.0,
) -> SweepUnitResult:
    """Execute one work unit (runs in a worker process when ``workers > 1``).

    The OPT solve goes through the worker's per-process
    :func:`~repro.experiments.opt_cache.default_opt_cache` (shared across
    every algorithm and point the worker sees), and all algorithms reuse one
    compiled instance via the engine's compile cache — the two caches the
    serial pipeline used to miss.

    With ``store_path`` set, the whole unit is additionally checked against
    the persistent :class:`~repro.experiments.store.SolutionStore` first: a
    unit whose content-addressed :func:`~repro.experiments.store.unit_key`
    is already stored is *skipped* (its stored result is returned with this
    unit's indices), which is what makes an interrupted sweep resumable —
    a re-run recomputes only the units the crash left unfinished.  Stored
    results are bit-identical to recomputed ones, so the store can never
    change a sweep's rows; the statistical ``engine="fast"`` keeps that
    property by living under its own engine-tagged key, so fast and exact
    sweeps can share one store file without warming each other.  The store
    is also attached below the worker's OPT cache, so even a unit-level
    miss reuses persisted offline solves.

    With ``lease_ttl > 0`` (and a store), the unit is additionally *claimed*
    through the store's advisory lease table before computing, so several
    independent processes pointed at one manifest mostly avoid duplicating
    work.  Leases are strictly advisory: a denied claim waits for the
    holder's result, steals the lease once the TTL expires, and ultimately
    computes the unit anyway — correctness never depends on the lease.
    """
    store = store_for_path(store_path) if store_path else None
    key = None
    if store is not None:
        key = unit_key(
            unit.instance,
            unit.measure_seed,
            algorithms,
            trials,
            opt_method,
            EXACT_SOLVER_SET_LIMIT,
            engine=engine,
        )
        if key is not None:
            stored = store.get_unit(key)
            if stored is not None:
                # The key excludes the unit's position in its sweep, so an
                # equal-content unit from another sweep shape can be reused;
                # only the indices are rewritten for this sweep's merge.
                return replace(
                    stored,
                    point_index=unit.point_index,
                    instance_index=unit.instance_index,
                )
            if lease_ttl > 0:
                owner = _lease_owner()
                if not store.claim_lease(key, owner, lease_ttl):
                    stored = _await_or_claim(store, key, owner, lease_ttl)
                    if stored is not None:
                        return replace(
                            stored,
                            point_index=unit.point_index,
                            instance_index=unit.instance_index,
                        )
    # For the duration of this unit the sweep's store (or its absence) wins
    # over whatever the cache had attached — a store=None sweep must not
    # keep writing OPT solves into a previous sweep's file.
    with attached_store(default_opt_cache(), store) as cache:
        system = unit.instance.system
        opt = estimate_opt(system, method=opt_method, cache=cache)
        stats = compute_statistics(system)
        bounds = bound_report(stats)
        measurements = tuple(
            measure_ratio(
                unit.trace if unit.trace is not None else unit.instance,
                algorithm,
                trials=trials,
                seed=unit.measure_seed,
                opt=opt,
                engine=engine,
            )
            for algorithm in algorithms
        )
    result = SweepUnitResult(
        point_index=unit.point_index,
        instance_index=unit.instance_index,
        opt=opt,
        stats=stats,
        bounds=bounds,
        measurements=measurements,
    )
    if store is not None and key is not None:
        store.put_unit(key, result)
        if lease_ttl > 0:
            store.release_lease(key, _lease_owner())
    return result


def run_units(
    units: Sequence[SweepUnit],
    algorithms: Sequence[OnlineAlgorithm],
    trials: int,
    opt_method: str = "auto",
    engine: str = "reference",
    workers: "int | str" = 1,
    store: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 0.0,
) -> List[SweepUnitResult]:
    """Execute the work units across ``workers`` processes, in unit order.

    The returned list is aligned with ``units`` regardless of which worker
    finished first (``map_ordered`` guarantees submission-order results), so
    downstream merging is deterministic.  A unit that raises — a protocol
    violation, a solver error — propagates its original exception to the
    caller, from worker processes included.

    ``store`` optionally names a persistent
    :class:`~repro.experiments.store.SolutionStore` file (the *path* is
    shipped to workers; each process opens its own connection).  Stored
    units are skipped and every freshly computed unit is persisted, making
    the sweep resumable across crashes and re-invocations.  Like ``workers``
    and the choice among the exact engines, the store is a wall-clock knob
    only: the results are bit-identical with the store enabled, disabled,
    warm or cold.  The statistical ``engine="fast"`` *does* change the
    numbers (within its equivalence tolerances), which is why its units are
    stored under engine-tagged keys that never collide with exact runs.

    >>> from repro.algorithms import GreedyWeightAlgorithm, RandPrAlgorithm
    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> units = build_sweep_units(
    ...     [("demo", lambda rng: OnlineInstance(system, name="demo"))],
    ...     instances_per_point=1, seed=0)
    >>> results = run_units(units, [GreedyWeightAlgorithm(), RandPrAlgorithm()],
    ...                     trials=4, engine="auto")
    >>> len(results), len(results[0].measurements)   # one unit, two algorithms
    (1, 2)
    >>> results[0].measurements[0].algorithm_name
    'greedy-weight'

    With ``policy`` set, the pool is supervised (see
    :func:`run_units_resilient`) — but this entry point still promises a
    *complete* result list, so any unit that exhausts its retry budget
    raises :class:`~repro.exceptions.MeasurementFailedError` (callers that
    want to keep the healthy units use :func:`run_units_resilient`).
    """
    results, failures = run_units_resilient(
        units,
        algorithms,
        trials,
        opt_method=opt_method,
        engine=engine,
        workers=workers,
        store=store,
        policy=policy,
        lease_ttl=lease_ttl,
    )
    if failures:
        raise MeasurementFailedError.after_retries("sweep unit", failures)
    return results


def run_units_resilient(
    units: Sequence[SweepUnit],
    algorithms: Sequence[OnlineAlgorithm],
    trials: int,
    opt_method: str = "auto",
    engine: str = "reference",
    workers: "int | str" = 1,
    store: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 0.0,
) -> Tuple[List[Optional[SweepUnitResult]], List[FailureReport]]:
    """Execute the units, keeping the healthy ones when some fail.

    Like :func:`run_units`, but a unit that fails ``policy.max_attempts``
    times is *quarantined* rather than sinking the sweep.  With a
    :class:`~repro.experiments.resilience.RetryPolicy`, the pool of
    :func:`~repro.experiments.resilience.map_ordered` is supervised: worker
    crashes rebuild the pool and requeue only the lost units, and transient
    exceptions retry with deterministic backoff.  Returns ``(results,
    failures)`` where ``results`` is aligned with ``units`` (``None`` at
    quarantined slots) and ``failures`` carries one structured
    :class:`~repro.experiments.resilience.FailureReport` per quarantined
    unit.  Without a policy the map is fail-fast: ``failures`` is always
    empty, and a failing unit raises its original exception.

    Because every unit is a pure function of its content (seeds derive from
    :func:`~repro.core.seeding.stable_seed`, never from wall clock
    or process identity), a retried unit recomputes the *same bits* the
    first attempt would have produced — fault schedules join the worker
    count, the store and the choice among exact engines as wall-clock-only
    knobs.  (This holds under ``engine="fast"`` too — fast trials are a
    pure function of ``seed + trial`` — only the fast-vs-exact
    correspondence is statistical.)

    >>> from repro.algorithms import GreedyWeightAlgorithm
    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> units = build_sweep_units(
    ...     [("demo", lambda rng: OnlineInstance(system, name="demo"))],
    ...     instances_per_point=1, seed=0)
    >>> results, failures = run_units_resilient(
    ...     units, [GreedyWeightAlgorithm()], trials=2)
    >>> (len(results), failures)
    (1, [])
    """
    validate_engine(engine)
    resolve_workers(workers)
    task = partial(
        _execute_unit,
        algorithms=list(algorithms),
        trials=trials,
        opt_method=opt_method,
        engine=engine,
        store_path=str(store) if store is not None else None,
        lease_ttl=lease_ttl,
    )
    labels = [
        f"{unit.label}[instance {unit.instance_index}]" for unit in units
    ]
    outcome = map_ordered(
        task, list(units), workers=workers, policy=policy, labels=labels
    )
    return outcome.results, outcome.failures
