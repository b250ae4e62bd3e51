"""Experiment harness: parameter sweeps with repetitions and summary rows.

The benchmarks build their tables with this harness: an experiment is a
family of instances indexed by a parameter point, each instance is solved
offline (for OPT) and simulated online for every algorithm under test, and
the harness aggregates mean benefit, measured ratio and the applicable
theoretical bounds into one row per (parameter point, algorithm).

Since the orchestrator refactor the sweep body lives in
:mod:`repro.experiments.orchestrator`: the harness decomposes the sweep into
independent ``(point, instance)`` work units, executes them across
``workers`` processes, and merges the results here in deterministic sweep
order.  A parallel sweep is bit-identical to a serial one — same seeds, same
float summation order — so ``workers`` is purely a wall-clock knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.algorithm import OnlineAlgorithm
from repro.experiments.orchestrator import (
    InstanceFactory,
    SweepUnitResult,
    build_sweep_units,
    run_units_resilient,
)
from repro.experiments.resilience import FailureReport, RetryPolicy
from repro.experiments.store import store_path_from_env

__all__ = ["ExperimentRow", "SweepResult", "run_sweep", "summarize_rows"]



@dataclass(frozen=True)
class ExperimentRow:
    """One aggregated row of an experiment table."""

    parameter_label: str
    algorithm_name: str
    num_instances: int
    mean_benefit: float
    mean_opt: float
    mean_ratio: float
    max_ratio: float
    theorem1_bound: float
    corollary6_bound: float
    best_bound: float
    k_max: float
    sigma_max: float
    extra: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "parameter": self.parameter_label,
            "algorithm": self.algorithm_name,
            "instances": self.num_instances,
            "mean_benefit": round(self.mean_benefit, 4),
            "mean_opt": round(self.mean_opt, 4),
            "mean_ratio": round(self.mean_ratio, 4),
            "max_ratio": round(self.max_ratio, 4),
            "thm1_bound": round(self.theorem1_bound, 4),
            "cor6_bound": round(self.corollary6_bound, 4),
            "best_bound": round(self.best_bound, 4),
            "k_max": self.k_max,
            "sigma_max": self.sigma_max,
        }
        for key, value in self.extra.items():
            row[key] = round(value, 4) if isinstance(value, float) else value
        return row

    @property
    def within_theorem1(self) -> bool:
        """Whether the measured mean ratio respects the Theorem 1 bound."""
        return self.mean_ratio <= self.theorem1_bound + 1e-9

    @property
    def within_corollary6(self) -> bool:
        """Whether the measured mean ratio respects the Corollary 6 bound."""
        return self.mean_ratio <= self.corollary6_bound + 1e-9


@dataclass
class SweepResult:
    """All rows of one parameter sweep.

    ``failures`` is empty unless the sweep ran under a
    :class:`~repro.experiments.resilience.RetryPolicy` and some units
    exhausted their retry budget; those units' instances are then missing
    from the affected rows (``num_instances`` says how many survived) and
    each casualty is described by a structured
    :class:`~repro.experiments.resilience.FailureReport`.
    """

    name: str
    rows: List[ExperimentRow] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every unit of the sweep completed (no quarantined units)."""
        return not self.failures

    def rows_for(self, algorithm_name: str) -> List[ExperimentRow]:
        """The rows belonging to one algorithm, in sweep order."""
        return [row for row in self.rows if row.algorithm_name == algorithm_name]

    def algorithms(self) -> List[str]:
        """The distinct algorithm names, in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            if row.algorithm_name not in seen:
                seen.append(row.algorithm_name)
        return seen


def _merge_point(
    label: str,
    point_results: Sequence[SweepUnitResult],
    algorithms: Sequence[OnlineAlgorithm],
    sweep: SweepResult,
) -> None:
    """Fold one point's unit results into sweep rows.

    The aggregation arithmetic — which values are summed, in which order —
    is exactly the serial harness's historical loop, applied to results that
    arrive pre-sorted in instance order; this is what makes a parallel sweep
    reproduce a serial one float for float.

    A point whose every instance was quarantined by the resilient executor
    contributes no rows (the sweep-level ``failures`` list names the
    casualties); points with any surviving instance aggregate over the
    survivors.
    """
    count = len(point_results)
    if count == 0:
        return
    mean_opt = sum(result.opt.value for result in point_results) / count
    mean_theorem1 = sum(result.bounds.theorem1 for result in point_results) / count
    mean_corollary6 = sum(result.bounds.corollary6 for result in point_results) / count
    mean_best = sum(result.bounds.best for result in point_results) / count
    mean_k_max = sum(result.stats.k_max for result in point_results) / count
    mean_sigma_max = sum(result.stats.sigma_max for result in point_results) / count

    for algorithm_index, algorithm in enumerate(algorithms):
        benefits = [
            result.measurements[algorithm_index].mean_benefit
            for result in point_results
        ]
        ratios = [
            result.measurements[algorithm_index].ratio for result in point_results
        ]
        finite_ratios = [value for value in ratios if math.isfinite(value)]
        mean_ratio = (
            sum(finite_ratios) / len(finite_ratios) if finite_ratios else float("inf")
        )
        max_ratio = max(ratios) if ratios else float("inf")
        sweep.rows.append(
            ExperimentRow(
                parameter_label=label,
                algorithm_name=algorithm.name,
                num_instances=count,
                mean_benefit=sum(benefits) / len(benefits),
                mean_opt=mean_opt,
                mean_ratio=mean_ratio,
                max_ratio=max_ratio,
                theorem1_bound=mean_theorem1,
                corollary6_bound=mean_corollary6,
                best_bound=mean_best,
                k_max=mean_k_max,
                sigma_max=mean_sigma_max,
            )
        )


def run_sweep(
    name: str,
    parameter_points: Sequence[Tuple[str, InstanceFactory]],
    algorithms: Sequence[OnlineAlgorithm],
    instances_per_point: int = 3,
    trials_per_instance: int = 10,
    seed: int = 0,
    opt_method: str = "auto",
    engine: str = "reference",
    workers: Union[int, str] = 1,
    store: Union[str, bool, None] = None,
    policy: Optional[RetryPolicy] = None,
    lease_ttl: float = 0.0,
) -> SweepResult:
    """Run a parameter sweep.

    Parameters
    ----------
    parameter_points:
        Pairs ``(label, factory)``; the factory receives an RNG and returns a
        fresh instance for that parameter point.  A factory may also return
        a router :class:`~repro.network.traffic.Trace`: OPT, statistics and
        store keys come from its reduction (``trace.to_instance()``), while
        the batch engines stream the trace directly in bounded memory —
        identical numbers either way.
    algorithms:
        The algorithms to evaluate at every point.
    instances_per_point:
        How many independent instances to draw per point.
    trials_per_instance:
        Simulation repetitions per instance for randomized algorithms.
    engine:
        Simulation engine routed to :func:`measure_ratio` — ``"reference"``,
        ``"batch"``, ``"auto"`` or ``"fast"``.  The exact engines (first
        three) agree trial for trial, so the sweep's numbers do not depend
        on choosing among them; ``"fast"`` is the opt-in statistical
        backend, whose rows agree within pre-registered tolerances but not
        bit for bit (its store units live under their own engine-tagged
        keys for the same reason).
    workers:
        Worker processes for the ``(point, instance)`` work units.
        ``workers=1`` runs everything in-process; any other count produces
        **bit-identical** rows (the orchestrator merges unit results in
        sweep order with the serial summation arithmetic), so this too is a
        runtime knob only.
    store:
        Optional path of a persistent
        :class:`~repro.experiments.store.SolutionStore` file.  Completed
        ``(point, instance)`` units found in the store are skipped and fresh
        ones are persisted, so an interrupted sweep resumes where it stopped
        and a repeated invocation answers from disk.  When omitted
        (``None``), the ``OSP_STORE`` environment variable supplies the
        default; pass ``False`` to force persistence off even when
        ``OSP_STORE`` is set (benchmarks use this for their store-off
        baselines).  A third runtime-only knob: rows are bit-identical with
        the store on, off, warm or cold.
    policy:
        Optional :class:`~repro.experiments.resilience.RetryPolicy`.  When
        set, units execute under the supervised pool of
        :func:`~repro.experiments.orchestrator.run_units_resilient`: worker
        crashes rebuild the pool and requeue only the lost units, transient
        exceptions retry with deterministic backoff, and a unit that fails
        ``max_attempts`` times is quarantined into ``SweepResult.failures``
        while the healthy units complete.  Because every unit is a pure
        function of its content, retries reproduce the exact bits a
        fault-free run yields — a fourth runtime-only knob.  Without a
        policy the pool is fail-fast: a failing unit raises its original
        exception.
    lease_ttl:
        With a store and ``lease_ttl > 0``, each unit is claimed through
        the store's advisory lease table before computing, letting several
        independent processes share one manifest without (mostly)
        duplicating work.  Purely advisory: results stay first-writer-wins
        and bit-identical whether or not leases are used.
    """
    if store is None:
        store = store_path_from_env()
    elif store is False:
        store = None
    elif store is True:
        raise ValueError(
            "store=True is not a store path; pass a path, None (OSP_STORE "
            "default) or False (force off)"
        )
    units = build_sweep_units(parameter_points, instances_per_point, seed)
    maybe_results, failures = run_units_resilient(
        units,
        algorithms,
        trials=trials_per_instance,
        opt_method=opt_method,
        engine=engine,
        workers=workers,
        store=store,
        policy=policy,
        lease_ttl=lease_ttl,
    )
    results = [result for result in maybe_results if result is not None]

    sweep = SweepResult(name=name, failures=failures)
    for point_index, (label, _factory) in enumerate(parameter_points):
        point_results = [
            result for result in results if result.point_index == point_index
        ]
        _merge_point(label, point_results, algorithms, sweep)
    return sweep


def summarize_rows(rows: Iterable[ExperimentRow]) -> Dict[str, float]:
    """Aggregate check over many rows: worst measured ratio vs. worst bound."""
    rows = list(rows)
    if not rows:
        return {"rows": 0, "max_ratio": 0.0, "max_bound": 0.0, "all_within_cor6": 1.0}
    finite = [row.mean_ratio for row in rows if math.isfinite(row.mean_ratio)]
    return {
        "rows": float(len(rows)),
        "max_ratio": max(finite) if finite else float("inf"),
        "max_bound": max(row.corollary6_bound for row in rows),
        "all_within_cor6": 1.0 if all(row.within_corollary6 for row in rows) else 0.0,
    }
