"""Measuring competitive ratios: OPT estimation and ratio computation.

The competitive ratio of an algorithm on an instance is
``w(OPT) / E[w(ALG)]``.  ``E[w(ALG)]`` is estimated by repeated simulation;
``w(OPT)`` is computed exactly when the instance is small enough and
otherwise bounded from above by the LP relaxation (which can only make the
measured ratio *larger*, keeping upper-bound experiments honest).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm import OnlineAlgorithm
from repro.core.instance import OnlineInstance
from repro.core.set_system import SetSystem
from repro.core.simulation import simulate_many
from repro.core.statistics import statistics_from_benefits
from repro.engine.batch import simulate_batch
from repro.engine.fast import simulate_fast
from repro.engine.specs import spec_for_algorithm
from repro.engine.streaming import simulate_trace_batch

if TYPE_CHECKING:  # repro.network imports this package back
    from repro.network.traffic import Trace


def _trace_or_none(instance) -> "Optional[Trace]":
    """``instance`` if it is a router trace, else ``None`` (lazy import:
    ``repro.network`` imports the experiment layer back)."""
    from repro.network.traffic import Trace

    return instance if isinstance(instance, Trace) else None
from repro.exceptions import (
    MeasurementFailedError,
    SolverError,
    UnsupportedAlgorithmError,
)
from repro.experiments.opt_cache import OptCache, default_opt_cache
from repro.experiments.parallel import partition_trials, resolve_workers
from repro.experiments.resilience import RetryPolicy, map_ordered
from repro.offline.exact import solve_exact
from repro.offline.local_search import local_search_packing
from repro.offline.lp import lp_relaxation_bound

__all__ = [
    "OptEstimate",
    "estimate_opt",
    "RatioMeasurement",
    "measure_ratio",
    "measure_suite",
    "simulation_benefits",
    "validate_engine",
]

#: The accepted values of every ``engine=`` parameter in this package.
#: ``reference``, ``batch`` and ``auto`` are *exact* (bit-identical trial for
#: trial); ``fast`` is the opt-in statistical backend
#: (:func:`~repro.engine.fast.simulate_fast`), which matches the exact
#: engines in distribution but not bit for bit.
ENGINE_CHOICES = ("reference", "batch", "auto", "fast")


def validate_engine(engine: str) -> str:
    """Validate an engine selector, returning it unchanged.

    The single source of truth for the
    ``"reference" | "batch" | "auto" | "fast"`` vocabulary used by the
    measurement helpers, the sweep harness, the runner CLI and the
    ``OSP_BENCH_ENGINE`` benchmark flag.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r}; use one of {', '.join(ENGINE_CHOICES)}"
        )
    return engine

#: Instances with at most this many sets are solved exactly by default.
EXACT_SOLVER_SET_LIMIT = 60


@dataclass(frozen=True)
class OptEstimate:
    """An estimate (or exact value / upper bound) of the offline optimum."""

    value: float
    method: str
    is_exact: bool
    lower_bound: float

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "upper-bound"
        return f"OptEstimate({self.value:.4f}, {self.method}, {kind})"


def estimate_opt(
    system: SetSystem,
    method: str = "auto",
    exact_set_limit: int = EXACT_SOLVER_SET_LIMIT,
    cache: Optional[OptCache] = None,
) -> OptEstimate:
    """Estimate the offline optimum of a set system.

    ``method`` is one of ``"auto"``, ``"exact"``, ``"lp"`` or ``"local-search"``.
    ``auto`` solves exactly up to ``exact_set_limit`` sets and otherwise
    reports the LP bound (with a local-search lower bound attached so callers
    can see how tight the relaxation is).

    ``cache`` is an optional :class:`~repro.experiments.opt_cache.OptCache`:
    the estimate is keyed by the system's *content* fingerprint together with
    ``(method, exact_set_limit)``, so repeated solves of equal systems —
    across algorithms, sweep points or processes that regenerated the same
    instance — are answered from the cache.  The returned ``OptEstimate`` is
    immutable, so sharing the cached record is safe.
    """
    if method not in ("auto", "exact", "lp", "local-search"):
        raise SolverError(f"unknown OPT estimation method {method!r}")
    if cache is not None:
        key = cache.key(system, method, exact_set_limit)
        return cache.get_or_compute(
            key, partial(_estimate_opt_uncached, system, method, exact_set_limit)
        )
    return _estimate_opt_uncached(system, method, exact_set_limit)


def _estimate_opt_uncached(
    system: SetSystem, method: str, exact_set_limit: int
) -> OptEstimate:
    """The cache-free estimation body behind :func:`estimate_opt`."""
    if method == "exact" or (method == "auto" and system.num_sets <= exact_set_limit):
        solution = solve_exact(system)
        if solution.is_optimal:
            return OptEstimate(
                value=solution.weight,
                method="exact",
                is_exact=True,
                lower_bound=solution.weight,
            )
        # Node budget exhausted: fall through to the LP bound, keeping the
        # incumbent as the lower bound.
        lp = lp_relaxation_bound(system)
        return OptEstimate(
            value=lp.value,
            method=f"lp (exact search truncated at {solution.nodes_explored} nodes)",
            is_exact=False,
            lower_bound=solution.weight,
        )

    if method == "local-search":
        solution = local_search_packing(system)
        return OptEstimate(
            value=solution.weight,
            method="local-search",
            is_exact=False,
            lower_bound=solution.weight,
        )

    lp = lp_relaxation_bound(system)
    heuristic = local_search_packing(system)
    return OptEstimate(
        value=lp.value,
        method=lp.method,
        is_exact=False,
        lower_bound=heuristic.weight,
    )


@dataclass(frozen=True)
class RatioMeasurement:
    """A measured competitive ratio for one algorithm on one instance."""

    algorithm_name: str
    instance_name: str
    trials: int
    mean_benefit: float
    std_benefit: float
    opt: OptEstimate
    ratio: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm_name,
            "instance": self.instance_name,
            "trials": self.trials,
            "mean_benefit": self.mean_benefit,
            "std_benefit": self.std_benefit,
            "opt": self.opt.value,
            "ratio": self.ratio,
        }


def _benefits_chunk(
    chunk: Tuple[int, int],
    instance: OnlineInstance,
    algorithm: OnlineAlgorithm,
    seed: int,
    engine: str,
    trace: "Optional[Trace]" = None,
) -> List[float]:
    """Benefits of the contiguous trial chunk ``(offset, count)``.

    Every engine seeds trial ``b`` as ``seed + b``, so running a chunk with
    ``seed + offset`` reproduces exactly trials ``offset..offset+count-1``
    of the unchunked run — for the statistical ``fast`` engine that is the
    counter-based invariance of :func:`~repro.engine.fast.simulate_fast`,
    so even fast runs are bit-identical across worker counts (only the
    *exact-engine* correspondence is statistical).  When a router ``trace``
    is attached and a non-reference engine requested, the chunk runs on the
    streaming engine (same exact contract, bounded memory; ``fast`` has no
    trace path and uses it too).  Top-level (not a closure) so process-pool
    workers can unpickle it.
    """
    offset, count = chunk
    if engine != "reference":
        spec = spec_for_algorithm(algorithm)
        if spec is not None:
            if trace is not None:
                result = simulate_trace_batch(
                    trace, spec, trials=count, seed=seed + offset
                )
            elif engine == "fast":
                result = simulate_fast(
                    instance, spec, trials=count, seed=seed + offset
                )
            else:
                result = simulate_batch(
                    instance, spec, trials=count, seed=seed + offset
                )
            return [float(value) for value in result.benefits]
        if engine in ("batch", "fast"):
            raise UnsupportedAlgorithmError(
                f"algorithm {algorithm.name!r} cannot run on the "
                f"{engine} engine; use engine='reference' or engine='auto'"
            )
    results = simulate_many(instance, algorithm, trials=count, seed=seed + offset)
    return [result.benefit for result in results]


def simulation_benefits(
    instance: "OnlineInstance | Trace",
    algorithm: OnlineAlgorithm,
    trials: int,
    seed: int = 0,
    engine: str = "reference",
    workers: "int | str" = 1,
    policy: Optional[RetryPolicy] = None,
) -> Sequence[float]:
    """Per-trial benefits of ``trials`` shared-seed simulations.

    ``instance`` may also be a router :class:`~repro.network.traffic.Trace`:
    the reference engine then simulates ``trace.to_instance()`` and the
    batch engines stream the trace directly
    (:func:`~repro.engine.streaming.simulate_trace_batch`), with identical
    results trial for trial.

    ``engine`` selects the simulator:

    * ``"reference"`` — the per-arrival Python loop (:func:`simulate_many`);
      works for every algorithm.
    * ``"batch"`` — the vectorized engine (:func:`simulate_batch`); raises
      :class:`~repro.exceptions.UnsupportedAlgorithmError` for algorithms it
      cannot replay.
    * ``"auto"`` — the batch engine when the algorithm is supported, the
      reference simulator otherwise.
    * ``"fast"`` — the opt-in *statistical* backend
      (:func:`~repro.engine.fast.simulate_fast`): counter-based PCG64
      draws, equivalent to the exact engines in distribution but not bit
      for bit.  Raises for unsupported algorithms like ``"batch"``; trace
      inputs run on the (exact) streaming engine.

    ``workers`` splits the trials into contiguous chunks executed across a
    process pool (``workers=1`` runs in-process).  Chunk ``(offset, count)``
    replays exactly trials ``offset..offset+count-1`` of the serial run, and
    the chunks are concatenated in order, so the returned benefit sequence
    is *bit-identical* for every worker count.  The worker count never
    changes the measurement, and neither does the choice *among the exact
    engines*; ``engine="fast"`` alone trades bit-identity for throughput —
    its numbers agree statistically (``tests/test_engine_fast_equivalence.py``)
    but not bit for bit, which is why it is opt-in everywhere.

    ``policy`` supervises the chunk fan-out of
    :func:`~repro.experiments.resilience.map_ordered` (crash recovery,
    retry with deterministic backoff).  Unlike a sweep, a measurement cannot
    *quarantine* a chunk — dropping trials would change the benefit
    sequence — so a chunk that exhausts its retry budget raises
    :class:`~repro.exceptions.MeasurementFailedError`.  Retried chunks
    recompute the same bits, so the policy too is a runtime-only knob.
    """
    validate_engine(engine)
    workers = resolve_workers(workers)
    trace = _trace_or_none(instance)
    if trace is not None:
        instance = trace.to_instance()
    task = partial(
        _benefits_chunk,
        instance=instance,
        algorithm=algorithm,
        seed=seed,
        engine=engine,
        trace=trace,
    )
    chunks = partition_trials(trials, workers)
    outcome = map_ordered(
        task,
        chunks,
        workers=workers,
        policy=policy,
        labels=[f"trials[{offset}:{offset + count}]" for offset, count in chunks],
    )
    if outcome.failures:
        raise MeasurementFailedError.after_retries("trial chunk", outcome.failures)
    benefits: List[float] = []
    for chunk_benefits in outcome.results:
        benefits.extend(chunk_benefits)
    return benefits


def measure_ratio(
    instance: "OnlineInstance | Trace",
    algorithm: OnlineAlgorithm,
    trials: int = 20,
    seed: int = 0,
    opt: Optional[OptEstimate] = None,
    opt_method: str = "auto",
    engine: str = "reference",
    workers: "int | str" = 1,
    opt_cache: Optional[OptCache] = None,
    policy: Optional[RetryPolicy] = None,
) -> RatioMeasurement:
    """Measure the empirical competitive ratio of one algorithm on one instance.

    The ratio is ``opt / mean_benefit``; a zero mean benefit yields ``inf``.
    A precomputed ``opt`` may be supplied to avoid repeating the (expensive)
    offline solve when several algorithms run on the same instance, or an
    ``opt_cache`` to share solves by system content.  ``instance`` may be a
    router :class:`~repro.network.traffic.Trace` (OPT is estimated on its
    reduction; the batch engines stream the trace).  ``engine``,
    ``workers`` and ``policy`` route the simulations (see
    :func:`simulation_benefits`); ``workers``, ``policy`` and the exact
    engines never change the measured numbers, while the statistical
    ``engine="fast"`` changes them within its pre-registered equivalence
    tolerances.
    """
    trace = _trace_or_none(instance)
    if trace is not None:
        instance = trace.to_instance()
    if opt is None:
        opt = estimate_opt(instance.system, method=opt_method, cache=opt_cache)
    effective_trials = 1 if algorithm.is_deterministic else trials
    benefits = list(
        simulation_benefits(
            trace if trace is not None else instance,
            algorithm,
            trials=effective_trials,
            seed=seed,
            engine=engine,
            workers=workers,
            policy=policy,
        )
    )
    mean, std = statistics_from_benefits(benefits)
    ratio = float("inf") if mean <= 0 else opt.value / mean
    return RatioMeasurement(
        algorithm_name=algorithm.name,
        instance_name=instance.name,
        trials=effective_trials,
        mean_benefit=mean,
        std_benefit=std,
        opt=opt,
        ratio=ratio,
    )


def _measure_for_suite(
    algorithm: OnlineAlgorithm,
    instance: OnlineInstance,
    trials: int,
    seed: int,
    opt: OptEstimate,
    engine: str,
) -> RatioMeasurement:
    """One suite measurement (top-level so process-pool workers can run it)."""
    return measure_ratio(
        instance, algorithm, trials=trials, seed=seed, opt=opt, engine=engine
    )


def measure_suite(
    instance: OnlineInstance,
    algorithms: Sequence[OnlineAlgorithm],
    trials: int = 20,
    seed: int = 0,
    opt_method: str = "auto",
    engine: str = "reference",
    workers: "int | str" = 1,
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, RatioMeasurement]:
    """Measure every algorithm on the same instance, sharing the OPT estimate.

    The offline solve happens once (answered from the per-process
    :func:`~repro.experiments.opt_cache.default_opt_cache` when the same
    system was measured before); the per-algorithm measurements are the
    independent work units, fanned out across ``workers`` processes and
    merged back in ``algorithms`` order.  The result dictionary is identical
    for every worker count — all algorithms share the same seeds either way.

    ``policy`` supervises the fan-out (crash recovery, deterministic-backoff
    retries); an algorithm whose measurement exhausts its retry budget
    raises :class:`~repro.exceptions.MeasurementFailedError` — a suite, like
    a benefit sequence, is complete or failed, never partial.
    """
    opt = estimate_opt(instance.system, method=opt_method, cache=default_opt_cache())
    task = partial(
        _measure_for_suite,
        instance=instance,
        trials=trials,
        seed=seed,
        opt=opt,
        engine=engine,
    )
    outcome = map_ordered(
        task,
        list(algorithms),
        workers=workers,
        policy=policy,
        labels=[algorithm.name for algorithm in algorithms],
    )
    if outcome.failures:
        raise MeasurementFailedError.after_retries(
            "suite measurement", outcome.failures
        )
    measurements = outcome.results
    return {
        measurement.algorithm_name: measurement for measurement in measurements
    }
