"""The benchmark's workloads: inputs, one timed pass, output checks.

Every workload is a closed loop in one process: a pass starts only after the
previous one returned.  Inputs are generated from the workload seed alone, so
the same seed gives the same inputs; the program receives only those inputs.

============== ================================================================
``in_process`` three parts in one pass, each started with cold caches:
               *sweep*, the standard 200-set sweep, ``run_sweep(engine=
               "auto", workers=1, store=False)``, dominated by OPT (LP + local
               search) and the uniform-random replay; *trials*, one 200x400
               instance with three randomized algorithms at
               :data:`TRIALS_PER_ALGORITHM` trials on the exact batch engine
               (its draw table exceeds the uniform-cache cap); *trace*, a
               Poisson-burst router trace through ``run_router_batch(
               engine="streaming")``.  Work unit: passes.
``pool_store`` the sweep spec at 12 instances per point with ``workers=2`` and
               a store prefilled with instances 0-5.  Work unit: sweep units.
============== ================================================================
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sqlite3
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.algorithms import (
    FirstListedAlgorithm,
    GreedyWeightAlgorithm,
    RandPrAlgorithm,
    UniformRandomAlgorithm,
    UnweightedPriorityAlgorithm,
)
from repro.core.simulation import simulate
from repro.engine import batch as batch_engine
from repro.engine import clear_compile_cache
from repro.engine import rng as rng_bridge
from repro.engine.specs import spec_for_algorithm
from repro.experiments import default_opt_cache, estimate_opt, run_sweep
from repro.network import router
from repro.network.traffic import PoissonBurstGenerator
from repro.workloads import random_online_instance

#: The ceiling on processes: the benchmark machine's ``nproc``.
POOL_WORKERS = 2

NUM_SETS = 200
ELEMENT_COUNTS = (500, 400, 300)
SET_SIZE_RANGE = (2, 5)
WEIGHT_RANGE = (1.0, 6.0)
SWEEP_INSTANCES_PER_POINT = 6
SWEEP_TRIALS = 300
POOL_INSTANCES_PER_POINT = 12

TRIALS_ELEMENTS = 400
#: Large enough that the (trials x sets) float64 draw table exceeds the
#: uniform cache's 32 MiB cap, so every randomized static kind regenerates it.
TRIALS_PER_ALGORITHM = 25_000

TRACE_SLOTS = 20_000
TRACE_TRIALS = 200

#: How many sampled trials (besides the last one) each replay check re-runs
#: through the reference engine.
SAMPLED_TRIALS = 2

#: The uniform cache's byte cap, read from the program so a resize shows.
UNIFORM_CACHE_CAP_BYTES = rng_bridge._UNIFORM_CACHE_MAX_BYTES


class Checks:
    """Counts output checks attempted and failed, with failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def compare_rows(self, rows: Sequence, expected: Sequence, what: str) -> None:
        """One check per expected row; missing or extra rows fail too."""
        for index in range(max(len(rows), len(expected))):
            same = index < len(rows) and index < len(expected) and rows[index] == expected[index]
            self.expect(same, f"{what}: row {index} differs")


@dataclass
class PassOutput:
    """What one pass produced: comparable rows, work done, kept results."""

    rows: list
    work: float
    results: list = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def cold_caches() -> None:
    """Reset the per-process caches so every pass starts cold."""
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()
    rng_bridge.clear_uniform_cache()


def batch_digest(result) -> str:
    """A digest of a batch result's completed mask and benefit floats."""
    digest = hashlib.sha256(result.completed.tobytes())
    digest.update(result.benefits.tobytes())
    return digest.hexdigest()


def sampled_trials(seed: int, trials: int) -> List[int]:
    """A few trial indices drawn from the seed, always including the last."""
    picks = random.Random(seed).sample(range(trials - 1), SAMPLED_TRIALS)
    return sorted(picks) + [trials - 1]


def check_replays(checks: Checks, instance, algorithm, result, seed: int, trials) -> None:
    """Re-run sampled trials on the reference engine; they must be bit-equal."""
    for trial in trials:
        reference = simulate(instance, algorithm, rng=random.Random(seed + trial))
        checks.expect(
            result.completed_sets(trial) == reference.completed_sets
            and float(result.benefits[trial]) == reference.benefit,
            f"{algorithm.name} trial {trial} differs from the reference engine",
        )


def sweep_algorithms() -> list:
    return [
        RandPrAlgorithm(),
        UnweightedPriorityAlgorithm(),
        UniformRandomAlgorithm(),
        GreedyWeightAlgorithm(),
        FirstListedAlgorithm(),
    ]


def sweep_points() -> list:
    points = []
    for num_elements in ELEMENT_COUNTS:

        def factory(rng, num_elements=num_elements):
            return random_online_instance(
                NUM_SETS,
                num_elements,
                SET_SIZE_RANGE,
                rng,
                weight_range=WEIGHT_RANGE,
                name=f"{NUM_SETS}x{num_elements}",
            )

        points.append((f"n={num_elements}", factory))
    return points


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""
    workers = 1
    #: The store file a pass reads and writes, when the workload uses one.
    store_path = None
    units_per_pass = 0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Generate inputs and do the work every pass reuses."""

    def prepare_pass(self) -> None:
        """Untimed per-pass reset: cold caches (and a fresh store copy)."""
        cold_caches()

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        """Output checks made once per run on one pass's output."""


class SweepWorkload(Workload):
    """The *sweep* part of ``in_process``, and the base of ``pool_store``."""

    name = "sweep"
    units_per_pass = len(ELEMENT_COUNTS) * SWEEP_INSTANCES_PER_POINT

    def setup(self) -> None:
        table_bytes = SWEEP_TRIALS * NUM_SETS * 8
        if table_bytes >= UNIFORM_CACHE_CAP_BYTES:
            raise RuntimeError(
                f"sweep draw table ({table_bytes} B) must stay below the "
                f"uniform-cache cap ({UNIFORM_CACHE_CAP_BYTES} B)"
            )
        self.points = sweep_points()
        self.algorithms = sweep_algorithms()

    def _sweep(self, instances_per_point, workers, store):
        return run_sweep(
            f"perfbench {self.name}",
            self.points,
            self.algorithms,
            instances_per_point=instances_per_point,
            trials_per_instance=SWEEP_TRIALS,
            seed=self.seed,
            engine="auto",
            workers=workers,
            store=store,
        )

    def run_pass(self) -> PassOutput:
        sweep = self._sweep(SWEEP_INSTANCES_PER_POINT, 1, False)
        return PassOutput(rows=sweep.rows + sweep.failures, work=1)

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        checks.expect(
            len(output.rows) == len(ELEMENT_COUNTS) * len(self.algorithms),
            "sweep rows missing (a unit failed or was quarantined)",
        )
        for row in output.rows:
            # OPT is an LP upper bound, so no algorithm can beat it.
            checks.expect(
                row.mean_ratio >= 1.0 - 1e-9,
                f"{row.parameter_label}/{row.algorithm_name}: ratio below 1",
            )
            if row.algorithm_name == "randPr":
                checks.expect(
                    row.within_theorem1,
                    f"{row.parameter_label}: randPr exceeds the Theorem 1 bound",
                )


class TrialsWorkload(Workload):
    """The *trials* part of ``in_process``: many trials on one instance."""

    name = "trials"

    def setup(self) -> None:
        table_bytes = TRIALS_PER_ALGORITHM * NUM_SETS * 8
        if table_bytes <= UNIFORM_CACHE_CAP_BYTES:
            raise RuntimeError(
                f"trials draw table ({table_bytes} B) must exceed the "
                f"uniform-cache cap ({UNIFORM_CACHE_CAP_BYTES} B)"
            )
        self.instance = random_online_instance(
            NUM_SETS,
            TRIALS_ELEMENTS,
            SET_SIZE_RANGE,
            random.Random(self.seed),
            weight_range=WEIGHT_RANGE,
            name=f"{NUM_SETS}x{TRIALS_ELEMENTS}",
        )
        self.algorithms = [
            RandPrAlgorithm(),
            UnweightedPriorityAlgorithm(),
            UniformRandomAlgorithm(),
        ]
        self.specs = [spec_for_algorithm(algorithm) for algorithm in self.algorithms]
        self.opt = estimate_opt(self.instance.system)

    def run_pass(self) -> PassOutput:
        results = [
            batch_engine.simulate_batch(
                self.instance, spec, TRIALS_PER_ALGORITHM, seed=self.seed
            )
            for spec in self.specs
        ]
        rows = [
            (
                result.algorithm_name,
                result.mean_benefit,
                result.std_benefit,
                self.opt.value / result.mean_benefit,
                batch_digest(result),
            )
            for result in results
        ]
        return PassOutput(rows=rows, work=1, results=results)

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        trials = sampled_trials(self.seed, TRIALS_PER_ALGORITHM)
        for algorithm, result in zip(self.algorithms, output.results):
            check_replays(checks, self.instance, algorithm, result, self.seed, trials)


class TraceWorkload(Workload):
    """The *trace* part of ``in_process``: a long router trace, few trials."""

    name = "trace"

    def setup(self) -> None:
        generator = PoissonBurstGenerator(
            arrival_rate=0.6, packets_per_frame=(2, 5), id_pad=8
        )
        self.trace = generator.generate(TRACE_SLOTS, random.Random(self.seed))
        self.algorithms = [
            RandPrAlgorithm(),
            UniformRandomAlgorithm(),
            GreedyWeightAlgorithm(),
        ]

    def run_pass(self) -> PassOutput:
        results = []
        peak_rows = 0
        windows = 0
        for algorithm in self.algorithms:
            stats: dict = {}
            result = router.run_router_batch(
                self.trace,
                algorithm,
                TRACE_TRIALS,
                seed=self.seed,
                engine="streaming",
                stats=stats,
            )
            results.append(result.batch)
            peak_rows = max(peak_rows, stats["peak_pooled_rows"])
            windows += stats["windows"]
        rows = [
            (result.algorithm_name, result.mean_benefit, result.std_benefit, batch_digest(result))
            for result in results
        ]
        return PassOutput(
            rows=rows,
            work=1,
            results=results,
            layers={
                "engine.streaming.peak_pooled_rows": peak_rows,
                "engine.streaming.windows": windows,
            },
        )

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        instance = self.trace.to_instance()
        trials = sampled_trials(self.seed, TRACE_TRIALS)
        for algorithm, result in zip(self.algorithms, output.results):
            picked = trials[-1:] if algorithm.is_deterministic else trials
            check_replays(checks, instance, algorithm, result, self.seed, picked)


def count_units(path: str) -> int:
    """How many sweep units the store file holds (read-only)."""
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return connection.execute("SELECT COUNT(*) FROM units").fetchone()[0]
    finally:
        connection.close()


class PoolStoreWorkload(SweepWorkload):
    name = "pool_store"
    workers = POOL_WORKERS
    units_per_pass = len(ELEMENT_COUNTS) * POOL_INSTANCES_PER_POINT

    def setup(self) -> None:
        super().setup()
        self.prefill_path = os.path.join(self.scratch, "prefill.sqlite")
        if os.path.exists(self.prefill_path):
            os.remove(self.prefill_path)
        self._sweep(SWEEP_INSTANCES_PER_POINT, self.workers, self.prefill_path)
        if count_units(self.prefill_path) != SweepWorkload.units_per_pass:
            raise RuntimeError("the prefilled store must hold instances 0-5 of every point")
        self.passes = 0

    def prepare_pass(self) -> None:
        super().prepare_pass()
        if self.store_path is not None:
            os.remove(self.store_path)
        self.passes += 1
        self.store_path = os.path.join(self.scratch, f"pass-{self.passes}.sqlite")
        shutil.copyfile(self.prefill_path, self.store_path)

    def run_pass(self) -> PassOutput:
        sweep = self._sweep(POOL_INSTANCES_PER_POINT, self.workers, self.store_path)
        return PassOutput(rows=sweep.rows + sweep.failures, work=self.units_per_pass)

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        cold_caches()
        reference = self._sweep(POOL_INSTANCES_PER_POINT, 1, False)
        checks.compare_rows(
            output.rows, reference.rows, "pool_store vs in-process store-off rows"
        )
        checks.expect(
            count_units(self.store_path) == self.units_per_pass,
            "the pass did not leave every unit in the store",
        )


class InProcessWorkload(Workload):
    """The sweep, trials and trace parts, each started with cold caches."""

    name = "in_process"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.parts = [
            part(seed, scratch) for part in (SweepWorkload, TrialsWorkload, TraceWorkload)
        ]

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def run_pass(self) -> PassOutput:
        outputs = []
        for index, part in enumerate(self.parts):
            if index:
                cold_caches()
            outputs.append(part.run_pass())
        layers: Dict[str, float] = {}
        for output in outputs:
            layers.update(output.layers)
        return PassOutput(
            rows=[row for output in outputs for row in output.rows],
            work=1,
            results=outputs,
            layers=layers,
        )

    def check_run(self, output: PassOutput, checks: Checks) -> None:
        for part, part_output in zip(self.parts, output.results):
            part.check_run(part_output, checks)


WORKLOADS = {
    workload.name: workload
    for workload in (InProcessWorkload, PoolStoreWorkload)
}
