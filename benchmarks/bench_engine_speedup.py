"""E15 — throughput of the vectorized batch engine vs. the reference simulator.

Not a paper table: this experiment characterizes the reproduction itself.
A Monte-Carlo estimate of randPr's expected benefit pays the reference
simulator's per-arrival Python loop once per trial; the batch engine
(:mod:`repro.engine`) compiles the instance once and replays all trials as
array operations, so the same 1000-trial estimate should run an order of
magnitude faster *while returning bit-identical per-trial benefits* (the
differential suite pins the exactness; this benchmark pins the speed).

Three phases are measured:

* **end-to-end trials** (the historical headline): ``simulate_many`` vs.
  ``simulate_batch``, batch timings taken cold (compile cache warm, but the
  RNG-bridge draw cache cleared per run so priority generation is included).
  Floor: >= 10x at 1000 randPr trials on the 200-set / 400-element instance.
* **priority setup** (the RNG-bridge phase): the per-trial priority
  *generation* alone — for the reference engine the ``random.Random(seed+b)``
  construction plus ``algorithm.start`` per trial (exactly ``simulate_many``'s
  per-trial setup), for the batch engine
  :func:`~repro.engine.specs.priority_matrix`.  Reported per kind (cold) and
  for the standard suite pair randPr + uniform-priority, which shares one
  vectorized draw table (`repro.engine.rng`'s cache) the way ``measure_suite``
  does.  Floors: >= 5x for the suite pair, >= 3x for cold randPr alone —
  the cold randPr path is bounded below by 200k scalar libm ``pow`` calls
  (the one stage that *cannot* be vectorized bit-exactly; see
  ``docs/INTERNALS-rng.md``), which is also why the draw-table sharing is
  part of the headline number.
* **uniform-random trials** (E15c, the fixed-draw replay): end-to-end
  trial throughput of ``UniformRandomAlgorithm`` — the per-arrival
  randomized baseline whose draws cannot use a precomputed priority row.
  Every arrival takes a fixed number of ``random()`` draws, so the batch
  engine reads them for all arrivals from lockstep per-trial MT19937
  streams (:meth:`repro.engine.rng.WordStreams.random`) and replays every
  arrival at once.  Floor: >= 3x reference trial throughput at
  1000 trials (measured well above; the margin grows with the batch since
  the vectorized replay's step cost is amortized over all trials).

Run directly for the CI smoke mode::

    python benchmarks/bench_engine_speedup.py --smoke

which runs the setup-phase measurement and a reduced-batch uniform-random
phase (both sub-second on a quiet machine), asserts all three floors and the
bit-identity probes, and skips only the minute-scale end-to-end phase.
"""

import argparse
import random
import sys
import time

from repro.algorithms import (
    HashedRandPrAlgorithm,
    RandPrAlgorithm,
    UniformRandomAlgorithm,
    UnweightedPriorityAlgorithm,
)
from repro.core import simulate_batch, simulate_many
from repro.engine import AlgorithmSpec, clear_uniform_cache, compiled_for, priority_matrix
from repro.experiments import format_table
from repro.workloads import random_online_instance

NUM_SETS = 200
NUM_ELEMENTS = 400
SET_SIZE_RANGE = (2, 5)
WEIGHT_RANGE = (1.0, 6.0)
TRIALS = 1000
SEED = 42

#: The acceptance floor for the end-to-end headline configuration.
MIN_SPEEDUP = 10.0

#: Setup-phase floors (see the module docstring): the suite pair shares one
#: draw table; cold randPr alone is libm-pow-bound.
SETUP_SUITE_MIN_SPEEDUP = 5.0
SETUP_COLD_MIN_SPEEDUP = 3.0

#: Uniform-random (fixed-draw replay) floors: >= 3x reference trial
#: throughput at the full batch; the smoke mode uses a reduced batch (the
#: reference loop is the slow side) against the same floor.
UNIFORM_MIN_SPEEDUP = 3.0
UNIFORM_TRIALS = 1000
UNIFORM_SMOKE_TRIALS = 200


def _instance():
    return random_online_instance(
        NUM_SETS,
        NUM_ELEMENTS,
        SET_SIZE_RANGE,
        random.Random(SEED),
        weight_range=WEIGHT_RANGE,
        name=f"{NUM_SETS}x{NUM_ELEMENTS}",
    )


def _compare(instance, algorithm, trials, seed):
    """Time both engines on the same shared-seed batch and check agreement.

    The reference loop is timed once (it is long enough for timer noise not
    to matter and has no lazy-initialization cost); the batch engine is
    warmed once (first-call numpy setup) and then timed best-of-3 with the
    RNG-bridge draw cache cleared each round, so every timed run regenerates
    its priorities — the speedup includes priority generation, not just the
    replay.
    """
    start = time.perf_counter()
    reference = simulate_many(instance, algorithm, trials=trials, seed=seed)
    reference_seconds = time.perf_counter() - start

    simulate_batch(instance, algorithm, trials=min(trials, 10), seed=seed)  # warm-up
    batch_seconds = float("inf")
    for _ in range(3):
        clear_uniform_cache()
        start = time.perf_counter()
        batch = simulate_batch(instance, algorithm, trials=trials, seed=seed)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    # Shared-seed trials must agree exactly, or the speedup is meaningless.
    for trial, result in enumerate(reference):
        assert float(batch.benefits[trial]) == result.benefit
        assert batch.completed_sets(trial) == result.completed_sets

    return {
        "algorithm": algorithm.name,
        "trials": trials,
        "ref_seconds": round(reference_seconds, 3),
        "batch_seconds": round(batch_seconds, 3),
        "speedup": round(reference_seconds / batch_seconds, 1),
        "ref_trials_per_sec": int(trials / reference_seconds),
        "batch_trials_per_sec": int(trials / batch_seconds),
        "mean_benefit": round(batch.mean_benefit, 4),
    }


# ----------------------------------------------------------------------
# Priority-setup phase
# ----------------------------------------------------------------------


def _reference_setup_seconds(instance, algorithm, trials, seed):
    """One timing of ``simulate_many``'s per-trial setup.

    The per-trial setup is rng construction + set-info copy + ``start`` —
    exactly what the reference engine pays before any arrival.
    """
    set_infos = instance.system.set_infos()
    start = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(seed + trial)
        infos = dict(set_infos)
        algorithm.start(infos, rng)
    return time.perf_counter() - start


def _batch_setup_seconds(compiled, specs, trials, seed):
    """One cold timing of the given priority-matrix sequence.

    The draw cache is cleared first, so a multi-spec sequence measures
    exactly what a suite pays: the first randomized spec generates the
    shared draw table, later ones reuse it.
    """
    clear_uniform_cache()
    start = time.perf_counter()
    for spec in specs:
        priority_matrix(spec, compiled, trials, seed)
    return time.perf_counter() - start


def run_setup_phase(instance, trials, seed, rounds=3):
    """Measure the priority-setup phase; returns (rows, suite_speedup, cold_speedup).

    Every timing is best-of-``rounds`` on *both* sides of the comparison,
    which keeps the ratio stable on loaded machines: min/min converges to
    the quiet-machine ratio, while a single noisy pass on either side would
    swing the floor check both ways.  Each round times every reference and
    batch measurement back to back, so both sides' best-ofs sample the same
    host speed phases.  A shared 2-core host holds a speed phase (up to
    ~1.9x apart) for a few tenths of a second to a second, longer than the
    three rounds of one side, so timing all reference rounds before all
    batch rounds made each ratio one of two phases: 2.6x to 5.7x for cold
    randPr in twelve back-to-back repetitions.
    """
    compiled = compiled_for(instance)
    priority_matrix(AlgorithmSpec("randPr"), compiled, 8, seed)  # warm numpy
    randpr, uniform = AlgorithmSpec("randPr"), AlgorithmSpec("uniform-priority")
    timers = {
        "reference_randpr": lambda: _reference_setup_seconds(
            instance, RandPrAlgorithm(), trials, seed
        ),
        "batch_randpr": lambda: _batch_setup_seconds(compiled, [randpr], trials, seed),
        "reference_uniform": lambda: _reference_setup_seconds(
            instance, UnweightedPriorityAlgorithm(), trials, seed
        ),
        "batch_uniform": lambda: _batch_setup_seconds(compiled, [uniform], trials, seed),
        "batch_suite": lambda: _batch_setup_seconds(
            compiled, [randpr, uniform], trials, seed
        ),
    }
    best = dict.fromkeys(timers, float("inf"))
    for _ in range(rounds):
        for name, timer in timers.items():
            best[name] = min(best[name], timer())

    def row(phase, reference_seconds, batch_seconds):
        return {
            "setup phase": phase,
            "ref_ms": round(reference_seconds * 1e3, 1),
            "batch_ms": round(batch_seconds * 1e3, 1),
            "speedup": round(reference_seconds / batch_seconds, 1),
            "ref_trials_per_sec": int(trials / reference_seconds),
            "batch_trials_per_sec": int(trials / batch_seconds),
        }

    reference_suite = best["reference_randpr"] + best["reference_uniform"]
    rows = [
        row("randPr (cold)", best["reference_randpr"], best["batch_randpr"]),
        row("uniform-priority (cold)", best["reference_uniform"], best["batch_uniform"]),
        row(
            "suite: randPr + uniform-priority (shared draw table)",
            reference_suite,
            best["batch_suite"],
        ),
    ]
    suite_speedup = reference_suite / best["batch_suite"]
    cold_speedup = best["reference_randpr"] / best["batch_randpr"]
    return rows, suite_speedup, cold_speedup


def test_e15_engine_speedup(run_once, experiment_report):
    def experiment():
        instance = _instance()
        return [
            _compare(instance, RandPrAlgorithm(), TRIALS, seed=7),
            _compare(instance, HashedRandPrAlgorithm(salt="bench"), 100, seed=7),
        ]

    rows = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E15: batch engine vs reference simulator "
            f"({NUM_SETS} sets x {NUM_ELEMENTS} elements, shared seeds)"
        ),
    )
    text += (
        f"\n\nheadline: randPr at {TRIALS} trials -> "
        f"{rows[0]['speedup']}x (floor: {MIN_SPEEDUP}x)"
    )
    experiment_report("E15_engine_speedup", text)

    # The headline acceptance bar: >= 10x at 1000 randPr trials.
    assert rows[0]["speedup"] >= MIN_SPEEDUP


def test_e15b_priority_setup_speedup(run_once, experiment_report):
    def experiment():
        return run_setup_phase(_instance(), TRIALS, seed=7)

    rows, suite_speedup, cold_speedup = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E15b: priority-setup phase, reference per-trial start vs "
            f"RNG-bridge priority_matrix ({NUM_SETS} sets, {TRIALS} trials)"
        ),
    )
    text += (
        f"\n\nheadline: suite setup -> {suite_speedup:.1f}x "
        f"(floor: {SETUP_SUITE_MIN_SPEEDUP}x); "
        f"cold randPr setup -> {cold_speedup:.1f}x "
        f"(floor: {SETUP_COLD_MIN_SPEEDUP}x)"
    )
    experiment_report("E15b_priority_setup", text)

    assert suite_speedup >= SETUP_SUITE_MIN_SPEEDUP
    assert cold_speedup >= SETUP_COLD_MIN_SPEEDUP


def test_e15c_uniform_random_speedup(run_once, experiment_report):
    """E15c — trial throughput of the fixed-draw uniform-random replay.

    ``_compare`` asserts per-trial bit-identity between the engines before
    any timing is trusted, so the floor measures equal computations.
    """

    def experiment():
        instance = _instance()
        return [_compare(instance, UniformRandomAlgorithm(), UNIFORM_TRIALS, seed=7)]

    rows = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E15c: uniform-random trials, per-trial scalar reference vs "
            f"fixed-draw batch replay ({NUM_SETS} sets x {NUM_ELEMENTS} "
            f"elements, shared seeds)"
        ),
    )
    text += (
        f"\n\nheadline: uniform-random at {UNIFORM_TRIALS} trials -> "
        f"{rows[0]['speedup']}x (floor: {UNIFORM_MIN_SPEEDUP}x)"
    )
    experiment_report("E15c_uniform_random", text)

    assert rows[0]["speedup"] >= UNIFORM_MIN_SPEEDUP


def _smoke():
    """CI smoke: setup-phase + uniform-random floors plus bit-identity probes."""
    instance = _instance()
    # Exactness probe first — a speedup between unequal computations is void.
    algorithm = RandPrAlgorithm()
    batch = simulate_batch(instance, algorithm, trials=20, seed=7)
    for trial, result in enumerate(simulate_many(instance, algorithm, trials=20, seed=7)):
        assert batch.completed_sets(trial) == result.completed_sets
        assert float(batch.benefits[trial]) == result.benefit
    print("bit-identity probe OK (20 shared-seed randPr trials)")

    # Two attempts: a load spike on a shared CI runner can depress one whole
    # measurement; a *persistent* regression fails both.
    for attempt in (1, 2):
        rows, suite_speedup, cold_speedup = run_setup_phase(instance, TRIALS, seed=7)
        for entry in rows:
            print(
                f"{entry['setup phase']}: ref {entry['ref_ms']}ms, "
                f"batch {entry['batch_ms']}ms -> {entry['speedup']}x"
            )
        if (
            suite_speedup >= SETUP_SUITE_MIN_SPEEDUP
            and cold_speedup >= SETUP_COLD_MIN_SPEEDUP
        ):
            break
        print(f"floors missed on attempt {attempt}, remeasuring")
    assert suite_speedup >= SETUP_SUITE_MIN_SPEEDUP, (
        f"suite setup speedup {suite_speedup:.1f}x below the "
        f"{SETUP_SUITE_MIN_SPEEDUP}x floor"
    )
    assert cold_speedup >= SETUP_COLD_MIN_SPEEDUP, (
        f"cold randPr setup speedup {cold_speedup:.1f}x below the "
        f"{SETUP_COLD_MIN_SPEEDUP}x floor"
    )

    # Uniform-random fixed-draw phase, reduced batch (_compare also runs the
    # per-trial bit-identity probe); same two-attempt load tolerance.
    for attempt in (1, 2):
        row = _compare(
            instance, UniformRandomAlgorithm(), UNIFORM_SMOKE_TRIALS, seed=7
        )
        print(
            f"uniform-random ({UNIFORM_SMOKE_TRIALS} trials): "
            f"ref {row['ref_seconds']}s, batch {row['batch_seconds']}s "
            f"-> {row['speedup']}x"
        )
        if row["speedup"] >= UNIFORM_MIN_SPEEDUP:
            break
        print(f"uniform-random floor missed on attempt {attempt}, remeasuring")
    assert row["speedup"] >= UNIFORM_MIN_SPEEDUP, (
        f"uniform-random trial throughput {row['speedup']}x below the "
        f"{UNIFORM_MIN_SPEEDUP}x floor"
    )

    print(
        f"smoke OK: suite setup {suite_speedup:.1f}x "
        f"(floor {SETUP_SUITE_MIN_SPEEDUP}x), cold randPr {cold_speedup:.1f}x "
        f"(floor {SETUP_COLD_MIN_SPEEDUP}x), uniform-random {row['speedup']}x "
        f"(floor {UNIFORM_MIN_SPEEDUP}x)"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the setup-phase floors and a bit-identity probe (CI mode)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    return _smoke()


if __name__ == "__main__":
    sys.exit(main())
