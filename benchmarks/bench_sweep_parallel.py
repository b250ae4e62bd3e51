"""E16 — end-to-end sweep throughput: the parallel orchestrator vs. the serial
reference pipeline.

Not a paper table: this experiment characterizes the reproduction itself.
PR 1 made the inner Monte-Carlo loop fast; this benchmark measures the whole
measurement path — instance generation, offline OPT solving, statistics,
bounds and per-algorithm simulation — under the orchestrator refactor:

* **serial reference** — ``run_sweep(..., workers=1, engine="reference")``,
  the historical default pipeline: one process, per-arrival simulation, no
  compiled-instance reuse;
* **serial optimized** — ``workers=1, engine="auto"``: batch engine plus the
  per-process OPT/compile caches, isolating the single-process gains;
* **parallel** — ``workers=4, engine="auto"``: the full orchestrator,
  ``(point, instance)`` work units over a process pool.

Because the engines agree trial for trial and the orchestrator merges in
sweep order, all three configurations return **bit-identical rows** — which
this benchmark asserts before reporting any timing, so the speedup is a
comparison between equal computations, not between approximations.

Headline claim checked here: >= 2.5x end-to-end wall-clock at 4 workers vs.
the serial reference path on the standard 200-set sweep.  (On a single-core
host the margin comes from the batch engine and the caches; the worker pool
adds its value back on multi-core hardware — the differential guarantee is
what makes that trade invisible in the numbers.)

Run directly for the CI smoke mode::

    python benchmarks/bench_sweep_parallel.py --smoke

which shrinks the sweep, checks the bit-identity contract at workers
∈ {1, 2, 4} and skips the wall-clock floor (shared CI runners are noisy).
"""

import argparse
import dataclasses
import time

from repro.engine import clear_compile_cache
from repro.experiments import (
    FABRIC_SPECS,
    default_opt_cache,
    format_table,
    run_sweep,
    workers_from_env,
)

#: The standard sweep: 200-set instances at three contention levels.
SPEC = FABRIC_SPECS["standard"]

#: The CI smoke's shape of the same sweep: 40-set instances, 20 trials.
SMOKE_SPEC = dataclasses.replace(
    SPEC, num_sets=40, element_counts=(100, 60), trials_per_instance=20
)

#: The acceptance floor for the headline configuration.
MIN_SPEEDUP = 2.5

#: Worker count of the headline parallel configuration (overridable for the
#: benchmark table via OSP_BENCH_WORKERS; the floor is always checked at 4).
PARALLEL_WORKERS = 4

ALGORITHMS = tuple(SPEC.algorithm_instances())


def _run_configuration(spec, workers, engine, policy=None):
    # Start every configuration cold: the per-process OPT and compile caches
    # are part of what is being measured, and without this reset the second
    # and third configurations would inherit the first one's solves (fork
    # workers copy the parent's caches), overstating their speedups.
    default_opt_cache().clear()
    clear_compile_cache()
    start = time.perf_counter()
    sweep = run_sweep(
        "E16 sweep",
        spec.points(),
        list(ALGORITHMS),
        instances_per_point=spec.instances_per_point,
        trials_per_instance=spec.trials_per_instance,
        seed=spec.seed,
        engine=engine,
        workers=workers,
        # Engine/worker timings must stay store-free even under an exported
        # OSP_STORE; the persistent store has its own benchmark (E17).
        store=False,
        policy=policy,
    )
    return sweep, time.perf_counter() - start


def run_comparison(spec, workers):
    """Time the three configurations and assert their rows are bit-identical."""
    reference, reference_seconds = _run_configuration(spec, 1, "reference")
    serial, serial_seconds = _run_configuration(spec, 1, "auto")
    parallel, parallel_seconds = _run_configuration(spec, workers, "auto")

    # The speedup is only meaningful between equal computations.
    assert serial.rows == reference.rows, "engine choice changed sweep rows"
    assert parallel.rows == reference.rows, "worker count changed sweep rows"

    rows = [
        {
            "configuration": "serial reference (workers=1, engine=reference)",
            "seconds": round(reference_seconds, 3),
            "speedup": 1.0,
        },
        {
            "configuration": "serial optimized (workers=1, engine=auto)",
            "seconds": round(serial_seconds, 3),
            "speedup": round(reference_seconds / serial_seconds, 2),
        },
        {
            "configuration": f"parallel (workers={workers}, engine=auto)",
            "seconds": round(parallel_seconds, 3),
            "speedup": round(reference_seconds / parallel_seconds, 2),
        },
    ]
    return rows, reference_seconds / parallel_seconds


def test_e16_sweep_parallel_speedup(run_once, experiment_report):
    def experiment():
        return run_comparison(SPEC, PARALLEL_WORKERS)

    rows, speedup = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E16: end-to-end sweep orchestration "
            f"({SPEC.num_sets} sets x {SPEC.element_counts} elements, "
            f"{SPEC.instances_per_point} instances/point, "
            f"{SPEC.trials_per_instance} trials/instance, "
            f"{len(ALGORITHMS)} algorithms, bit-identical rows)"
        ),
    )
    text += (
        f"\n\nheadline: parallel vs serial reference -> {speedup:.1f}x "
        f"(floor: {MIN_SPEEDUP}x)"
    )
    experiment_report("E16_sweep_parallel", text)

    # The headline acceptance bar: >= 2.5x end to end at 4 workers.
    assert speedup >= MIN_SPEEDUP


#: Fault-free supervision overhead budget: ``map_ordered`` under
#: ``RetryPolicy()`` may cost at most 5% over the same loop fail-fast (plus a
#: small absolute grace for timer noise on shared CI runners).
RESILIENT_OVERHEAD_FACTOR = 1.05
RESILIENT_OVERHEAD_GRACE_SECONDS = 0.25


def _resilient_overhead_probe(spec, workers=2, repeats=3):
    """Best-of-N timing: ``RetryPolicy()`` vs. fail-fast on the one pool loop.

    Supervision must be a free upgrade when nothing fails — same rows, and
    wall clock within :data:`RESILIENT_OVERHEAD_FACTOR` of the fail-fast
    ``map_ordered`` run (the supervised run adds the fault-injection hooks
    around every attempt and the retry bookkeeping, which is where any
    overhead would come from).  Best-of-N damps scheduler noise; an absolute
    grace keeps the check meaningful on tiny baselines.
    """
    from repro.experiments import RetryPolicy

    policy = RetryPolicy()
    plain_best = resilient_best = float("inf")
    plain_rows = resilient_rows = None
    for _ in range(repeats):
        plain, plain_seconds = _run_configuration(spec, workers, "auto")
        plain_best = min(plain_best, plain_seconds)
        plain_rows = plain.rows
    for _ in range(repeats):
        resilient, resilient_seconds = _run_configuration(
            spec, workers, "auto", policy=policy
        )
        resilient_best = min(resilient_best, resilient_seconds)
        resilient_rows = resilient.rows
    assert resilient_rows == plain_rows, "supervision changed sweep rows"
    budget = plain_best * RESILIENT_OVERHEAD_FACTOR + RESILIENT_OVERHEAD_GRACE_SECONDS
    print(
        f"resilient overhead probe (workers={workers}, best of {repeats}): "
        f"plain {plain_best:.2f}s, supervised {resilient_best:.2f}s, "
        f"budget {budget:.2f}s"
    )
    assert resilient_best <= budget, (
        f"fault-free supervision overhead too high: {resilient_best:.2f}s vs "
        f"budget {budget:.2f}s ({RESILIENT_OVERHEAD_FACTOR:.0%} of plain "
        f"+ {RESILIENT_OVERHEAD_GRACE_SECONDS}s grace)"
    )


def _smoke(workers_list=(1, 2, 4)):
    """CI smoke: a small sweep, bit-identity asserted across worker counts."""
    baseline, baseline_seconds = _run_configuration(SMOKE_SPEC, 1, "reference")
    print(f"serial reference: {baseline_seconds:.2f}s, {len(baseline.rows)} rows")
    for workers in workers_list:
        sweep, seconds = _run_configuration(SMOKE_SPEC, workers, "auto")
        assert sweep.rows == baseline.rows, (
            f"rows diverged at workers={workers} (engine=auto)"
        )
        print(f"workers={workers} engine=auto: {seconds:.2f}s, rows bit-identical")
    _resilient_overhead_probe(SMOKE_SPEC)
    print(
        "smoke OK: parallel sweep is bit-identical to the serial reference, "
        "supervised pool within its fault-free overhead budget"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end sweep benchmark: parallel orchestrator vs serial reference.",
        epilog=(
            "examples:\n"
            "  python benchmarks/bench_sweep_parallel.py --smoke\n"
            "      fast correctness smoke (CI): bit-identity at workers 1/2/4\n"
            "  python benchmarks/bench_sweep_parallel.py\n"
            "      full timed comparison on the standard 200-set sweep\n"
            "  OSP_BENCH_WORKERS=8 python benchmarks/bench_sweep_parallel.py\n"
            "      time the parallel configuration at 8 workers"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small correctness smoke instead of the timed benchmark",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        return _smoke()

    workers = workers_from_env(default=PARALLEL_WORKERS)
    rows, speedup = run_comparison(SPEC, workers)
    print(
        format_table(
            rows, title=f"E16: end-to-end sweep orchestration (workers={workers})"
        )
    )
    if workers != PARALLEL_WORKERS:
        # The 2.5x floor is defined for the 4-worker headline configuration;
        # an OSP_BENCH_WORKERS override is exploratory, so report only.
        print(f"\nspeedup at workers={workers}: {speedup:.1f}x (floor not enforced; "
              f"the {MIN_SPEEDUP}x floor applies at workers={PARALLEL_WORKERS})")
        return 0
    print(f"\nheadline speedup: {speedup:.1f}x (floor {MIN_SPEEDUP}x)")
    return 0 if speedup >= MIN_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
