"""E17 — persistent solution store: warm re-invocation vs. cold first run.

Not a paper table: this experiment characterizes the reproduction itself.
PR 2 gave each worker process an in-memory OPT cache; those caches die with
the process, so *every* benchmark invocation re-paid the offline solves and
simulations from scratch.  The persistent :mod:`repro.experiments.store`
fixes that: a cold sweep writes every completed ``(point, instance)`` work
unit (and every OPT solve) to a file-backed, content-addressed SQLite store,
and a warm re-invocation answers them from disk.

Three guarantees are asserted *before* any timing is reported:

* **store off == store on (cold)** — writing the store does not change rows;
* **cold == warm** — reading the store back returns bit-identical rows;
* **× workers ∈ {1, 4}** — the two knobs compose: every configuration in
  {store off, cold, warm} × {workers 1, 4} yields the same rows.

Headline claim checked here: a warm second invocation of the standard
200-set sweep is **≥ 3x faster** than the cold first one.  (In practice the
warm run only regenerates instances, hashes them and deserializes results,
so the measured margin is far larger; 3x is the conservative floor.)

The in-memory OPT/compile caches are cleared between configurations, so each
timed run models a *fresh process* — the cross-invocation scenario the store
exists for — rather than inheriting the previous configuration's solves.

Run directly for the CI smoke mode::

    python benchmarks/bench_store_warm.py --smoke

which shrinks the sweep, asserts the full bit-identity matrix and that the
warm run is answered from the store, and skips the wall-clock floor (shared
CI runners are noisy).
"""

import argparse
import dataclasses
import os
import tempfile
import time

from repro.engine import clear_compile_cache
from repro.experiments import (
    FABRIC_SPECS,
    default_opt_cache,
    format_table,
    run_sweep,
    store_for_path,
    workers_from_env,
)

#: The standard sweep (same as E16): 200-set instances at three contention
#: levels.
SPEC = FABRIC_SPECS["standard"]

#: The CI smoke's shape of the same sweep: 40-set instances, 20 trials.
SMOKE_SPEC = dataclasses.replace(
    SPEC, num_sets=40, element_counts=(100, 60), trials_per_instance=20
)

#: The acceptance floor: warm invocation at least this much faster than cold.
MIN_WARM_SPEEDUP = 3.0

WORKER_COUNTS = (1, 4)

ALGORITHMS = tuple(SPEC.algorithm_instances())


def _fresh_process_caches():
    """Reset the in-memory tiers so a run models a fresh invocation."""
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()


def _run_configuration(spec, workers, store):
    _fresh_process_caches()
    start = time.perf_counter()
    sweep = run_sweep(
        "E17 sweep",
        spec.points(),
        list(ALGORITHMS),
        instances_per_point=spec.instances_per_point,
        trials_per_instance=spec.trials_per_instance,
        seed=spec.seed,
        engine="auto",
        workers=workers,
        store=store,
    )
    return sweep, time.perf_counter() - start


def run_comparison(spec, store_path, worker_counts=WORKER_COUNTS):
    """Time off/cold/warm at each worker count; assert all rows identical.

    The store-off configurations pass ``store=False`` (not ``None``) so the
    baseline stays genuinely store-free even when the suite runs under an
    exported ``OSP_STORE``.
    """
    baseline, _ = _run_configuration(spec, 1, False)

    rows = []
    speedups = {}
    for workers in worker_counts:
        off, off_seconds = _run_configuration(spec, workers, False)
        assert off.rows == baseline.rows, f"workers={workers} changed rows"

        path = f"{store_path}.w{workers}"
        cold, cold_seconds = _run_configuration(spec, workers, path)
        assert cold.rows == baseline.rows, (
            f"cold store changed rows at workers={workers}"
        )
        warm, warm_seconds = _run_configuration(spec, workers, path)
        assert warm.rows == baseline.rows, (
            f"warm store changed rows at workers={workers}"
        )

        speedups[workers] = cold_seconds / warm_seconds
        rows.extend(
            [
                {
                    "configuration": f"store off   (workers={workers})",
                    "seconds": round(off_seconds, 3),
                    "vs cold": "-",
                },
                {
                    "configuration": f"store cold  (workers={workers})",
                    "seconds": round(cold_seconds, 3),
                    "vs cold": 1.0,
                },
                {
                    "configuration": f"store warm  (workers={workers})",
                    "seconds": round(warm_seconds, 3),
                    "vs cold": round(speedups[workers], 2),
                },
            ]
        )
    return rows, speedups


def test_e17_store_warm_speedup(run_once, experiment_report, tmp_path):
    def experiment():
        return run_comparison(SPEC, str(tmp_path / "store.sqlite"))

    rows, speedups = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E17: persistent store warm-start "
            f"({SPEC.num_sets} sets x {SPEC.element_counts} elements, "
            f"{SPEC.instances_per_point} instances/point, "
            f"{SPEC.trials_per_instance} trials/instance, "
            f"{len(ALGORITHMS)} algorithms; all rows bit-identical across "
            f"store off/cold/warm x workers {WORKER_COUNTS})"
        ),
    )
    text += (
        f"\n\nheadline: warm vs cold at workers=1 -> {speedups[1]:.1f}x "
        f"(floor: {MIN_WARM_SPEEDUP}x); at workers=4 -> {speedups[4]:.1f}x"
    )
    experiment_report(
        "E17_store_warm",
        text,
        rows=rows,
        columns=["configuration", "seconds", "vs cold"],
        title="E17: persistent store warm-start",
    )

    # The headline acceptance bar: a warm re-invocation is >= 3x faster.
    assert speedups[1] >= MIN_WARM_SPEEDUP


def _smoke():
    """CI smoke: small sweep; bit-identity matrix + warm runs hit the store."""
    with tempfile.TemporaryDirectory() as directory:
        baseline, _ = _run_configuration(SMOKE_SPEC, 1, False)
        print(f"store off: {len(baseline.rows)} rows (baseline)")
        for workers in (1, 2, 4):
            path = os.path.join(directory, f"store.w{workers}.sqlite")
            cold, cold_seconds = _run_configuration(SMOKE_SPEC, workers, path)
            assert cold.rows == baseline.rows, f"cold rows diverged (workers={workers})"
            warm, warm_seconds = _run_configuration(SMOKE_SPEC, workers, path)
            assert warm.rows == baseline.rows, f"warm rows diverged (workers={workers})"
            stats = store_for_path(path).stats()
            units = len(SMOKE_SPEC.element_counts) * SMOKE_SPEC.instances_per_point
            assert stats["unit_entries"] == units, "units not persisted"
            print(
                f"workers={workers}: cold {cold_seconds:.2f}s, "
                f"warm {warm_seconds:.2f}s, rows bit-identical, "
                f"{stats['unit_entries']} units persisted"
            )
    print("smoke OK: store on/off x cold/warm x workers is bit-identical")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Persistent-store benchmark: warm re-invocation vs cold run.",
        epilog=(
            "examples:\n"
            "  python benchmarks/bench_store_warm.py --smoke\n"
            "      fast correctness smoke (CI): bit-identity across\n"
            "      store off/cold/warm x workers 1/2/4\n"
            "  python benchmarks/bench_store_warm.py\n"
            "      full timed comparison on the standard 200-set sweep\n"
            "  OSP_BENCH_WORKERS=8 python benchmarks/bench_store_warm.py\n"
            "      also time the parallel configurations at 8 workers"
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

    workers = workers_from_env(default=WORKER_COUNTS[-1])
    counts = (1, workers) if workers != 1 else (1,)
    with tempfile.TemporaryDirectory() as directory:
        rows, speedups = run_comparison(
            SPEC, os.path.join(directory, "store.sqlite"), worker_counts=counts
        )
    print(format_table(rows, title="E17: persistent store warm-start"))
    print(
        f"\nheadline warm speedup at workers=1: {speedups[1]:.1f}x "
        f"(floor {MIN_WARM_SPEEDUP}x)"
    )
    return 0 if speedups[1] >= MIN_WARM_SPEEDUP else 1


if __name__ == "__main__":
    raise SystemExit(main())
