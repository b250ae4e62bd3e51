"""E20 — trial throughput of the statistical fast engine vs the exact batch engine.

Not a paper table: this experiment characterizes the reproduction itself.
The exact batch engine is bound by its bit-exactness contract — MT19937
draw tables, a near-tie guard on randPr's ``pow`` keys with a reference
replay of flagged trials, float64 everywhere.  The
fast engine (:mod:`repro.engine.fast`, ``engine="fast"``) drops bit-identity
for a *statistical* contract and gets counter-based PCG64 draws, float32
priorities and numpy's vectorized power kernel.  This benchmark pins the
payoff: at production trial counts the fast engine must deliver **>= 3x**
the exact batch engine's trial throughput on the standard 200-set
instance — and the equivalence checks run *before* any timing is trusted,
because a speedup between statistically-inequivalent computations is void.

Two phases:

* **equivalence probe** — a two-sample KS test on per-trial benefit
  distributions and a 99.9% CI-overlap check on mean benefits (the same
  certificate ``tests/test_engine_fast_equivalence.py`` enforces, run here
  on the benchmark instance so the timed configurations are the certified
  ones);
* **throughput** — best-of-3 wall-clock of ``simulate_fast`` vs
  ``simulate_batch`` for randPr at ``TRIALS`` trials, draw caches cleared
  per round so the exact engine's timing includes priority generation (its
  real per-batch cost), and the per-kind table repeated for
  uniform-priority.

Run directly for the CI smoke mode::

    python benchmarks/bench_engine_fast.py --smoke

which runs the equivalence probe and a single-round throughput measurement
at the full batch size (two attempts, tolerating one load spike on a shared
runner) against the same 3x floor.  The batch size is not reduced in smoke
mode because the floor is regime-specific: the exact engine's draw-table
cost grows superlinearly, so a small batch would measure a different (and
much smaller) ratio.
"""

import argparse
import random
import sys
import time

from repro.core import simulate_batch
from repro.engine import clear_uniform_cache, simulate_fast
from repro.experiments import format_table
from repro.testing import (
    intervals_overlap,
    ks_two_sample,
    mean_confidence_interval,
)
from repro.workloads import random_online_instance

NUM_SETS = 200
NUM_ELEMENTS = 400
SET_SIZE_RANGE = (2, 5)
WEIGHT_RANGE = (1.0, 6.0)
SEED = 42

#: Full-mode batch size: production scale, where the fast engine's
#: per-trial savings dominate its fixed overheads.
TRIALS = 100_000

#: The acceptance floor: fast must sustain >= 3x the exact batch engine's
#: trial throughput at ``TRIALS`` trials (measured ~6-7x on a quiet
#: machine; 3x leaves headroom for slow runners without masking a real
#: regression to the exact path).  The floor is defined *at this batch
#: size*: the exact engine's draw-table cost grows superlinearly with the
#: batch, so small batches understate the fast engine's advantage (1.6x at
#: 20k trials, 3.4x at 50k, ~7x at 100k) — which is exactly the regime
#: distinction that makes ``fast`` a production-batch tool, not a default.
MIN_SPEEDUP = 3.0

#: Equivalence-probe sample size and thresholds — mirrors the pre-registered
#: constants of ``tests/test_engine_fast_equivalence.py``.
PROBE_TRIALS = 4000
KS_PVALUE_FLOOR = 1e-4
CI_CONFIDENCE = 0.999
FAST_SEED = 20_260_808
EXACT_SEED = 901


def _instance():
    return random_online_instance(
        NUM_SETS,
        NUM_ELEMENTS,
        SET_SIZE_RANGE,
        random.Random(SEED),
        weight_range=WEIGHT_RANGE,
        name=f"{NUM_SETS}x{NUM_ELEMENTS}",
    )


def _assert_equivalent(instance, kind):
    """The KS + CI certificate on the benchmark instance; raises on failure."""
    fast = simulate_fast(instance, kind, trials=PROBE_TRIALS, seed=FAST_SEED)
    exact = simulate_batch(instance, kind, trials=PROBE_TRIALS, seed=EXACT_SEED)
    ks = ks_two_sample(fast.benefits, exact.benefits)
    assert not ks.rejects(KS_PVALUE_FLOOR), (
        f"{kind}: fast/exact benefit distributions differ on the benchmark "
        f"instance (D={ks.statistic:.4f}, p={ks.pvalue:.2e}) — timings void"
    )
    fast_ci = mean_confidence_interval(fast.benefits, confidence=CI_CONFIDENCE)
    exact_ci = mean_confidence_interval(exact.benefits, confidence=CI_CONFIDENCE)
    assert intervals_overlap(fast_ci, exact_ci), (
        f"{kind}: mean-benefit CIs disjoint on the benchmark instance — "
        f"fast [{fast_ci.low:.4f}, {fast_ci.high:.4f}] vs exact "
        f"[{exact_ci.low:.4f}, {exact_ci.high:.4f}] — timings void"
    )
    return {
        "kind": kind,
        "ks_D": round(ks.statistic, 4),
        "ks_p": round(ks.pvalue, 4),
        "fast_mean": round(fast_ci.mean, 4),
        "exact_mean": round(exact_ci.mean, 4),
    }


def _compare(instance, kind, trials, seed=7, rounds=3):
    """Best-of-``rounds`` throughput of both engines on equal-size batches.

    Caches are cleared each round on the exact side (the draw table is a
    real per-batch cost at these sizes); the fast engine has no draw cache
    by construction.  Both sides are warmed once for numpy setup.
    """
    simulate_fast(instance, kind, trials=64, seed=seed)  # warm-up
    simulate_batch(instance, kind, trials=64, seed=seed)

    fast_seconds = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        simulate_fast(instance, kind, trials=trials, seed=seed)
        fast_seconds = min(fast_seconds, time.perf_counter() - start)

    exact_seconds = float("inf")
    for _ in range(rounds):
        clear_uniform_cache()
        start = time.perf_counter()
        simulate_batch(instance, kind, trials=trials, seed=seed)
        exact_seconds = min(exact_seconds, time.perf_counter() - start)

    return {
        "kind": kind,
        "trials": trials,
        "exact_seconds": round(exact_seconds, 3),
        "fast_seconds": round(fast_seconds, 3),
        "speedup": round(exact_seconds / fast_seconds, 1),
        "exact_trials_per_sec": int(trials / exact_seconds),
        "fast_trials_per_sec": int(trials / fast_seconds),
    }


def test_e20_fast_engine_speedup(run_once, experiment_report):
    def experiment():
        instance = _instance()
        probes = [
            _assert_equivalent(instance, "randPr"),
            _assert_equivalent(instance, "uniform-priority"),
        ]
        rows = [
            _compare(instance, "randPr", TRIALS),
            _compare(instance, "uniform-priority", TRIALS),
        ]
        return probes, rows

    probes, rows = run_once(experiment)
    text = format_table(
        probes,
        title=(
            f"E20 equivalence probe: KS + CI overlap at {PROBE_TRIALS} trials "
            f"({NUM_SETS} sets x {NUM_ELEMENTS} elements)"
        ),
    )
    text += "\n\n" + format_table(
        rows,
        title=(
            f"E20: fast statistical engine vs exact batch engine "
            f"({NUM_SETS} sets x {NUM_ELEMENTS} elements, {TRIALS} trials)"
        ),
    )
    text += (
        f"\n\nheadline: randPr at {TRIALS} trials -> "
        f"{rows[0]['speedup']}x (floor: {MIN_SPEEDUP}x)"
    )
    experiment_report("E20_engine_fast", text, rows=rows)

    assert rows[0]["speedup"] >= MIN_SPEEDUP


def _smoke():
    """CI smoke: equivalence probe + reduced-batch throughput floor."""
    instance = _instance()
    for kind in ("randPr", "uniform-priority"):
        probe = _assert_equivalent(instance, kind)
        print(
            f"equivalence probe OK ({kind}): KS D={probe['ks_D']} "
            f"p={probe['ks_p']}, means {probe['fast_mean']} vs "
            f"{probe['exact_mean']}"
        )

    # The floor is defined at the full TRIALS batch (small batches sit in a
    # different exact-engine cost regime; see MIN_SPEEDUP), so smoke runs
    # the full size but times a single round per engine.  Two attempts: a
    # load spike on a shared CI runner can depress one whole measurement;
    # a *persistent* regression fails both.
    for attempt in (1, 2):
        row = _compare(instance, "randPr", TRIALS, rounds=1)
        print(
            f"randPr ({TRIALS} trials): exact {row['exact_seconds']}s, "
            f"fast {row['fast_seconds']}s -> {row['speedup']}x"
        )
        if row["speedup"] >= MIN_SPEEDUP:
            break
        print(f"floor missed on attempt {attempt}, remeasuring")
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"fast-engine speedup {row['speedup']}x below the {MIN_SPEEDUP}x floor"
    )
    print(f"smoke OK: fast engine {row['speedup']}x (floor {MIN_SPEEDUP}x)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the equivalence probe and the reduced-batch floor (CI mode)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    return _smoke()


if __name__ == "__main__":
    sys.exit(main())
