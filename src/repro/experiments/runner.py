"""A command-line self-check: verify the paper's headline claims in one run.

``python -m repro.experiments.runner`` runs a compact version of the
benchmark suite (no pytest required): it measures randPr against the
Theorem 1 / Corollary 6 / Corollary 7 bounds on small workloads, plays the
Theorem 3 adversary against a deterministic baseline, Monte-Carlo-checks
Lemma 1, and prints one table with a pass/fail verdict per claim.  The full,
parameter-swept experiments live in ``benchmarks/``; this runner exists so a
user can sanity-check an installation in about a minute.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Dict, List, Optional, Union

from repro.algorithms import GreedyWeightAlgorithm, RandPrAlgorithm
from repro.core import compute_statistics
from repro.core.analysis import expected_benefit_closed_form
from repro.core.bounds import (
    corollary6_upper_bound,
    corollary7_upper_bound,
    theorem1_upper_bound,
    theorem3_lower_bound,
)
from repro.experiments.competitive_ratio import (
    ENGINE_CHOICES,
    estimate_opt,
    measure_ratio,
    simulation_benefits,
)
from repro.exceptions import MeasurementFailedError
from repro.experiments.opt_cache import default_opt_cache
from repro.experiments.report import format_table
from repro.experiments.resilience import RetryPolicy
from repro.experiments.store import (
    resolve_store,
    set_default_store_path,
    store_path_from_env,
)
from repro.lowerbounds import run_deterministic_adversary
from repro.workloads import random_weighted_instance, uniform_both_instance

__all__ = ["self_check", "trace_scale_report", "main"]


def _check_theorem1(
    seed: int, trials: int, engine: str, workers: "int | str",
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    instance = random_weighted_instance(
        28, 40, (2, 4), random.Random(seed), weight_range=(1.0, 6.0)
    )
    stats = compute_statistics(instance.system)
    measurement = measure_ratio(
        instance, RandPrAlgorithm(), trials=trials, seed=seed, engine=engine,
        workers=workers, opt_cache=default_opt_cache(), policy=policy,
    )
    bound = theorem1_upper_bound(stats)
    return {
        "claim": "Thm 1: ratio <= kmax*sqrt(E[s*s$]/E[s$])",
        "measured": round(measurement.ratio, 3),
        "bound": round(bound, 3),
        "holds": measurement.ratio <= bound + 1e-9,
    }


def _check_corollary6(
    seed: int, trials: int, engine: str, workers: "int | str",
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    instance = random_weighted_instance(
        36, 30, (2, 4), random.Random(seed + 1), weight_range=(1.0, 6.0)
    )
    stats = compute_statistics(instance.system)
    measurement = measure_ratio(
        instance, RandPrAlgorithm(), trials=trials, seed=seed, engine=engine,
        workers=workers, opt_cache=default_opt_cache(), policy=policy,
    )
    bound = corollary6_upper_bound(stats)
    return {
        "claim": "Cor 6: ratio <= kmax*sqrt(sigma_max)",
        "measured": round(measurement.ratio, 3),
        "bound": round(bound, 3),
        "holds": measurement.ratio <= bound + 1e-9,
    }


def _check_corollary7(
    seed: int, trials: int, engine: str, workers: "int | str",
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    instance = uniform_both_instance(18, 3, 3, random.Random(seed + 2))
    measurement = measure_ratio(
        instance, RandPrAlgorithm(), trials=trials, seed=seed, engine=engine,
        workers=workers, opt_cache=default_opt_cache(), policy=policy,
    )
    bound = corollary7_upper_bound(instance.system)
    return {
        "claim": "Cor 7: uniform k & load -> ratio <= k",
        "measured": round(measurement.ratio, 3),
        "bound": round(bound, 3),
        "holds": measurement.ratio <= bound + 0.25,
    }


def _check_theorem3(
    seed: int, trials: int, engine: str, workers: "int | str",
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    outcome = run_deterministic_adversary(GreedyWeightAlgorithm(), sigma=3, k=3)
    bound = theorem3_lower_bound(3, 3)
    return {
        "claim": "Thm 3: deterministic ratio >= sigma^(k-1)",
        "measured": round(outcome.ratio, 3),
        "bound": round(bound, 3),
        "holds": outcome.ratio >= bound - 1e-9,
    }


def _check_lemma1(
    seed: int, trials: int, engine: str, workers: "int | str",
    policy: Optional[RetryPolicy] = None,
) -> Dict[str, object]:
    instance = random_weighted_instance(
        12, 16, (2, 3), random.Random(seed + 3), weight_range=(1.0, 5.0)
    )
    predicted = expected_benefit_closed_form(instance.system)
    benefits = simulation_benefits(
        instance,
        RandPrAlgorithm(),
        max(trials * 10, 500),
        seed=seed,
        engine=engine,
        workers=workers,
        policy=policy,
    )
    measured = sum(benefits) / len(benefits)
    relative_error = abs(measured - predicted) / max(predicted, 1e-9)
    return {
        "claim": "Lemma 1: E[w(alg)] = sum w(S)^2/w(N[S])",
        "measured": round(measured, 3),
        "bound": round(predicted, 3),
        "holds": relative_error < 0.1,
    }


def self_check(
    seed: int = 0,
    trials: int = 40,
    engine: str = "auto",
    workers: Union[int, str] = 1,
    policy: Optional[RetryPolicy] = None,
) -> List[Dict[str, object]]:
    """Run every quick claim check and return one row per claim.

    ``engine`` selects the simulator for the Monte-Carlo checks (the batch
    engine and the reference simulator agree trial for trial; ``"auto"``
    simply makes the self-check faster).  ``workers`` splits each check's
    simulation trials across worker processes (``"auto"`` ≈ the CPU count) —
    like the engine choice, it changes the wall clock, never the verdicts
    (the trial chunks concatenate to the identical benefit sequence).

    ``policy`` supervises the simulations with retry/crash recovery (see
    :class:`~repro.experiments.resilience.RetryPolicy`); a check whose
    measurement still fails after every retry raises
    :class:`~repro.exceptions.MeasurementFailedError`.
    """
    checks = (
        _check_theorem1,
        _check_corollary6,
        _check_corollary7,
        _check_theorem3,
        _check_lemma1,
    )
    return [check(seed, trials, engine, workers, policy) for check in checks]


def trace_scale_report(
    packets: int, seed: int = 0, trials: int = 32
) -> Dict[str, object]:
    """Exercise the streaming router engine at trace scale and report.

    Builds an adversarial-burst mega trace of roughly ``packets`` packets
    (zero-padded identifiers, so the streaming pool tracks the burst size,
    not the trace length), reports the compiled trace's exact memory model
    and the streaming randPr throughput, and renders a **bit-identity
    verdict**: on a downscaled trace the streaming engine's trials are
    compared set-for-set against the reference per-packet loop
    (``simulate(trace.to_instance(), ...)``).  The verdict — not the
    throughput — decides the exit code of ``--trace-scale``.
    """
    from repro.core.simulation import simulate_many
    from repro.engine.streaming import (
        DEFAULT_WINDOW_SLOTS,
        compile_trace,
        simulate_trace_batch,
    )
    from repro.network.traffic import AdversarialBurstGenerator

    burst, per_frame = 8, 4
    generator = AdversarialBurstGenerator(
        burst_size=burst, packets_per_frame=per_frame, gap_slots=1, id_pad=8
    )
    waves = max(1, packets // (burst * per_frame))
    trace = generator.generate(num_waves=waves)
    compiled = compile_trace(trace)
    stats: Dict[str, object] = {}
    started = time.perf_counter()
    simulate_trace_batch(compiled, "randPr", trials=trials, seed=seed, stats=stats)
    elapsed = time.perf_counter() - started
    throughput = trace.num_packets * trials / max(elapsed, 1e-9)

    small = generator.generate(num_waves=min(waves, 40))
    small_trials = min(trials, 8)
    reference = simulate_many(
        small.to_instance(), RandPrAlgorithm(), trials=small_trials, seed=seed
    )
    identical = True
    for window in (1, 7, None):
        batch = simulate_trace_batch(
            small, "randPr", trials=small_trials, seed=seed, window_slots=window
        )
        for trial, result in enumerate(reference):
            if (
                batch.completed_sets(trial) != result.completed_sets
                or float(batch.benefits[trial]) != result.benefit
            ):
                identical = False
    return {
        "packets": trace.num_packets,
        "frames": trace.num_frames,
        "trials": trials,
        "seconds": round(elapsed, 3),
        "packet_trials_per_second": round(throughput),
        "peak_pooled_rows": stats["peak_pooled_rows"],
        "peak_active_frames_model": compiled.peak_active_frames(DEFAULT_WINDOW_SLOTS),
        "bit_identical": identical,
    }


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns a non-zero exit code if any claim check fails."""
    parser = argparse.ArgumentParser(
        description="Quick self-check of the OSP reproduction against the paper's claims.",
        epilog=(
            "examples:\n"
            "  python -m repro.experiments.runner\n"
            "      default self-check (batch engine where supported, one process)\n"
            "  python -m repro.experiments.runner --workers 4\n"
            "      split the Monte-Carlo trials of each check over 4 worker\n"
            "      processes; verdicts and measured numbers are identical\n"
            "  python -m repro.experiments.runner --engine reference --workers 2\n"
            "      exercise the per-arrival reference simulator, two processes\n"
            "  python -m repro.experiments.runner --trials 200 --seed 7\n"
            "      a heavier, reseeded run (more trials per randomized check)\n"
            "  python -m repro.experiments.runner --store .osp-store.sqlite\n"
            "      persist OPT solves to a file-backed store; the second\n"
            "      invocation answers them from disk (identical verdicts)\n"
            "  python -m repro.experiments.runner --workers auto --max-attempts 3\n"
            "      one worker per CPU, supervised: crashed workers are\n"
            "      replaced and their trials retried (identical verdicts)"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--trials", type=int, default=40, help="simulation trials per randomized check"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="simulation engine: the vectorized batch engine ('auto'/'batch'), "
        "the per-arrival reference simulator ('reference'), or the "
        "statistical counter-based backend ('fast': matches the exact "
        "engines in distribution, not bit for bit)",
    )
    parser.add_argument(
        "--workers",
        default="1",
        metavar="N|auto",
        help="worker processes for the simulation trials (default 1: "
        "in-process; 'auto' ≈ the CPU count); any value yields bit-identical "
        "results — this is a wall-clock knob",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="supervise the simulations with up to N attempts per work unit "
        "(crash recovery + deterministic-backoff retries); omitted: "
        "unsupervised, any failure is fatal immediately",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock timeout under --max-attempts supervision "
        "(a stuck unit is charged an attempt and retried)",
    )
    parser.add_argument(
        "--trace-scale",
        type=int,
        default=None,
        metavar="PACKETS",
        help="instead of the claim checks, push a ~PACKETS-packet router "
        "trace through the streaming engine: prints throughput and the "
        "bounded-memory model, and exits non-zero if the streaming results "
        "are not bit-identical to the reference loop on a downscaled trace",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent solution-store file shared by all processes "
        "(default: the OSP_STORE environment variable; unset disables "
        "persistence); like --engine/--workers this never changes results",
    )
    parser.add_argument(
        "--fabric-manifest",
        default=None,
        metavar="PATH",
        help="multi-host fabric manifest (see docs/FABRIC.md); with "
        "--fabric-role this runs one fabric step instead of the self-check",
    )
    parser.add_argument(
        "--fabric-role",
        choices=("plan", "work", "reduce"),
        default=None,
        help="fabric step to run against --fabric-manifest: 'plan' writes "
        "the manifest, 'work' claims and executes units into --store, "
        "'reduce' merges --fabric-shards into --fabric-out and re-emits "
        "the deterministic rows",
    )
    parser.add_argument(
        "--fabric-spec",
        default="smoke",
        metavar="NAME",
        help="named sweep spec for --fabric-role plan (default: smoke)",
    )
    parser.add_argument(
        "--fabric-out",
        default=None,
        metavar="PATH",
        help="canonical output store for --fabric-role reduce",
    )
    parser.add_argument(
        "--fabric-shards",
        nargs="+",
        default=None,
        metavar="PATH",
        help="shard store files for --fabric-role reduce",
    )
    arguments = parser.parse_args(argv)

    if (arguments.fabric_role is None) != (arguments.fabric_manifest is None):
        parser.error("--fabric-role and --fabric-manifest go together")
    if arguments.fabric_role is not None:
        # Delegate to the fabric CLI so exit codes (0 ok / 1 incomplete
        # reduce / 3 exhausted retries) stay identical either way in.
        from repro.experiments import fabric

        if arguments.fabric_role == "plan":
            return fabric.main(
                ["plan", "--spec", arguments.fabric_spec,
                 "--out", arguments.fabric_manifest]
            )
        if arguments.fabric_role == "work":
            if arguments.store is None:
                parser.error("--fabric-role work needs --store (the shard file)")
            fabric_argv = [
                "work", arguments.fabric_manifest,
                "--store", arguments.store,
                "--workers", str(arguments.workers),
            ]
            if arguments.max_attempts is not None:
                fabric_argv += ["--max-attempts", str(arguments.max_attempts)]
            if arguments.unit_timeout is not None:
                fabric_argv += ["--unit-timeout", str(arguments.unit_timeout)]
            return fabric.main(fabric_argv)
        if arguments.fabric_out is None or not arguments.fabric_shards:
            parser.error(
                "--fabric-role reduce needs --fabric-out and --fabric-shards"
            )
        return fabric.main(
            ["reduce", arguments.fabric_manifest, "--out", arguments.fabric_out]
            + list(arguments.fabric_shards)
        )

    workers: Union[int, str] = arguments.workers
    if workers != "auto":
        try:
            workers = int(workers)
        except ValueError:
            parser.error(f"--workers must be an integer or 'auto', got {workers!r}")

    policy = None
    if arguments.max_attempts is not None or arguments.unit_timeout is not None:
        policy = RetryPolicy(
            max_attempts=arguments.max_attempts or 3,
            timeout=arguments.unit_timeout,
        )

    if arguments.trace_scale is not None:
        if arguments.trace_scale < 1:
            parser.error("--trace-scale needs a positive packet count")
        report = trace_scale_report(
            arguments.trace_scale, seed=arguments.seed, trials=arguments.trials
        )
        print(
            format_table(
                [report],
                columns=list(report),
                title=f"Streaming router engine at ~{arguments.trace_scale} packets",
            )
        )
        print()
        print(
            "STREAMING BIT-IDENTICAL TO REFERENCE"
            if report["bit_identical"]
            else "STREAMING DIVERGED FROM REFERENCE"
        )
        return 0 if report["bit_identical"] else 1

    if arguments.store is not None:
        # Published via OSP_STORE so pool workers inherit the same file.
        set_default_store_path(arguments.store)
    store_path = store_path_from_env()
    if store_path is not None:
        print(f"solution store: {store_path}")

    try:
        rows = self_check(
            seed=arguments.seed,
            trials=arguments.trials,
            engine=arguments.engine,
            workers=workers,
            policy=policy,
        )
    except MeasurementFailedError as error:
        # Machine-readable failure summary: which units died, how, per attempt.
        print("MEASUREMENT FAILED — retry budget exhausted")
        print(
            json.dumps(
                {
                    "error": str(error),
                    "failures": [report.as_dict() for report in error.failures],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 3
    print(
        format_table(
            rows,
            columns=["claim", "measured", "bound", "holds"],
            title="Online set packing reproduction — self-check "
            f"(seed={arguments.seed}, trials={arguments.trials})",
        )
    )
    all_hold = all(row["holds"] for row in rows)
    store = resolve_store(None)
    if store is not None:
        stats = store.stats()
        print(
            f"\nstore: {stats['opt_hits']} OPT solve(s) answered from disk, "
            f"{stats['opt_misses']} computed fresh; "
            f"{stats['opt_entries']} entries persisted"
        )
    print()
    print("ALL CLAIMS HOLD" if all_hold else "SOME CLAIMS FAILED — see table above")
    return 0 if all_hold else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
