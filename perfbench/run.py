"""The repository benchmark: one workload, a closed loop, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload in_process --seed 1 --seconds 35 --trace 0

``--workload`` is ``in_process`` or ``pool_store`` (see ``perf_workloads.py``;
``BENCHMARK.json`` records why each exists).  The run is a single process that repeats *passes* over the seed's inputs, one after
the other, for ``--seconds`` seconds (and at least :data:`MIN_PASSES`).

* Set-up is imports, then input generation, the OPT pre-solve and the store
  prefill (repeated :data:`SETUP_REPEATS` times, median taken), then one
  warm-up pass; ``setup_s`` is the sum of the three.
* Every pass starts cold: the OPT, compile and uniform caches are cleared
  and ``pool_store`` copies its prefilled store afresh.
* Every pass's rows must equal the warm-up pass's rows, and each workload
  adds its own checks (reference-engine replays, in-process store-off rows).
  ``attempted``/``failed`` count those checks plus passes that raised.

``--trace 0`` prints the end-to-end metrics: ``work_per_s`` (median over
passes), ``cpu_s`` (median CPU seconds per pass, the process and its pool
children), ``peak_rss_mib`` (the process plus, for the pool, its concurrent
workers) and ``setup_s``.  ``--trace 1`` splits the seconds between untraced
passes and traced passes (``perf_spans.py``), and prints the per-layer
metrics as means per traced pass, ``other_s`` and ``tracing.overhead``
(traced over untraced median pass wall); traced rows must equal untraced
rows.  Spans are kept in ``.bench_work/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is the result object; the line before it
stamps the seed, ``nproc``, Python/numpy/scipy versions and the git sha.
Without ``src/repro`` under the checkout root the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("in_process", "pool_store")
SETUP_REPEATS = 3
MIN_PASSES = 3
#: Environment knobs of the program that would change what a pass does.
PROGRAM_ENV_VARS = ("OSP_STORE", "OSP_FAULT_PLAN")


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    work: float
    layers: Optional[Dict[str, float]] = None


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def process_cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    return _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)


def children_cpu_s() -> float:
    return _cpu_s(resource.RUSAGE_CHILDREN)


def peak_rss_mib(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * children if workers > 1 else 0)) / 1024.0


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "missing"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha(),
    }


def set_up(workload_class, seed: int, scratch: str, repeats: int):
    """Set the workload up; return it, its warm-up pass and the set-up time.

    Input generation and the workload's own set-up run ``repeats`` times (the
    last one is kept) and count with their median.  The warm-up pass runs
    once, because only the first pass in a process pays lazy initialisation;
    every timed pass must reproduce its rows.
    """
    from perf_workloads import WORKLOADS

    pooled = [name for name, workload in WORKLOADS.items() if workload.workers > 1]
    if pooled != ["pool_store"]:
        raise RuntimeError(f"only pool_store may start pool workers, not {pooled}")
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload = workload_class(seed, scratch)
        workload.setup()
        durations.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.prepare_pass()
    children_before = children_cpu_s()
    warm_up = workload.run_pass()
    warm_up_s = time.perf_counter() - start
    started_workers = children_cpu_s() > children_before
    if started_workers != (workload.workers > 1):
        raise RuntimeError(
            f"{workload.name}: pool workers started={started_workers}, "
            f"but the workload is configured for workers={workload.workers}"
        )
    return workload, warm_up, statistics.median(durations) + warm_up_s


def timed_passes(workload, seconds, checks, expected_rows, min_passes, tracer=None):
    """Run passes for ``seconds`` (at least ``min_passes``); return samples."""
    from perf_spans import pass_layers, worker_unit_counts
    from perf_workloads import count_units

    samples: List[Sample] = []
    first = None
    spans: List[tuple] = []
    attempts = 0
    start = time.perf_counter()
    while attempts < min_passes or time.perf_counter() - start < seconds:
        attempts += 1
        workload.prepare_pass()
        if tracer is not None:
            tracer.drain()
            units_before = count_units(workload.store_path) if workload.store_path else 0
        cpu_before = process_cpu_s()
        pass_start = time.perf_counter()
        try:
            output = workload.run_pass()
        except Exception:  # a failed pass is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            checks.expect(False, f"pass {attempts} raised")
            continue
        wall_s = time.perf_counter() - pass_start
        cpu_s = process_cpu_s() - cpu_before
        checks.compare_rows(output.rows, expected_rows, f"pass {attempts} vs warm-up")
        layers = None
        if tracer is not None:
            pass_spans, counters, maxima = tracer.drain()
            spans.extend(pass_spans)
            layers = pass_layers(
                pass_spans, counters, maxima, wall_s, tracer.owner_pid, workload.workers
            )
            layers.update(
                {"engine.streaming.peak_pooled_rows": 0, "engine.streaming.windows": 0}
            )
            layers.update(output.layers)
            hits = misses = 0
            if workload.store_path:
                # Derived from outside: the workers' own counters die with them.
                misses = count_units(workload.store_path) - units_before
                hits = workload.units_per_pass - misses
                checks.expect(
                    worker_unit_counts(counters) == (hits, misses),
                    "worker-side store counters disagree with the store file",
                )
            layers["experiments.store.unit_hits"] = hits
            layers["experiments.store.unit_misses"] = misses
        samples.append(Sample(wall_s, cpu_s, output.work, layers))
        if first is None:
            first = output
    if not samples:
        raise RuntimeError(f"{workload.name}: every pass raised")
    return samples, first, spans


def metric_table(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def measure(args, import_s: float, scratch: str):
    import perf_spans
    from perf_workloads import WORKLOADS, Checks

    checks = Checks()
    workload, warm_up, setup_median = set_up(
        WORKLOADS[args.workload],
        args.seed,
        scratch,
        repeats=1 if args.trace else SETUP_REPEATS,
    )
    # A traced run splits its time (and pass floor) between the two halves.
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_passes = 2 if args.trace else MIN_PASSES
    samples, first, _ = timed_passes(workload, seconds, checks, warm_up.rows, min_passes)
    peak_mib = peak_rss_mib(workload.workers)
    untraced_wall = statistics.median(sample.wall_s for sample in samples)

    if args.trace:
        kind = "per_layer"
        tracer = perf_spans.Tracer(scratch)
        uninstall = perf_spans.install(tracer)
        try:
            traced, traced_first, spans = timed_passes(
                workload, seconds, checks, warm_up.rows, min_passes, tracer
            )
        finally:
            uninstall()
        checks.compare_rows(traced_first.rows, first.rows, "traced vs untraced rows")
        values = {
            name: statistics.fmean(sample.layers[name] for sample in traced)
            for name in traced[0].layers
        }
        values["tracing.overhead"] = (
            statistics.median(sample.wall_s for sample in traced) / untraced_wall
        )
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        perf_spans.write_spans(str(spans_path), spans)
        passes = len(samples) + len(traced)
    else:
        kind = "end_to_end"
        values = {
            "work_per_s": statistics.median(s.work / s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mib": peak_mib,
            "setup_s": import_s + setup_median,
        }
        passes = len(samples)

    workload.check_run(first, checks)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in metric_table(kind).items()
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "passes": passes,
        "pass_walls_s": [round(sample.wall_s, 4) for sample in samples],
        "error_rate": checks.failed / checks.attempted,
        "failures": checks.messages[:10],
        "env": environment(args.seed),
    }
    return result, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for name in PROGRAM_ENV_VARS:
        os.environ.pop(name, None)
    import perf_workloads  # noqa: F401  (imports the program's layers)

    import_s = time.perf_counter() - started
    scratch = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        result, report = measure(args, import_s, str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
