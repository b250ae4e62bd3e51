"""Tests of the benchmark itself (not collected by a bare ``pytest``).

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import perf_spans  # noqa: E402
import perf_workloads  # noqa: E402
from repro.algorithms import RandPrAlgorithm  # noqa: E402
from repro.engine.batch import simulate_batch  # noqa: E402
from repro.experiments import run_sweep  # noqa: E402
from repro.workloads import random_online_instance  # noqa: E402


def _small_instance():
    return random_online_instance(
        12, 20, (2, 3), random.Random(0), weight_range=(1.0, 6.0), name="small"
    )


def test_perturbed_output_is_counted_as_an_error():
    instance = _small_instance()
    algorithm = RandPrAlgorithm()
    result = simulate_batch(instance, "randPr", trials=5, seed=3)
    checks = perf_workloads.Checks()
    perf_workloads.check_replays(checks, instance, algorithm, result, 3, [0, 4])
    assert (checks.attempted, checks.failed) == (2, 0)

    result.benefits[4] += 1e-9  # a deliberately perturbed output
    perf_workloads.check_replays(checks, instance, algorithm, result, 3, [0, 4])
    assert (checks.attempted, checks.failed) == (4, 1)
    assert "trial 4" in checks.messages[0]


def test_row_comparison_counts_every_row():
    checks = perf_workloads.Checks()
    checks.compare_rows([1, 2, 3], [1, 2, 3], "same")
    checks.compare_rows([1, 2, 4], [1, 2, 3], "changed")
    checks.compare_rows([1, 2], [1, 2, 3], "missing")
    assert checks.attempted == 9
    assert checks.failed == 2


def test_sampled_trials_include_the_last_one():
    picks = perf_workloads.sampled_trials(7, 100)
    assert picks[-1] == 99
    assert len(set(picks)) == perf_workloads.SAMPLED_TRIALS + 1
    assert picks == perf_workloads.sampled_trials(7, 100)


def test_self_time_excludes_children_and_other_covers_the_rest(tmp_path):
    tracer = perf_spans.Tracer(str(tmp_path))
    start = time.perf_counter()
    tracer.enter("engine.batch.static")
    tracer.enter("engine.priority")
    time.sleep(0.02)
    tracer.exit()
    time.sleep(0.01)
    tracer.exit()
    time.sleep(0.01)
    wall = time.perf_counter() - start
    spans, counters, maxima = tracer.drain()
    layers = perf_spans.pass_layers(spans, counters, maxima, wall, tracer.owner_pid, 1)
    assert layers["engine.priority_s"] >= 0.02
    assert 0.01 <= layers["engine.batch.static_s"] < 0.02
    assert layers["other_s"] >= 0.01
    total = layers["engine.priority_s"] + layers["engine.batch.static_s"] + layers["other_s"]
    assert abs(total - wall) < 1e-6


def _tiny_sweep(workers, store):
    points = [
        (
            "tiny",
            lambda rng: random_online_instance(
                20, 30, (2, 3), rng, weight_range=(1.0, 6.0), name="tiny"
            ),
        )
    ]
    return run_sweep(
        "tiny",
        points,
        perf_workloads.sweep_algorithms(),
        instances_per_point=4,
        trials_per_instance=10,
        seed=5,
        engine="auto",
        workers=workers,
        store=store,
    )


def test_worker_spans_and_counters_reach_the_parent(tmp_path):
    untraced = _tiny_sweep(2, False)
    tracer = perf_spans.Tracer(str(tmp_path))
    uninstall = perf_spans.install(tracer)
    try:
        store = str(tmp_path / "store.sqlite")
        traced = _tiny_sweep(2, store)
    finally:
        uninstall()
    spans, counters, maxima = tracer.drain()
    assert traced.rows == untraced.rows
    worker_pids = {span[5] for span in spans if span[0] == perf_spans.UNIT_SPAN}
    assert worker_pids and tracer.owner_pid not in worker_pids
    assert perf_spans.worker_unit_counts(counters) == (0, 4)
    layers = perf_spans.pass_layers(spans, counters, maxima, 1.0, tracer.owner_pid, 2)
    assert layers["experiments.parallel.worker_busy_s"] > 0
    assert layers["experiments.parallel.unit_bytes"] > 0
    assert layers["experiments.store.bytes_written"] > 0
    assert not list(tmp_path.glob("*.jsonl"))  # drained worker files are gone


def test_uninstall_restores_every_binding(tmp_path):
    from repro.experiments import competitive_ratio, orchestrator

    originals = (competitive_ratio.simulate_batch, orchestrator._execute_unit)
    uninstall = perf_spans.install(perf_spans.Tracer(str(tmp_path)))
    assert competitive_ratio.simulate_batch is not originals[0]
    uninstall()
    assert (competitive_ratio.simulate_batch, orchestrator._execute_unit) == originals


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        perf_workloads.WORKLOADS
    )
    assert {m["name"] for m in spec["end_to_end"]} == {
        "work_per_s", "cpu_s", "peak_rss_mib", "setup_s",
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    layers = perf_spans.pass_layers([], {}, {}, 1.0, os.getpid(), 1)
    filled_by_runner = {
        "engine.streaming.peak_pooled_rows",
        "engine.streaming.windows",
        "experiments.store.unit_hits",
        "experiments.store.unit_misses",
        "tracing.overhead",
    }
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | filled_by_runner


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "in_process", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
