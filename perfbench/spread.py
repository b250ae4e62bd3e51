"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 10 [--first-seed 1]

For every end-to-end metric it prints the median of the per-seed values and
their spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — next to
the metric's bound in ``BENCHMARK.json``.  A benchmark is steady when each
spread (``setup_s`` aside) is well below its bound.  Runs are sequential;
each one finishes before the next starts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    incorrect = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.perf_counter()
        result = run_once(spec, args.workload, seed)
        incorrect += not result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {seed}: {time.perf_counter() - start:.1f} s, "
            + ", ".join(f"{name}={series[-1]:.4g}" for name, series in values.items()),
            flush=True,
        )
    print(f"{args.workload}: {incorrect} incorrect run(s)")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        share = spread(series)
        verdict = "ok" if share < metric["bound"] / 3 else "WIDE"
        print(
            f"  {metric['name']:14s} median {statistics.median(series):.4g} "
            f"{metric['unit']:4s} spread {share:.3f} bound {metric['bound']} {verdict}"
        )
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
