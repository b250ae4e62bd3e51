"""E19 — trace-scale streaming router engine: throughput and bounded memory.

Not a paper table: this experiment characterizes the reproduction itself.
PRs 1–5 gave the abstract OSP reduction a vectorized batch engine; the
router layer — the paper's motivating system — still ran per-packet Python
loops.  :mod:`repro.engine.streaming` closes that gap: a
:class:`~repro.network.traffic.Trace` compiles directly into a
:class:`~repro.engine.streaming.CompiledTrace` and Monte-Carlo trials replay
in chunked time windows, holding only the ``(trials, active_frames)``
priority rows of frames whose packets are currently in flight.

Three assertions are enforced (all three in ``--smoke``/CI):

* **bit-identity probe** — before any timing is trusted, streaming results
  of randPr, uniform-random (the per-arrival fixed-draw replay) and greedy
  at window sizes {1, 7, whole-trace} are compared set-for-set against the
  reference per-packet loop on a downscaled trace (the differential suite
  covers this wall exhaustively; the probe keeps the benchmark honest on
  its own).
* **throughput floor** — the reference loop's packet-trial rate is measured
  on a small trace and extrapolated; the streaming engine must sustain
  >= 5x that rate at 1000 randPr trials on a ~100k-packet adversarial-burst
  trace (measured ~13x on a quiet machine).
* **memory boundedness** — two probes.  The *model*:
  ``CompiledTrace.peak_active_frames`` (the exact pool high-water, equal to
  the engine's measured occupancy) must be identical for a 1x and a 3x
  trace — the pool tracks the admission spread, not the length.  The *RSS*:
  each length runs in its own subprocess; the peak-RSS (``VmHWM``) delta of
  the run (measured after the trace itself is freed) must stay flat as the
  trace triples — peak memory is set by the window size and trial count,
  never the trace length.

The trace uses zero-padded frame identifiers (``id_pad``), keeping the
identifier order aligned with arrival order; see the draw-order caveat in
``docs/INTERNALS-streaming.md`` for why that matters to the pool bound.

Run directly for the CI smoke mode::

    python benchmarks/bench_router_scale.py --smoke
"""

import argparse
import gc
import json
import subprocess
import sys
import time

from repro.algorithms import (
    GreedyWeightAlgorithm,
    RandPrAlgorithm,
    UniformRandomAlgorithm,
)
from repro.core.simulation import simulate_many
from repro.engine.streaming import (
    DEFAULT_WINDOW_SLOTS,
    compile_trace,
    simulate_trace_batch,
)
from repro.experiments import format_table
from repro.network.traffic import AdversarialBurstGenerator

BURST_SIZE = 8
PACKETS_PER_FRAME = 4
GAP_SLOTS = 1
ID_PAD = 8
SEED = 42

#: ~100k packets: the acceptance-floor configuration.
FULL_WAVES = 3125
TRIALS = 1000

#: Downscaled configurations: reference-rate measurement + bit-identity.
SMALL_WAVES = 40
SMALL_TRIALS = 4

#: Streaming must beat the extrapolated reference packet-trial rate by this.
MIN_SPEEDUP = 5.0

#: Memory probe: 1x and 3x traces at a fixed trial count, own process each.
MEMORY_WAVES = (1000, 3000)
MEMORY_TRIALS = 200
#: The 3x trace's peak-RSS delta may exceed the 1x delta by at most this
#: factor plus slack — growth beyond that means state scaling with length.
MEMORY_GROWTH_LIMIT = 1.35
MEMORY_SLACK_KB = 16 * 1024


def _generator():
    return AdversarialBurstGenerator(
        burst_size=BURST_SIZE,
        packets_per_frame=PACKETS_PER_FRAME,
        gap_slots=GAP_SLOTS,
        id_pad=ID_PAD,
    )


def _bit_identity_probe():
    """Streaming == reference on a downscaled trace, several window sizes."""
    trace = _generator().generate(num_waves=SMALL_WAVES)
    instance = trace.to_instance()
    for algorithm in (
        RandPrAlgorithm(),
        UniformRandomAlgorithm(),
        GreedyWeightAlgorithm(),
    ):
        reference = simulate_many(
            instance, algorithm, trials=SMALL_TRIALS, seed=SEED
        )
        for window in (1, 7, None):
            batch = simulate_trace_batch(
                trace, algorithm, trials=SMALL_TRIALS, seed=SEED,
                window_slots=window,
            )
            for trial, result in enumerate(reference):
                assert batch.completed_sets(trial) == result.completed_sets, (
                    f"{algorithm.name} diverged at window {window}, trial {trial}"
                )
                assert float(batch.benefits[trial]) == result.benefit


def _throughput_row():
    """Measure the floor comparison; returns the E19 headline row.

    The reference rate comes from a small trace (the loop's per-packet cost
    is length-independent, so the extrapolation is fair); the streaming rate
    is the full ~100k-packet, 1000-trial run including trace compilation.
    """
    generator = _generator()
    small = generator.generate(num_waves=SMALL_WAVES)
    instance = small.to_instance()
    start = time.perf_counter()
    simulate_many(instance, RandPrAlgorithm(), trials=SMALL_TRIALS, seed=SEED)
    reference_seconds = time.perf_counter() - start
    reference_rate = small.num_packets * SMALL_TRIALS / reference_seconds

    trace = generator.generate(num_waves=FULL_WAVES)
    stats = {}
    start = time.perf_counter()
    compiled = compile_trace(trace)
    simulate_trace_batch(compiled, "randPr", trials=TRIALS, seed=SEED, stats=stats)
    streaming_seconds = time.perf_counter() - start
    streaming_rate = trace.num_packets * TRIALS / streaming_seconds

    return {
        "packets": trace.num_packets,
        "frames": trace.num_frames,
        "trials": TRIALS,
        "streaming_seconds": round(streaming_seconds, 2),
        "streaming_rate": int(streaming_rate),
        "reference_rate": int(reference_rate),
        "speedup": round(streaming_rate / reference_rate, 1),
        "peak_pooled_rows": stats["peak_pooled_rows"],
    }


def _model_rows():
    """The deterministic pool model at 1x vs 3x trace length (must be flat)."""
    rows = []
    for waves in MEMORY_WAVES:
        trace = _generator().generate(num_waves=waves)
        compiled = compile_trace(trace)
        rows.append(
            {
                "waves": waves,
                "packets": trace.num_packets,
                "frames": trace.num_frames,
                "peak_active_frames": compiled.peak_active_frames(
                    DEFAULT_WINDOW_SLOTS
                ),
            }
        )
    return rows


def _peak_rss_kb() -> int:
    """This process's peak resident set, in kilobytes.

    Prefers ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``
    (which Linux carries across ``fork``+``exec``, so a subprocess spawned
    by a fat parent starts with the *parent's* high-water mark), ``VmHWM``
    is tied to the process's own address space and resets on exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _memory_child(waves: int, trials: int) -> int:
    """Subprocess body: run one streaming batch, print the peak-RSS delta.

    Peak RSS is a per-process high-water mark, so every trace length needs
    its own process.  The trace object is freed before the baseline reading
    — the delta then isolates what the *engine run* adds on top of the
    compiled arrays.
    """
    trace = _generator().generate(num_waves=waves)
    compiled = compile_trace(trace)
    packets, frames = trace.num_packets, trace.num_frames
    del trace
    gc.collect()
    base_kb = _peak_rss_kb()
    simulate_trace_batch(compiled, "randPr", trials=trials, seed=SEED)
    peak_kb = _peak_rss_kb()
    print(
        json.dumps(
            {
                "waves": waves,
                "packets": packets,
                "frames": frames,
                "trials": trials,
                "base_kb": base_kb,
                "delta_kb": peak_kb - base_kb,
            }
        )
    )
    return 0


def _memory_rows():
    """Run the RSS probe for every configured length, each in a fresh process."""
    rows = []
    for waves in MEMORY_WAVES:
        output = subprocess.run(
            [
                sys.executable,
                __file__,
                "--memory-child",
                str(waves),
                str(MEMORY_TRIALS),
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        rows.append(json.loads(output.stdout.strip().splitlines()[-1]))
    return rows


def _assert_memory_bounded(model_rows, memory_rows):
    assert model_rows[0]["peak_active_frames"] == model_rows[-1][
        "peak_active_frames"
    ], (
        "pool model grew with trace length: "
        f"{[row['peak_active_frames'] for row in model_rows]}"
    )
    small, large = memory_rows[0], memory_rows[-1]
    limit = small["delta_kb"] * MEMORY_GROWTH_LIMIT + MEMORY_SLACK_KB
    assert large["delta_kb"] <= limit, (
        f"peak-RSS delta grew with trace length: {small['delta_kb']}KB at "
        f"{small['packets']} packets -> {large['delta_kb']}KB at "
        f"{large['packets']} packets (limit {int(limit)}KB)"
    )


def test_e19_router_scale_throughput(run_once, experiment_report):
    def experiment():
        _bit_identity_probe()
        return [_throughput_row()]

    rows = run_once(experiment)
    text = format_table(
        rows,
        title=(
            f"E19: streaming router engine, ~{rows[0]['packets']} packets x "
            f"{TRIALS} randPr trials vs extrapolated reference loop"
        ),
    )
    text += (
        f"\n\nheadline: {rows[0]['speedup']}x the reference packet-trial rate "
        f"(floor: {MIN_SPEEDUP}x)"
    )
    experiment_report("E19_router_scale", text, rows=rows)
    assert rows[0]["speedup"] >= MIN_SPEEDUP


def test_e19b_router_scale_memory(run_once, experiment_report):
    def experiment():
        return _model_rows(), _memory_rows()

    model_rows, memory_rows = run_once(experiment)
    text = format_table(
        model_rows,
        title="E19b: exact pool model vs trace length (default window)",
    )
    text += "\n\n" + format_table(
        [
            {key: row[key] for key in ("waves", "packets", "trials", "delta_kb")}
            for row in memory_rows
        ],
        title="E19b: per-process peak-RSS delta of the streaming run",
    )
    experiment_report("E19b_router_scale_memory", text)
    _assert_memory_bounded(model_rows, memory_rows)


def _smoke():
    """CI smoke: bit-identity, the full throughput floor, both memory probes."""
    _bit_identity_probe()
    print(f"bit-identity probe OK ({SMALL_WAVES}-wave trace, windows 1/7/whole)")

    # Two attempts: a load spike on a shared CI runner can depress one whole
    # measurement; a *persistent* regression fails both.
    for attempt in (1, 2):
        row = _throughput_row()
        print(
            f"throughput: {row['packets']} packets x {row['trials']} trials in "
            f"{row['streaming_seconds']}s -> {row['streaming_rate']} "
            f"packet-trials/s vs reference {row['reference_rate']} "
            f"-> {row['speedup']}x"
        )
        if row["speedup"] >= MIN_SPEEDUP:
            break
        print(f"throughput floor missed on attempt {attempt}, remeasuring")
    assert row["speedup"] >= MIN_SPEEDUP, (
        f"streaming throughput {row['speedup']}x below the {MIN_SPEEDUP}x floor"
    )

    model_rows = _model_rows()
    memory_rows = _memory_rows()
    for model, memory in zip(model_rows, memory_rows):
        print(
            f"memory: {memory['packets']} packets -> pool model "
            f"{model['peak_active_frames']} rows, RSS delta "
            f"{memory['delta_kb']}KB"
        )
    _assert_memory_bounded(model_rows, memory_rows)
    print(
        f"smoke OK: {row['speedup']}x throughput (floor {MIN_SPEEDUP}x), "
        f"pool model flat at {model_rows[0]['peak_active_frames']} rows, "
        f"RSS delta flat across a 3x trace"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the throughput floor, memory probes and bit-identity (CI mode)",
    )
    parser.add_argument(
        "--memory-child",
        nargs=2,
        type=int,
        metavar=("WAVES", "TRIALS"),
        help=argparse.SUPPRESS,  # internal: subprocess body of the RSS probe
    )
    args = parser.parse_args(argv)
    if args.memory_child:
        return _memory_child(*args.memory_child)
    if not args.smoke:
        parser.error("run under pytest for the full benchmark, or pass --smoke")
    return _smoke()


if __name__ == "__main__":
    sys.exit(main())
