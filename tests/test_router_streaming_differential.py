"""Differential tests: the streaming trace engine versus the reference loop.

This suite is the streaming engine's exactness certificate, the router-layer
sibling of ``test_engine_differential.py``.  For traces drawn from **every**
traffic generator family (video GoP, Poisson bursts, adversarial waves) and
hand-built corner-case traces it checks that
:func:`~repro.engine.streaming.simulate_trace_batch` and shared-seed
``simulate_many`` on the trace's OSP reduction agree:

* for deterministic policies (greedy variants, fixed orders, salted hashed
  randPr) — completed frames and benefits are *identical*;
* for randomized policies (randPr, fresh-salt hashed randPr, uniform
  priorities, uniform-random assignment) — trial ``b`` of the stream must
  complete exactly the frames of
  ``simulate(trace.to_instance(), algo, random.Random(seed + b))`` with a
  bit-equal benefit float;
* the agreement holds at **every window size** — 1 slot, 7 slots, the
  default window, and one window spanning the whole trace — so chunking is
  observationally invisible;
* frame-level delivery metrics derived from the batch match the per-trial
  router loop's metrics.

Hypothesis then drives randomly-shaped traces (overlapping frames, gapped
frames, duplicate in-slot packets, empty slots, explicit zero weights)
through the same window-invisibility and streaming-vs-reference properties.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    FirstListedAlgorithm,
    GreedyCommittedAlgorithm,
    GreedyProgressAlgorithm,
    GreedyWeightAlgorithm,
    HashedRandPrAlgorithm,
    LargestSetFirstAlgorithm,
    RandPrAlgorithm,
    SmallestSetFirstAlgorithm,
    StaticOrderAlgorithm,
    UniformRandomAlgorithm,
    UnweightedPriorityAlgorithm,
)
from repro.core import simulate_many
from repro.core.set_system import InvalidSetSystemError
from repro.engine import rng as rng_bridge
from repro.engine.streaming import compile_trace, simulate_trace_batch
from repro.network.packet import Frame
from repro.network.router import BottleneckRouter, run_router_batch
from repro.network.traffic import (
    AdversarialBurstGenerator,
    PoissonBurstGenerator,
    Trace,
    VideoTraceGenerator,
)

SEED = 1789
TRIALS = 5

#: One-slot windows, a prime window, the default window, one giant window.
WINDOWS = (1, 7, None, 10**9)


def _traces():
    """Traces from every generator family, plus capacity and padding variants."""
    traces = []
    # Video family: multi-flow GoP traffic, including a capacity-2 link.
    traces.append(
        VideoTraceGenerator(num_flows=3).generate(4, random.Random(1))
    )
    traces.append(
        VideoTraceGenerator(num_flows=2, link_capacity=2, id_pad=4).generate(
            5, random.Random(2)
        )
    )
    # Poisson family: irregular arrivals, variable frame lengths.
    traces.append(
        PoissonBurstGenerator(arrival_rate=0.8).generate(18, random.Random(3))
    )
    traces.append(
        PoissonBurstGenerator(
            arrival_rate=1.5, packets_per_frame=(1, 3), id_pad=6
        ).generate(12, random.Random(4))
    )
    # Adversarial family: synchronized waves, gapped and gapless.
    traces.append(AdversarialBurstGenerator(burst_size=4).generate(num_waves=4))
    traces.append(
        AdversarialBurstGenerator(
            burst_size=3, packets_per_frame=2, gap_slots=2, id_pad=3
        ).generate(num_waves=5)
    )
    return traces


TRACES = _traces()

DETERMINISTIC_ALGORITHMS = [
    GreedyWeightAlgorithm,
    GreedyProgressAlgorithm,
    GreedyCommittedAlgorithm,
    FirstListedAlgorithm,
    StaticOrderAlgorithm,
    LargestSetFirstAlgorithm,
    SmallestSetFirstAlgorithm,
    lambda: HashedRandPrAlgorithm(salt="router-differential"),
]

RANDOMIZED_ALGORITHMS = [
    RandPrAlgorithm,
    HashedRandPrAlgorithm,  # salt=None: fresh salt per trial from the trial RNG
    UnweightedPriorityAlgorithm,
    UniformRandomAlgorithm,  # per-arrival randomness: replayed per-step RNG
]


def _mk(frame_id, num_packets, weight=None):
    """A hand-built frame of ``num_packets`` MTU packets."""
    return Frame(
        frame_id, flow_id="hand", size_bytes=1500 * num_packets, weight=weight
    )


def _assert_stream_matches_reference(trace, algorithm, trials, seed, windows=WINDOWS):
    reference = simulate_many(trace.to_instance(), algorithm, trials=trials, seed=seed)
    for window in windows:
        batch = simulate_trace_batch(
            trace, algorithm, trials=trials, seed=seed, window_slots=window
        )
        for trial, result in enumerate(reference):
            assert batch.completed_sets(trial) == result.completed_sets, (
                f"{algorithm.name}: completed frames diverge at shared-seed "
                f"trial {trial}, window {window}"
            )
            assert float(batch.benefits[trial]) == result.benefit
            assert int(batch.completed_counts[trial]) == result.num_completed


@pytest.mark.parametrize("index", range(len(TRACES)), ids=lambda i: f"trace{i}")
def test_deterministic_policies_match_exactly(index):
    trace = TRACES[index]
    for factory in DETERMINISTIC_ALGORITHMS:
        _assert_stream_matches_reference(trace, factory(), trials=2, seed=SEED)


@pytest.mark.parametrize("index", range(len(TRACES)), ids=lambda i: f"trace{i}")
def test_randomized_policies_match_per_shared_seed_trial(index):
    trace = TRACES[index]
    for factory in RANDOMIZED_ALGORITHMS:
        _assert_stream_matches_reference(trace, factory(), trials=TRIALS, seed=SEED)


def test_delivery_metrics_match_the_per_trial_router():
    """RouterBatchResult.metrics_for == BottleneckRouter.run, trial by trial."""
    trace = TRACES[0]
    policy = RandPrAlgorithm()
    batch = run_router_batch(trace, policy, trials=4, seed=SEED)
    assert batch.engine == "streaming"
    router = BottleneckRouter(policy)
    for trial in range(4):
        single = router.run(trace, rng=random.Random(SEED + trial))
        assert batch.completed_frames(trial) == single.completed_frames
        assert batch.metrics_for(trial) == single.metrics


def test_router_engines_agree_and_share_result_shape():
    """reference and streaming engines produce ``equals``-identical batches."""
    for trace in TRACES[:3]:
        streamed = run_router_batch(trace, "randPr", trials=4, seed=3)
        replayed = run_router_batch(
            trace, RandPrAlgorithm(), trials=4, seed=3, engine="reference"
        )
        assert streamed.engine == "streaming"
        assert replayed.engine == "reference"
        assert streamed.batch.equals(replayed.batch)


def test_overlapping_and_gapped_frames_retire_correctly():
    """Frame lifecycles that straddle window boundaries in every direction:
    nested spans, partial overlaps, single-packet frames between bursts, and
    a frame with large gaps between its own packets."""
    trace = Trace(link_capacity=1)
    trace.add_frame(_mk("long", 4), [0, 3, 6, 9])      # gapped span
    trace.add_frame(_mk("nested", 2), [4, 5])          # inside the gap
    trace.add_frame(_mk("overlap", 3), [2, 3, 4])      # straddles both
    trace.add_frame(_mk("point", 1), [7])              # single packet
    trace.add_frame(_mk("tail", 2, weight=3.0), [9, 10])
    for factory in (RandPrAlgorithm, GreedyWeightAlgorithm, UniformRandomAlgorithm):
        _assert_stream_matches_reference(
            trace, factory(), trials=4, seed=SEED, windows=(1, 2, 3, None)
        )


def test_empty_slots_and_degenerate_traces():
    """Traces with idle slots and no contested steps stream exactly."""
    trace = Trace(link_capacity=2)
    trace.add_frame(_mk("a", 2), [0, 5])
    trace.add_frame(_mk("b", 1, weight=0.0), [5])      # explicit zero weight
    trace.slots.extend([[], [], []])                   # trailing empty slots
    _assert_stream_matches_reference(trace, RandPrAlgorithm(), trials=3, seed=SEED)

    empty = Trace(link_capacity=1)
    batch = simulate_trace_batch(empty, "randPr", trials=3, seed=SEED)
    assert [float(b) for b in batch.benefits] == [0.0, 0.0, 0.0]


def test_zero_capacity_raises_in_both_paths():
    trace = Trace(link_capacity=0)
    trace.add_frame(_mk("a", 1), [0])
    with pytest.raises(InvalidSetSystemError):
        trace.to_instance()
    with pytest.raises(InvalidSetSystemError):
        compile_trace(trace)


def test_zero_uniform_falls_back_to_the_scalar_replay(monkeypatch):
    """A randPr trial whose vectorized stream yields an exact 0.0 must be
    replayed scalar (the reference rejects zero draws, consuming extra RNG
    words the vectorized path cannot mimic) — and still match the reference
    bit for bit, because the replay *is* the reference arithmetic."""
    real_streams = rng_bridge.WordStreams

    class Zeroed(real_streams):
        _tripped = False

        def random(self, count):
            block = super().random(count)
            if not Zeroed._tripped and block.shape[0] > 1 and count:
                Zeroed._tripped = True
                block[1, 0] = 0.0
            return block

    monkeypatch.setattr(rng_bridge, "WordStreams", Zeroed)
    trace = TRACES[0]
    stats = {}
    batch = simulate_trace_batch(
        trace, RandPrAlgorithm(), trials=4, seed=SEED, stats=stats
    )
    assert Zeroed._tripped, "the probe never saw a multi-trial draw"
    monkeypatch.setattr(rng_bridge, "WordStreams", real_streams)
    reference = simulate_many(
        trace.to_instance(), RandPrAlgorithm(), trials=4, seed=SEED
    )
    # Trial 1's stream was corrupted by the zero; its scalar replay (and
    # every untouched trial) must still equal the reference.
    for trial in (0, 2, 3):
        assert batch.completed_sets(trial) == reference[trial].completed_sets
    assert batch.completed_sets(1) == reference[1].completed_sets
    assert float(batch.benefits[1]) == reference[1].benefit


@st.composite
def hand_traces(draw):
    """Randomly-shaped small traces: arbitrary overlap, gaps, duplicate
    in-slot packets, idle slots, explicit and default weights."""
    capacity = draw(st.integers(min_value=1, max_value=3))
    trace = Trace(link_capacity=capacity)
    num_frames = draw(st.integers(min_value=1, max_value=6))
    for index in range(num_frames):
        num_packets = draw(st.integers(min_value=1, max_value=4))
        start = draw(st.integers(min_value=0, max_value=8))
        slots = [start]
        for _ in range(num_packets - 1):
            # -1 keeps the next packet in the same slot (duplicate packets of
            # one frame in one burst); larger gaps leave idle slots behind.
            gap = draw(st.integers(min_value=-1, max_value=3))
            slots.append(slots[-1] + 1 + gap)
        weight = draw(st.sampled_from([None, 0.0, 1.0, 2.5]))
        trace.add_frame(_mk(f"h{index}", num_packets, weight=weight), slots)
    if draw(st.booleans()):
        trace.slots.append([])  # trailing idle slot
    return trace


@settings(max_examples=40, deadline=None)
@given(trace=hand_traces(), window=st.integers(min_value=1, max_value=12))
def test_property_window_size_is_invisible(trace, window):
    """Any window size produces the identical batch as one giant window."""
    chunked = simulate_trace_batch(
        trace, "randPr", trials=3, seed=11, window_slots=window
    )
    whole = simulate_trace_batch(
        trace, "randPr", trials=3, seed=11, window_slots=10**9
    )
    assert chunked.equals(whole)


@settings(max_examples=30, deadline=None)
@given(trace=hand_traces())
def test_property_streaming_matches_reference(trace):
    """Streaming == shared-seed reference on arbitrarily-shaped traces."""
    _assert_stream_matches_reference(
        trace, RandPrAlgorithm(), trials=3, seed=23, windows=(1, 4, None)
    )
    _assert_stream_matches_reference(
        trace, GreedyWeightAlgorithm(), trials=1, seed=23, windows=(1, 4, None)
    )


@settings(max_examples=20, deadline=None)
@given(trace=hand_traces(), window=st.integers(min_value=1, max_value=6))
def test_property_pool_model_matches_engine_high_water(trace, window):
    """``peak_active_frames`` is the engine's exact pool occupancy."""
    compiled = compile_trace(trace)
    stats = {}
    simulate_trace_batch(
        compiled, "randPr", trials=2, seed=7, window_slots=window, stats=stats
    )
    assert stats["peak_pooled_rows"] == compiled.peak_active_frames(window)
