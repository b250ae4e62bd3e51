"""Over-cap trial blocks seeded once, then drawn, keyed and replayed in lane chunks.

Over the draw-cache cap the bridge seeds ``_TRIAL_BLOCK`` streams at a time
(:func:`repro.engine.rng._trial_blocks`) and reads them ``_LANE_CHUNK``
lanes at a time (:meth:`repro.engine.rng.WordStreams.chunks`): randPr and
uniform-priority key and replay each chunk in one reused buffer, and
uniform-random reads every block of arrival steps per chunk.  These tests
pin that ragged chunks inside ragged blocks change no bit, that every
replayed lane is replayed at its offset in the whole batch, and that the
memory held at once is a trial block's state plus chunk-wide temporaries.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm, UnweightedPriorityAlgorithm
from repro.core import simulate_batch
from repro.core.simulation import simulate
from repro.engine import WordStreams
from repro.engine import batch as batch_module
from repro.engine import rng as rng_bridge
from repro.engine.cache import compiled_for
from repro.workloads import random_online_instance

TRIALS = 30
SEED = 5151
BLOCK = 7  # 30 trials: four blocks of 7 and a ragged block of 2
CHUNK = 3  # each block of 7: chunks of 3, 3 and a ragged 1
KINDS = (RandPrAlgorithm(), UnweightedPriorityAlgorithm(), UniformRandomAlgorithm())
KIND_IDS = [algorithm.name for algorithm in KINDS]


@pytest.fixture(scope="module")
def instance():
    """A 200-set instance of the perfbench trials part's shape."""
    return random_online_instance(
        200, 400, (2, 5), random.Random(23), weight_range=(1.0, 6.0), name="200x400"
    )


@pytest.fixture(autouse=True)
def _empty_cache():
    rng_bridge.clear_uniform_cache()
    yield
    rng_bridge.clear_uniform_cache()


def _chunked(monkeypatch):
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", BLOCK)
    monkeypatch.setattr(rng_bridge, "_LANE_CHUNK", CHUNK)


def _over_the_cap(monkeypatch, instance):
    table_bytes = TRIALS * compiled_for(instance).num_sets * 8
    monkeypatch.setattr(rng_bridge, "_UNIFORM_CACHE_MAX_BYTES", table_bytes - 1)
    _chunked(monkeypatch)


def _chunk_edges():
    """``(start, stop)`` of every lane chunk of every trial block."""
    edges = []
    for block in range(0, TRIALS, BLOCK):
        block_stop = min(block + BLOCK, TRIALS)
        starts = range(block, block_stop, CHUNK)
        edges += [(start, min(start + CHUNK, block_stop)) for start in starts]
    return edges


def _record_replays(monkeypatch):
    replayed = []
    original = batch_module._replay_reference

    def recording(compiled, seed, trials, completed):
        replayed.extend(trials)
        return original(compiled, seed, trials, completed)

    monkeypatch.setattr(batch_module, "_replay_reference", recording)
    return replayed


def _reference_draws(seed, count):
    source = random.Random(seed)
    return [source.random() for _ in range(count)]


@pytest.mark.parametrize("algorithm", KINDS, ids=KIND_IDS)
def test_chunks_over_the_cap_are_bit_identical(monkeypatch, instance, algorithm):
    under = simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)
    over = simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED)
    assert over.equals(under)
    assert rng_bridge.uniform_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}
    for trial in range(TRIALS):
        reference = simulate(instance, algorithm, rng=random.Random(SEED + trial))
        assert over.completed_sets(trial) == reference.completed_sets
        assert float(over.benefits[trial]) == reference.benefit


def test_uniform_random_reads_a_cached_table_in_lane_chunks(monkeypatch, instance):
    plain = simulate_batch(instance, "uniform-random", trials=TRIALS, seed=SEED)
    _chunked(monkeypatch)
    plan = batch_module._uniform_random_plan(compiled_for(instance))
    rng_bridge.uniform_matrix(SEED, TRIALS, sum(draws for draws, _ in plan))
    chunked = simulate_batch(instance, "uniform-random", trials=TRIALS, seed=SEED)
    assert chunked.equals(plain)
    assert rng_bridge.uniform_cache_stats()["hits"] == 1  # the table served it


def test_streams_match_cpython_in_ragged_chunks(monkeypatch):
    _chunked(monkeypatch)
    trials = 10
    streams = WordStreams(SEED, trials)
    drawn = np.concatenate([streams.random(300), streams.random(400)], axis=1)
    rng_bridge.clear_uniform_cache()
    table = rng_bridge.uniform_matrix(SEED, trials, 700)
    for trial in range(trials):
        expected = _reference_draws(SEED + trial, 700)
        assert drawn[trial].tolist() == expected
        assert table[trial].tolist() == expected
    assert rng_bridge.getrandbits64(SEED, trials) == [
        random.Random(SEED + trial).getrandbits(64) for trial in range(trials)
    ]


def test_each_chunk_view_reads_its_own_lanes(monkeypatch):
    _chunked(monkeypatch)
    firsts = []
    for first, lanes in WordStreams(SEED, 8).chunks():
        firsts.append(first)
        drawn = np.concatenate([lanes.random(5), lanes.random(320)], axis=1)
        for lane in range(lanes.trials):
            assert drawn[lane].tolist() == _reference_draws(SEED + first + lane, 325)
    assert firsts == [0, 3, 6]


def test_every_near_lane_is_replayed_at_its_batch_offset(monkeypatch, instance):
    plain = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)
    # Every contest is now a near tie, so every lane of every chunk replays.
    monkeypatch.setattr(batch_module, "_GUARD_ULPS", 2**62)
    replayed = _record_replays(monkeypatch)
    guarded = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    assert guarded.equals(plain)
    assert replayed == list(range(TRIALS))


def test_zero_draw_lanes_are_replayed_at_their_batch_offset(monkeypatch, instance):
    plain = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)

    def flag_last_lane(uniforms):
        # Stand-in draws, well apart, so the lane's vectorized row is wrong
        # unless the lane is replayed from the reference draws.
        uniforms[-1] = np.linspace(0.95, 0.05, uniforms.shape[1])
        return [len(uniforms) - 1]

    monkeypatch.setattr(batch_module, "zero_draw_trials", flag_last_lane)
    replayed = _record_replays(monkeypatch)
    flagged = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    assert flagged.equals(plain)
    assert {stop - 1 for _, stop in _chunk_edges()} <= set(replayed)


@pytest.mark.parametrize(
    "algorithm, trials, limit_mb",
    [(algorithm, 25_000, 28) for algorithm in KINDS]
    + [(algorithm, 100_000, 45) for algorithm in KINDS[:2]],
    ids=[f"{name}-25k" for name in KIND_IDS] + [f"{name}-100k" for name in KIND_IDS[:2]],
)
def test_peak_memory_is_one_block_state_and_chunk_temporaries(
    instance, algorithm, trials, limit_mb
):
    compiled = compiled_for(instance)
    tracemalloc.start()
    try:
        result = simulate_batch(compiled, algorithm, trials=trials, seed=SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trials == trials
    assert peak < limit_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"
