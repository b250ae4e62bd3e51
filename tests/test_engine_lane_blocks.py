"""randPr and uniform-priority replayed in trial blocks over the draw-cache cap.

A draw table that fits the bridge's uniform cache is built once and shared
by every randomized kind of a sweep unit.  A larger one is never built: the
batch engine reads it through :func:`repro.engine.rng.uniform_blocks`, one
block of ``_TRIAL_BLOCK`` trials at a time, and runs the keys, the static
kernel and the reference-replay bookkeeping of each block before drawing the
next.  These tests pin that the blocking changes no bit, that every replayed
lane is replayed at its offset in the whole batch, and that the memory held
at once stays far below one ``(trials, sets)`` float64 table.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import RandPrAlgorithm, UnweightedPriorityAlgorithm
from repro.core import simulate_batch
from repro.core.simulation import simulate
from repro.engine import batch as batch_module
from repro.engine import rng as rng_bridge
from repro.engine.cache import compiled_for
from repro.workloads import random_online_instance

TRIALS = 30
SEED = 4242
BLOCK = 7  # 30 trials: four blocks of 7 and a ragged block of 2
DRAWN = (RandPrAlgorithm(), UnweightedPriorityAlgorithm())
DRAWN_IDS = [algorithm.name for algorithm in DRAWN]


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


def _over_the_cap(monkeypatch, instance):
    table_bytes = TRIALS * compiled_for(instance).num_sets * 8
    monkeypatch.setattr(rng_bridge, "_UNIFORM_CACHE_MAX_BYTES", table_bytes - 1)
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", BLOCK)


def _block_edges():
    starts = list(range(0, TRIALS, BLOCK))
    return starts, [min(start + BLOCK, TRIALS) for start in starts]


def _record_replays(monkeypatch):
    replayed = []
    original = batch_module._replay_reference

    def recording(compiled, seed, trials, completed):
        replayed.extend(trials)
        return original(compiled, seed, trials, completed)

    monkeypatch.setattr(batch_module, "_replay_reference", recording)
    return replayed


@pytest.mark.parametrize("algorithm", DRAWN, ids=DRAWN_IDS)
def test_blocks_over_the_cap_are_bit_identical(monkeypatch, instance, algorithm):
    under = simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)
    over = simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED)
    assert over.equals(under)
    # Nothing was cached, and no whole table was asked for.
    assert rng_bridge.uniform_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}
    for trial in range(TRIALS):
        reference = simulate(instance, algorithm, rng=random.Random(SEED + trial))
        assert over.completed_sets(trial) == reference.completed_sets
        assert float(over.benefits[trial]) == reference.benefit


def test_uniform_blocks_concatenate_to_the_table(monkeypatch):
    whole = np.array(rng_bridge.uniform_matrix(SEED, TRIALS, 50))
    monkeypatch.setattr(rng_bridge, "_UNIFORM_CACHE_MAX_BYTES", whole.nbytes - 1)
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", BLOCK)
    blocks = list(rng_bridge.uniform_blocks(SEED, TRIALS, 50))
    starts, stops = _block_edges()
    assert [start for start, _ in blocks] == starts
    assert [rows.shape for _, rows in blocks] == [
        (stop - start, 50) for start, stop in zip(starts, stops)
    ]
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]), whole)


def test_every_near_lane_is_replayed_at_its_batch_offset(monkeypatch, instance):
    plain = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)
    # Every contest is now a near tie, so every lane of every block replays.
    monkeypatch.setattr(batch_module, "_GUARD_ULPS", 2**62)
    replayed = _record_replays(monkeypatch)
    guarded = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    assert guarded.equals(plain)
    assert replayed == list(range(TRIALS))


def test_zero_draw_lanes_are_replayed_at_their_batch_offset(monkeypatch, instance):
    plain = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    rng_bridge.clear_uniform_cache()
    _over_the_cap(monkeypatch, instance)
    # Flag each block's last lane as if one of its draws were 0.0.
    monkeypatch.setattr(batch_module, "zero_draw_trials", lambda uniforms: [len(uniforms) - 1])
    replayed = _record_replays(monkeypatch)
    flagged = simulate_batch(instance, "randPr", trials=TRIALS, seed=SEED)
    assert flagged.equals(plain)
    # (A lane the near-tie guard flags may replay too.)
    assert {stop - 1 for stop in _block_edges()[1]} <= set(replayed)


@pytest.mark.parametrize("algorithm", DRAWN, ids=DRAWN_IDS)
def test_peak_memory_stays_below_half_a_draw_table(instance, algorithm):
    trials = 100_000
    compiled = compiled_for(instance)
    table_bytes = trials * compiled.num_sets * 8  # 160 MB
    tracemalloc.start()
    try:
        result = simulate_batch(compiled, algorithm, trials=trials, seed=SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trials == trials
    assert peak < table_bytes / 2, f"traced peak {peak / 1e6:.1f} MB"
