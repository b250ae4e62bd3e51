"""One draw table per sweep unit, shared by every randomized kind.

A sweep unit measures randPr, the uniform-priority ablation and the
uniform-random baseline at one ``(seed, trials)``, so all three read the
same ``random.Random(seed + b)`` values.  The bridge's cache holds the
table of the first kind's miss, widened to whole twist blocks, and serves
the other kinds column prefixes of it: uniform-priority through
``uniform_matrix``, uniform-random through the lookup-only
``cached_uniform_matrix``.  These tests pin that the sharing seeds the
generators once and changes no bit, and its boundaries: the byte cap, the
prefix views, and requests wider than the entry.
"""

import random

import numpy as np
import pytest

from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm, UnweightedPriorityAlgorithm
from repro.core import simulate_batch
from repro.engine import WordStreams
from repro.engine import batch as batch_module
from repro.engine import rng as rng_bridge
from repro.engine.cache import compiled_for
from repro.workloads import random_online_instance

TRIALS = 300
SEED = 9091
KINDS = (RandPrAlgorithm(), UnweightedPriorityAlgorithm(), UniformRandomAlgorithm())


@pytest.fixture(scope="module")
def instance():
    """A 200-set instance of the perfbench sweep's shape."""
    return random_online_instance(
        200, 400, (2, 5), random.Random(17), weight_range=(1.0, 6.0), name="200x400"
    )


@pytest.fixture(scope="module")
def cold(instance):
    """Each kind run on its own, from an empty cache."""
    results = []
    for algorithm in KINDS:
        rng_bridge.clear_uniform_cache()
        results.append(simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED))
    rng_bridge.clear_uniform_cache()
    return results


@pytest.fixture(autouse=True)
def _empty_cache():
    rng_bridge.clear_uniform_cache()
    yield
    rng_bridge.clear_uniform_cache()


def _count_seedings(monkeypatch):
    calls = []
    original = rng_bridge._seed_group

    def counted(key_matrix):
        calls.append(key_matrix.shape)
        return original(key_matrix)

    monkeypatch.setattr(rng_bridge, "_seed_group", counted)
    return calls


def _run_unit(instance):
    return [simulate_batch(instance, algorithm, trials=TRIALS, seed=SEED) for algorithm in KINDS]


def _uniform_random_draws(instance):
    return sum(draws for draws, _ in batch_module._uniform_random_plan(compiled_for(instance)))


def test_the_unit_seeds_its_generators_once(monkeypatch, instance, cold):
    m = compiled_for(instance).num_sets
    assert m < _uniform_random_draws(instance) <= rng_bridge._DRAWS_PER_BLOCK
    seedings = _count_seedings(monkeypatch)
    shared = _run_unit(instance)
    assert len(seedings) == 1
    for warm, alone in zip(shared, cold):
        assert warm.equals(alone)
    stats = rng_bridge.uniform_cache_stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 2, 1)


def test_over_the_byte_cap_every_kind_regenerates(monkeypatch, instance, cold):
    table_bytes = TRIALS * compiled_for(instance).num_sets * 8
    monkeypatch.setattr(rng_bridge, "_UNIFORM_CACHE_MAX_BYTES", table_bytes - 1)
    seedings = _count_seedings(monkeypatch)
    shared = _run_unit(instance)
    assert len(seedings) == len(KINDS)
    assert rng_bridge.uniform_cache_stats()["entries"] == 0
    for warm, alone in zip(shared, cold):
        assert warm.equals(alone)


def test_uniform_random_never_fills_the_cache(instance, cold):
    alone = simulate_batch(instance, UniformRandomAlgorithm(), trials=TRIALS, seed=SEED)
    assert alone.equals(cold[2])
    assert rng_bridge.uniform_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


@pytest.mark.parametrize("cap_draws", [200, 250, 311, 312, 1000])
def test_a_widened_entry_never_exceeds_the_byte_cap(monkeypatch, cap_draws):
    cap = TRIALS * cap_draws * 8 + 7
    monkeypatch.setattr(rng_bridge, "_UNIFORM_CACHE_MAX_BYTES", cap)
    table = rng_bridge.uniform_matrix(SEED, TRIALS, 200)
    assert table.shape == (TRIALS, 200)
    (entry,) = rng_bridge._UNIFORM_CACHE.values()
    assert entry.nbytes <= cap
    assert entry.shape[1] == min(cap_draws, rng_bridge._DRAWS_PER_BLOCK)
    assert np.array_equal(entry, WordStreams(SEED, TRIALS).random(entry.shape[1]))


@pytest.mark.parametrize("width", [1, 5, 200, 311, 312])
def test_prefix_views_are_read_only_f_contiguous_and_exact(width):
    rng_bridge.uniform_matrix(SEED, TRIALS, 5)
    for view in (
        rng_bridge.cached_uniform_matrix(SEED, TRIALS, width),
        rng_bridge.uniform_matrix(SEED, TRIALS, width),
    ):
        assert view.shape == (TRIALS, width)
        assert not view.flags.writeable and view.flags.f_contiguous
        assert np.array_equal(view, WordStreams(SEED, TRIALS).random(width))
    assert rng_bridge.uniform_cache_stats()["misses"] == 1


def test_a_wider_request_regenerates_and_replaces_the_entry():
    rng_bridge.uniform_matrix(SEED, TRIALS, 200)
    assert rng_bridge.cached_uniform_matrix(SEED, TRIALS, 313) is None
    wider = rng_bridge.uniform_matrix(SEED, TRIALS, 313)
    stats = rng_bridge.uniform_cache_stats()
    assert (stats["misses"], stats["entries"]) == (2, 1)
    assert rng_bridge._UNIFORM_CACHE[(SEED, TRIALS)].shape[1] == 2 * rng_bridge._DRAWS_PER_BLOCK
    assert np.array_equal(wider, WordStreams(SEED, TRIALS).random(313))
