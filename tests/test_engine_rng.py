"""The RNG bridge's exactness certificate (``repro.engine.rng``).

Every layer of the numpy replay is pinned against the CPython original it
mirrors:

* :func:`state_matrix` (the vectorized ``init_by_array`` seeding) against
  ``random.Random(seed).getstate()``, across small, zero, negative,
  multi-digit and mixed-digit-count seeds;
* :func:`uniform_matrix` against per-trial ``random.Random(seed + b).random()``
  loops, across twist-block boundaries;
* :class:`WordStreams` (the one stream type: the raw words under the draw
  table and the lockstep ``random()`` chunks of the streaming engine and
  the uniform-random replay) against per-trial ``getrandbits``/``random``
  loops, across twist boundaries and with chunks crossing them;
* :func:`transplant_rng` (the ``getstate`` → ``set_state`` bridge) against
  the source generator it was transplanted from;
* :func:`getrandbits64` against ``random.Random(seed + b).getrandbits(64)``;
* :func:`exact_pow` against CPython's scalar ``**`` (the property the numpy
  SIMD ``**`` does *not* have, which is why exact_pow exists);
* the rewritten :func:`~repro.engine.specs.priority_matrix` against the
  scalar per-trial reference construction it replaced, including the
  zero-draw fallback and the scalar-replay routes the bridge must *not*
  absorb (the draw-order-contract fallbacks).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm
from repro.core import OnlineInstance, SetSystem, simulate_batch, simulate_many
from repro.core.priorities import hash_priority, sample_priority
from repro.engine import (
    AlgorithmSpec,
    WordStreams,
    clear_uniform_cache,
    exact_pow,
    priority_matrix,
    spec_for_algorithm,
    state_matrix,
    transplant_rng,
    uniform_cache_stats,
    uniform_matrix,
)
from repro.engine import rng as rng_bridge
from repro.engine import specs as specs_module
from repro.engine.cache import compiled_for
from repro.engine.compile import compile_instance
from repro.exceptions import UnsupportedAlgorithmError
from repro.workloads import random_weighted_instance

# ----------------------------------------------------------------------
# state_matrix: the vectorized init_by_array seeding
# ----------------------------------------------------------------------

ASSORTED_SEEDS = [
    0,
    1,
    7,
    2024,
    -5,  # CPython seeds by absolute value
    2**31,
    2**32 - 1,  # largest single-digit key
    2**32,  # smallest two-digit key
    2**32 + 1,
    2**64 + 12345,  # three-digit key
    -(2**33 + 9),
]


def test_state_matrix_matches_getstate_for_assorted_seeds():
    matrix = state_matrix(ASSORTED_SEEDS)
    assert matrix.shape == (len(ASSORTED_SEEDS), rng_bridge.MT_N)
    for row, seed in zip(matrix, ASSORTED_SEEDS):
        reference = random.Random(seed).getstate()[1][:-1]
        assert tuple(int(word) for word in row) == reference, seed


def test_state_matrix_handles_mixed_digit_counts_in_one_batch():
    """A trial range straddling 2**32 mixes one- and two-digit seeding keys."""
    seeds = list(range(2**32 - 3, 2**32 + 3))
    matrix = state_matrix(seeds)
    for row, seed in zip(matrix, seeds):
        assert tuple(int(word) for word in row) == random.Random(seed).getstate()[1][:-1]


def test_state_matrix_empty():
    assert state_matrix([]).shape == (0, rng_bridge.MT_N)


def _getstate_matrix(seeds):
    return np.array([random.Random(seed).getstate()[1][:-1] for seed in seeds], np.uint32)


def _counting(monkeypatch, name):
    """Wrap ``rng_bridge.<name>`` so its calls are counted."""
    calls = []
    original = getattr(rng_bridge, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rng_bridge, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "seeds", [range(0, 4097), range(-5, 5), range(2**32 - 3, 2**32)], ids=str
)
def test_state_matrix_of_a_one_digit_seed_range_takes_one_key_row(monkeypatch, seeds):
    """A seed range inside ``(-2**32, 2**32)`` builds its key row in numpy:
    no per-seed digits, one seeding group."""
    digits = _counting(monkeypatch, "_seed_digits")
    groups = _counting(monkeypatch, "_seed_group")
    matrix = state_matrix(seeds)
    assert not digits and len(groups) == 1
    assert np.array_equal(matrix, _getstate_matrix(seeds))


def test_state_matrix_of_a_range_straddling_2_32_takes_the_mixed_path(monkeypatch):
    seeds = range(2**32 - 2, 2**32 + 2)
    digits = _counting(monkeypatch, "_seed_digits")
    groups = _counting(monkeypatch, "_seed_group")
    matrix = state_matrix(seeds)
    assert len(digits) == len(seeds) and len(groups) == 2
    assert np.array_equal(matrix, _getstate_matrix(seeds))


def test_word_streams_of_no_trials():
    streams = WordStreams(2**40, 0)
    assert streams.random(3).shape == (0, 3)


# ----------------------------------------------------------------------
# uniform_matrix: the vectorized draw table
# ----------------------------------------------------------------------


@pytest.mark.parametrize("draws", [1, 5, 311, 312, 313, 624, 625, 700])
def test_uniform_matrix_replays_reference_draws(draws):
    """Bit-equal across twist-block boundaries (312 pairs consume one block)."""
    clear_uniform_cache()
    table = uniform_matrix(1000, trials=4, draws=draws)
    for trial in range(4):
        reference = random.Random(1000 + trial)
        assert list(table[trial]) == [reference.random() for _ in range(draws)]


def test_uniform_matrix_negative_and_large_seeds():
    clear_uniform_cache()
    for seed in (-7, 2**32 - 2, 2**63):
        table = uniform_matrix(seed, trials=3, draws=10)
        for trial in range(3):
            reference = random.Random(seed + trial)
            assert list(table[trial]) == [reference.random() for _ in range(10)]


def test_uniform_matrix_is_read_only_and_cached():
    clear_uniform_cache()
    first = uniform_matrix(5, trials=4, draws=6)
    assert not first.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        first[0, 0] = 0.5
    second = uniform_matrix(5, trials=4, draws=6)
    assert np.shares_memory(second, first)  # a hit views the cached table
    stats = uniform_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1
    clear_uniform_cache()
    assert uniform_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}


def test_uniform_matrix_cache_is_bounded():
    clear_uniform_cache()
    for seed in range(10):
        uniform_matrix(seed, trials=2, draws=2)
    assert uniform_cache_stats()["entries"] <= 4


def test_uniform_matrix_degenerate_shapes():
    clear_uniform_cache()
    assert uniform_matrix(0, trials=0, draws=5).shape == (0, 5)
    assert uniform_matrix(0, trials=5, draws=0).shape == (5, 0)
    with pytest.raises(ValueError):
        uniform_matrix(0, trials=-1, draws=5)


def test_uniform_matrix_spans_trial_blocks():
    """Trial counts beyond the internal block size still line up per trial."""
    clear_uniform_cache()
    block = rng_bridge._TRIAL_BLOCK
    trials = block + 3
    table = uniform_matrix(42, trials=trials, draws=2)
    for trial in (0, block - 1, block, trials - 1):
        reference = random.Random(42 + trial)
        assert list(table[trial]) == [reference.random() for _ in range(2)]


# ----------------------------------------------------------------------
# WordStreams: the one MT19937 stream type
# ----------------------------------------------------------------------


def _raw_words(seed, trials, words):
    """The ``(trials, words)`` table of raw generator outputs."""
    return WordStreams(seed, trials)._generate(np.empty((words, trials), np.uint32)).T


@pytest.mark.parametrize("words", [1, 5, 623, 624, 625, 1300])
def test_word_streams_replay_raw_generator_words(words):
    """Bit-equal raw 32-bit outputs across twist-block boundaries (624 words
    consume one block)."""
    table = _raw_words(77, trials=3, words=words)
    assert table.shape == (3, words)
    for trial in range(3):
        reference = random.Random(77 + trial)
        assert list(table[trial]) == [reference.getrandbits(32) for _ in range(words)]


def test_word_streams_random_degenerate_shapes():
    assert WordStreams(0, trials=0).random(5).shape == (0, 5)
    assert WordStreams(0, trials=5).random(0).shape == (5, 0)
    with pytest.raises(ValueError):
        WordStreams(0, trials=2).random(-1)


def test_word_streams_validate_arguments():
    with pytest.raises(ValueError):
        WordStreams(seed=0, trials=-1)


@pytest.mark.parametrize("sizes", [(0, 1, 311, 700), (700, 0, 311, 1), (311, 311, 311)])
def test_word_streams_random_chunks_concatenate_to_the_reference(sizes):
    """Chunks of 0, 1, 311 and 700 values cross twist boundaries (312 values
    per block) invisibly: they concatenate to ``random()`` and to the table."""
    streams = WordStreams(seed=21, trials=3)
    chunked = np.concatenate([streams.random(count) for count in sizes], axis=1)
    draws = sum(sizes)
    assert chunked.shape == (3, draws)
    for trial in range(3):
        reference = random.Random(21 + trial)
        assert chunked[trial].tolist() == [reference.random() for _ in range(draws)]
    clear_uniform_cache()
    assert np.array_equal(chunked, uniform_matrix(21, trials=3, draws=draws))


@pytest.mark.parametrize("count", [0, 1, 311, 312, 700])
def test_word_streams_random_consumes_two_words_per_value(count):
    streams = WordStreams(seed=6, trials=2)
    streams.random(count)
    references = [random.Random(6 + trial) for trial in range(2)]
    for reference in references:
        for _ in range(2 * count):
            reference.getrandbits(32)
    # The next word is each reference's word 2 * count + 1.
    word = streams._generate(np.empty((1, 2), np.uint32))[0]
    assert word.tolist() == [r.getrandbits(32) for r in references]


@pytest.mark.parametrize("words", [1, 623, 624, 625])
def test_word_streams_random_pairs_words_from_any_offset(words):
    """After an odd or block-straddling count of raw words, ``random()``
    pairs the next two words: the part of a block not yet handed out stays
    in the generator state, untempered, until it is read."""
    streams = WordStreams(seed=31, trials=2)
    streams._generate(np.empty((words, 2), np.uint32))
    drawn = streams.random(315)
    for trial in range(2):
        reference = random.Random(31 + trial)
        for _ in range(words):
            reference.getrandbits(32)
        assert drawn[trial].tolist() == [reference.random() for _ in range(315)]


def test_word_streams_long_lockstep_streams_stay_exact():
    """One value at a time over five twist blocks (the replay reads a block
    of steps per call) is still the reference stream."""
    streams = WordStreams(seed=8, trials=3)
    references = [random.Random(8 + trial) for trial in range(3)]
    for _ in range(5 * rng_bridge.MT_N // 2):
        drawn = streams.random(1)[:, 0]
        assert drawn.tolist() == [reference.random() for reference in references]


# ----------------------------------------------------------------------
# transplant_rng: the getstate -> set_state bridge
# ----------------------------------------------------------------------


def test_transplant_replays_long_streams():
    source = random.Random(99)
    mirror = transplant_rng(random.Random(99))
    # 2000 draws cross several twist regenerations.
    assert [source.random() for _ in range(2000)] == list(mirror.random_sample(2000))


def test_transplant_mid_stream_and_non_int_seeds():
    source = random.Random("a string seed")
    _ = [source.random() for _ in range(137)]  # advance to mid-block
    mirror = transplant_rng(source)
    assert [source.random() for _ in range(500)] == list(mirror.random_sample(500))


def test_transplant_is_independent_after_copy():
    source = random.Random(3)
    mirror = transplant_rng(source)
    _ = mirror.random_sample(10)
    fresh = random.Random(3)
    assert source.random() == fresh.random()  # source state untouched


# ----------------------------------------------------------------------
# getrandbits64
# ----------------------------------------------------------------------


def test_getrandbits64_matches_reference():
    assert rng_bridge.getrandbits64(2024, trials=64) == [
        random.Random(2024 + trial).getrandbits(64) for trial in range(64)
    ]
    assert rng_bridge.getrandbits64(0, trials=0) == []


def test_getrandbits64_is_seeded_one_trial_block_at_a_time(monkeypatch):
    """Each block's streams start at ``seed + start``, so the salts do not move."""
    seedings = []
    original = rng_bridge._seed_group

    def counted(key_matrix):
        seedings.append(key_matrix.shape[1])
        return original(key_matrix)

    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", 4)
    monkeypatch.setattr(rng_bridge, "_seed_group", counted)
    assert rng_bridge.getrandbits64(77, trials=10) == [
        random.Random(77 + trial).getrandbits(64) for trial in range(10)
    ]
    assert seedings == [4, 4, 2]


# ----------------------------------------------------------------------
# exact_pow: bit-equality with the scalar reference transform
# ----------------------------------------------------------------------


def test_exact_pow_matches_scalar_pow():
    rng = random.Random(1)
    base = np.array([[rng.random() for _ in range(23)] for _ in range(17)])
    exponents = [1.0 / rng.uniform(0.01, 50.0) for _ in range(23)]
    result = exact_pow(base, exponents)
    for row_out, row_in in zip(result, base):
        expected = [value**exponent for value, exponent in zip(row_in.tolist(), exponents)]
        assert row_out.tolist() == expected


def test_exact_pow_unit_exponent_columns_are_copied():
    base = np.array([[0.25, 0.5], [0.75, 0.125]])
    result = exact_pow(base, [1.0, 2.0])
    assert result[:, 0].tolist() == [0.25, 0.75]  # pow(x, 1) == x (C99 Annex F)
    assert result[:, 1].tolist() == [0.5**2.0, 0.125**2.0]


def test_exact_pow_validates_shapes():
    with pytest.raises(ValueError):
        exact_pow(np.zeros(3), [1.0])  # not 2-D
    with pytest.raises(ValueError):
        exact_pow(np.zeros((2, 3)), [1.0, 2.0])  # exponent count mismatch


@settings(max_examples=200, deadline=None)
@given(
    uniform=st.floats(min_value=0.0, max_value=1.0, exclude_min=False),
    weight=st.floats(min_value=1e-12, max_value=1e6),
)
def test_math_pow_is_float_pow(uniform, weight):
    """``math.pow`` and ``**`` are the same libm call on the engine's domain.

    exact_pow relies on this: the reference algorithms compute ``u ** (1/w)``
    via ``float.__pow__`` while the bridge's tight loop calls ``math.pow``.
    """
    exponent = 1.0 / weight
    assert math.pow(uniform, exponent) == uniform**exponent


@settings(max_examples=100, deadline=None)
@given(weight=st.floats(min_value=1e-12, max_value=1e6))
def test_vectorized_exponents_match_scalar_division(weight):
    """``compile_instance``'s ``1.0 / clamped`` equals per-call ``1.0 / w``."""
    vectorized = (1.0 / np.array([weight], dtype=np.float64))[0]
    assert float(vectorized) == 1.0 / weight


# ----------------------------------------------------------------------
# priority_matrix: new vectorized path vs. the scalar construction
# ----------------------------------------------------------------------


def _compiled(num_sets=14, num_elements=20, seed=3, weight_range=(1.0, 6.0)):
    instance = random_weighted_instance(
        num_sets, num_elements, (2, 4), random.Random(seed), weight_range=weight_range
    )
    return compile_instance(instance)


def _scalar_randpr_matrix(compiled, trials, seed):
    """The pre-bridge scalar construction (kept as the correctness oracle)."""
    clamped = [float(value) for value in compiled.clamped_weights]
    exponents = [1.0 / weight for weight in clamped]
    matrix = np.empty((trials, compiled.num_sets), dtype=np.float64)
    for trial in range(trials):
        draw = random.Random(seed + trial).random
        row = [draw() ** exponent for exponent in exponents]
        if 0.0 in row:
            replay = random.Random(seed + trial)
            row = [sample_priority(weight, replay) for weight in clamped]
        matrix[trial] = row
    return matrix


@pytest.mark.parametrize("seed", [0, 17, 2024])
def test_randpr_priority_matrix_is_bit_identical_to_scalar_path(seed):
    clear_uniform_cache()
    compiled = _compiled(seed=seed % 7 + 1)
    vectorized = priority_matrix(AlgorithmSpec("randPr"), compiled, trials=25, seed=seed)
    scalar = _scalar_randpr_matrix(compiled, trials=25, seed=seed)
    assert np.array_equal(vectorized, scalar)


def test_randpr_priority_matrix_with_unit_and_zero_weights():
    """Unit weights take the copy shortcut; zero weights take the clamp."""
    system = SetSystem(
        sets={"A": ["u", "v"], "B": ["v", "w"], "C": ["u", "w"]},
        weights={"A": 1.0, "B": 0.0, "C": 3.5},
    )
    compiled = compile_instance(OnlineInstance(system, name="mixed"))
    vectorized = priority_matrix(AlgorithmSpec("randPr"), compiled, trials=40, seed=5)
    scalar = _scalar_randpr_matrix(compiled, trials=40, seed=5)
    assert np.array_equal(vectorized, scalar)


@pytest.mark.parametrize("seed", [0, 9])
def test_uniform_priority_matrix_is_bit_identical_to_scalar_path(seed):
    clear_uniform_cache()
    compiled = _compiled(seed=seed + 2)
    vectorized = priority_matrix(
        AlgorithmSpec("uniform-priority"), compiled, trials=30, seed=seed
    )
    matrix = np.empty((30, compiled.num_sets))
    for trial in range(30):
        draw = random.Random(seed + trial).random
        matrix[trial] = [draw() for _ in range(compiled.num_sets)]
    assert np.array_equal(vectorized, matrix)
    assert vectorized.flags.writeable  # the public matrix is caller-owned


def test_hashed_fresh_salt_matrix_is_bit_identical_to_scalar_path():
    compiled = _compiled(seed=11)
    clamped = [float(value) for value in compiled.clamped_weights]
    vectorized = priority_matrix(
        AlgorithmSpec("randPr-hashed"), compiled, trials=6, seed=77
    )
    matrix = np.empty((6, compiled.num_sets))
    for trial in range(6):
        reference = random.Random(77 + trial)
        salt = f"salt-{reference.getrandbits(64):016x}"
        matrix[trial] = [
            hash_priority(set_id, weight, salt=salt)
            for set_id, weight in zip(compiled.set_ids, clamped)
        ]
    assert np.array_equal(vectorized, matrix)


def test_zero_draw_trial_falls_back_to_scalar_replay(monkeypatch):
    """A 0.0 uniform (probability ~2^-53) must reroute that trial — and only
    that trial — through the scalar ``sample_priority`` replay."""
    compiled = _compiled(seed=4)
    m = compiled.num_sets
    trials, seed = 5, 123
    real_table = np.array(uniform_matrix(seed, trials, m))
    doctored = real_table.copy()
    doctored[2, 1] = 0.0  # inject the astronomically unlikely draw
    doctored.setflags(write=False)
    monkeypatch.setattr(
        specs_module.rng_bridge, "uniform_matrix", lambda *args: doctored
    )
    calls = []
    real_sample_priority = sample_priority

    def counting_sample_priority(weight, rng):
        calls.append(weight)
        return real_sample_priority(weight, rng)

    monkeypatch.setattr(specs_module, "sample_priority", counting_sample_priority)
    matrix = priority_matrix(AlgorithmSpec("randPr"), compiled, trials=trials, seed=seed)
    assert len(calls) == m  # exactly one trial replayed through the helper
    scalar = _scalar_randpr_matrix(compiled, trials=trials, seed=seed)
    for trial in (0, 1, 3, 4):
        assert matrix[trial].tolist() == scalar[trial].tolist()
    # The doctored trial replays the true stream (whose draws are nonzero).
    assert matrix[2].tolist() == scalar[2].tolist()


# ----------------------------------------------------------------------
# Draw-order-contract fallbacks: what the bridge must NOT absorb
# ----------------------------------------------------------------------


def test_unvectorizable_subclass_resolves_to_none_and_reference_engine():
    """A subclass may override behaviour: spec resolution must refuse it and
    the reference simulator must remain the (unchanged) execution route."""

    class TweakedRandPr(RandPrAlgorithm):
        def start(self, set_infos, rng):  # pragma: no cover - behaviour probe
            super().start(set_infos, rng)

    assert spec_for_algorithm(TweakedRandPr()) is None
    with pytest.raises(UnsupportedAlgorithmError):
        simulate_batch(_instance_small(), TweakedRandPr(), trials=2, seed=0)
    # The reference route still runs it (and is what engine="auto" picks).
    results = simulate_many(_instance_small(), TweakedRandPr(), trials=2, seed=0)
    baseline = simulate_many(_instance_small(), RandPrAlgorithm(), trials=2, seed=0)
    assert [r.completed_sets for r in results] == [r.completed_sets for r in baseline]


def _instance_small():
    return random_weighted_instance(
        8, 12, (2, 3), random.Random(6), weight_range=(1.0, 4.0)
    )


def test_per_step_random_kind_routes_through_word_stream_replay(monkeypatch):
    """uniform-random interleaves per-arrival draws: it must bypass the
    priority-matrix path entirely and replay over the per-trial word streams."""

    def exploding_priority_matrix(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("uniform-random must not take the static-priority path")

    import repro.engine.batch as batch_module

    monkeypatch.setattr(batch_module, "priority_matrix", exploding_priority_matrix)
    instance = _instance_small()
    batch = simulate_batch(instance, UniformRandomAlgorithm(), trials=6, seed=44)
    reference = simulate_many(instance, UniformRandomAlgorithm(), trials=6, seed=44)
    for trial, result in enumerate(reference):
        assert batch.completed_sets(trial) == result.completed_sets


def test_uniform_random_trial_blocking_is_invisible(monkeypatch):
    """Splitting the batch into trial blocks must not change a single trial
    (each block's word streams restart at ``seed + block_start``)."""
    instance = _instance_small()
    whole = simulate_batch(instance, UniformRandomAlgorithm(), trials=9, seed=17)
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", 4)
    split = simulate_batch(instance, UniformRandomAlgorithm(), trials=9, seed=17)
    assert whole.equals(split)


# ----------------------------------------------------------------------
# End-to-end: simulate_batch with the bridge active
# ----------------------------------------------------------------------


def test_simulate_batch_unchanged_by_uniform_cache_state():
    instance = _instance_small()
    clear_uniform_cache()
    cold = simulate_batch(instance, "randPr", trials=10, seed=3)
    warm = simulate_batch(instance, "randPr", trials=10, seed=3)
    clear_uniform_cache()
    recold = simulate_batch(instance, "randPr", trials=10, seed=3)
    assert cold.equals(warm) and cold.equals(recold)


def test_compiled_exponents_match_reference_floats():
    compiled = compiled_for(_instance_small())
    clamped = [float(value) for value in compiled.clamped_weights]
    assert compiled.priority_exponents.tolist() == [1.0 / weight for weight in clamped]
