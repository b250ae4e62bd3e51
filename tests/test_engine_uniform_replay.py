"""The uniform-random replay kernel against its oracles.

The batch engine replays ``uniform-random`` (one ``random.sample`` over the
parent sets per arrival) through :meth:`WordStreams.randbelow`, a look-ahead
``_randbelow`` over per-trial word streams, and drops the losing parents once
per chunk of steps.  These tests pin that kernel directly, on synthetic step
lists that reach corners a generated instance rarely does:

* :meth:`WordStreams.randbelow` against CPython's ``_randbelow`` (bounds 1,
  powers of two and ``2**32 - 1``; masks; the ``limit`` bail-out);
* ``batch._replay_uniform_block`` against the scalar per-trial oracle
  ``batch._replay_uniform_trial_scalar`` (CPython's ``random.sample`` over
  the parent positions), for widths 1..40, every ``take`` from 1 to the width
  (both ``sample`` branches), batches of 1, 7 and 300 — with the look-ahead
  forced to one word so the rescue rounds run on most steps, and with the
  retry cap forced to 0, 1 and 3 so trials bail out to the scalar replay;
* the loser-drop chunk size, which must be invisible on an instance and on a
  compiled trace.
"""

import random

import numpy as np
import pytest

from repro.algorithms import UniformRandomAlgorithm
from repro.core import simulate_batch
from repro.engine import WordStreams
from repro.engine import batch as batch_module
from repro.engine import rng as rng_bridge
from repro.engine.streaming import compile_trace, simulate_trace_batch
from repro.network.traffic import PoissonBurstGenerator
from repro.workloads import random_online_instance

#: Columns shared by many steps (so a chunk holds a column more than once).
HUBS = 4


def _synthetic_steps(seed):
    """Steps of every width 1..40, each width with a random ``take``.

    Widths 1..40 each appear twice, once with ``take`` drawn from 1..width
    and once with ``take`` 1 or ``width``; the rejection-set branch of
    ``random.sample`` needs ``width > 21`` and ``2 <= take <= 5``, so those
    combinations are added explicitly.  Every step owns fresh columns, so
    the completed mask spells out each step's selection, except that steps
    of width >= 2 swap one of them for one of :data:`HUBS` shared columns.
    Returns the steps and the column count.
    """
    rng = random.Random(seed)
    shapes = []
    for width in range(1, 41):
        shapes.append((width, rng.randint(1, width)))
        shapes.append((width, rng.choice((1, width))))
    shapes += [(width, take) for width in (22, 32, 40) for take in (2, 3, 5)]
    rng.shuffle(shapes)
    steps = []
    fresh = HUBS
    for width, take in shapes:
        columns = list(range(fresh, fresh + width))
        fresh += width
        if width >= 2:
            columns[rng.randrange(width)] = rng.randrange(HUBS)
        steps.append(
            (np.array(columns), width, take, batch_module._sample_uses_pool(width, take))
        )
    return steps, fresh


def test_synthetic_steps_cover_both_sample_branches():
    steps, _ = _synthetic_steps(0)
    assert {width for _, width, _, _ in steps} == set(range(1, 41))
    assert {use_pool for _, _, take, use_pool in steps if take > 1} == {True, False}
    assert any(take == width for _, width, take, _ in steps)


@pytest.mark.parametrize("shallow", [False, True])
@pytest.mark.parametrize("cap", [64, 0, 1, 3])
@pytest.mark.parametrize("batch", [1, 7, 300])
def test_block_replay_matches_scalar_oracle(monkeypatch, batch, cap, shallow):
    monkeypatch.setattr(batch_module, "_MAX_REPLAY_ROUNDS", cap)
    if shallow:
        # A one-row trial block makes the look-ahead one word deep, so every
        # rejected word sends its row through another round.
        monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", 1)
    oracle = batch_module._replay_uniform_trial_scalar
    bailed = []

    def counting_oracle(steps, rng):
        bailed.append(rng)
        return oracle(steps, rng)

    monkeypatch.setattr(batch_module, "_replay_uniform_trial_scalar", counting_oracle)
    steps, num_columns = _synthetic_steps(batch + cap)
    seed = 1000 * batch + cap
    completed = np.ones((batch, num_columns), dtype=bool)
    batch_module._replay_uniform_block(steps, seed, completed)
    for trial in range(batch):
        expected = np.ones(num_columns, dtype=bool)
        expected[oracle(steps, random.Random(seed + trial))] = False
        assert np.array_equal(completed[trial], expected), f"trial {trial}"
        assert 0 < expected.sum() < num_columns
    # The fallback masks any kernel bug that makes trials bail, so pin how
    # many did: none at the default cap, every one at cap 0.
    if cap == 64:
        assert not bailed
    if cap == 0:
        assert len(bailed) == batch


def test_shallow_lookahead_runs_the_rescue_rounds(monkeypatch):
    """The forced one-word look-ahead really does take extra rounds."""
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", 1)
    rounds = []
    real_ensure = WordStreams._ensure

    def counting_ensure(self, depth):
        rounds.append(depth)
        return real_ensure(self, depth)

    monkeypatch.setattr(WordStreams, "_ensure", counting_ensure)
    streams = WordStreams(seed=4, trials=50)
    for _ in range(20):
        streams.randbelow(2)
    assert set(rounds) == {1}
    assert len(rounds) > 2 * 20


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 21, 64, 1000, 2**31, 2**32 - 1])
def test_randbelow_matches_cpython(bound):
    streams = WordStreams(seed=77, trials=6)
    references = [random.Random(77 + trial) for trial in range(6)]
    masks = [None, np.array([True, False, True, True, False, True]), None]
    for mask in masks:
        selected = range(6) if mask is None else np.flatnonzero(mask).tolist()
        drawn = streams.randbelow(bound, mask)
        assert drawn.tolist() == [references[t]._randbelow(bound) for t in selected]
    # The streams stay in lockstep with the references afterwards.
    assert streams.getrandbits(32).tolist() == [r.getrandbits(32) for r in references]


def test_randbelow_limit_bails_after_exactly_limit_words():
    """With ``bound=1`` each word is rejected with probability 1/2; a trial
    rejecting ``limit`` words in a row returns -1 having consumed them."""
    limit = 2
    streams = WordStreams(seed=5, trials=200)
    drawn = streams.randbelow(1, limit=limit)
    for trial in range(200):
        reference = random.Random(5 + trial)
        words = [reference.getrandbits(1) for _ in range(limit)]
        if 0 in words:
            assert drawn[trial] == 0
            assert streams.positions[trial] == words.index(0) + 1
        else:
            assert drawn[trial] == -1
            assert streams.positions[trial] == limit
    assert (drawn == -1).any() and (drawn == 0).any()
    zero = WordStreams(seed=5, trials=3).randbelow(7, limit=0)
    assert zero.tolist() == [-1, -1, -1]


def test_randbelow_validates_and_handles_empty_selections():
    streams = WordStreams(seed=0, trials=2)
    for bound in (0, 2**32):
        with pytest.raises(ValueError):
            streams.randbelow(bound)
    assert streams.randbelow(5, np.zeros(2, dtype=bool)).shape == (0,)
    assert streams.positions.tolist() == [0, 0]
    assert WordStreams(seed=0, trials=0).randbelow(5).shape == (0,)


@pytest.mark.parametrize("chunk", [1, 3])
def test_loser_drop_chunking_is_invisible(monkeypatch, chunk):
    """The chunk size only groups the drop: results are array-equal."""
    instance = random_online_instance(40, 30, (2, 4), random.Random(5))
    trace = compile_trace(PoissonBurstGenerator().generate(300, random.Random(3)))
    algorithm = UniformRandomAlgorithm()
    default = (
        simulate_batch(instance, algorithm, trials=9, seed=17),
        simulate_trace_batch(trace, algorithm, trials=9, seed=17),
    )
    monkeypatch.setattr(batch_module, "_LOSER_DROP_CHUNK", chunk)
    chunked = (
        simulate_batch(instance, algorithm, trials=9, seed=17),
        simulate_trace_batch(trace, algorithm, trials=9, seed=17),
    )
    steps = batch_module._uniform_random_steps(trace)
    assert len(batch_module._loser_drop_chunks(steps)) > 1
    for whole, split in zip(default, chunked):
        assert whole.equals(split)
