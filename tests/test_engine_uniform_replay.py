"""The uniform-random replay against the scalar reference ``decide``.

``UniformRandomAlgorithm.decide`` draws a fixed number of ``random()``
values per arrival: a partial Fisher–Yates over the ``w`` parents, one
value per pick, and none at all when it takes every parent.  So every
arrival's draws sit at a stream offset the instance fixes, and
``batch._run_uniform_random`` replays all arrivals of a trial block at once
from lockstep streams.  These tests pin that replay on step lists that reach
corners a generated instance rarely or never does:

* widths 0..12 with every pick count from 1 to the width (``t == 1``,
  ``t > 1`` and ``t == w``), including steps with no parents, which no
  instance can hold;
* draws forced to ``0.0`` and to ``1 - 2**-53``, the largest double below 1
  (``int(u * n)`` must stay below ``n``);
* step-block and trial-block boundaries, with both block sizes forced small,
  and seeds of every seeding-key class;
* the contract itself on the reference: an arrival reads exactly ``t``
  values when ``t < w`` and none otherwise; and the pieces of the replay on
  their own (the Fisher–Yates kernel lane by lane, the per-block plan);
* one frozen pin of the contract, and its statistics: per-arrival choice
  frequencies (chi-square) and the benefit distribution against the earlier
  ``random.sample`` policy (two-sample KS), at a level fixed in advance.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import UniformRandomAlgorithm
from repro.core import simulate_batch, simulate_many
from repro.core.instance import ElementArrival, InstanceBuilder
from repro.engine import WordStreams
from repro.engine import batch as batch_module
from repro.engine import rng as rng_bridge
from repro.engine.streaming import compile_trace, simulate_trace_batch
from repro.network.traffic import PoissonBurstGenerator
from repro.testing import ks_two_sample
from repro.workloads import random_online_instance

#: Columns shared by many steps (so a block holds a column more than once).
HUBS = 4

#: The level of both statistical tests, fixed before they were first run.
ALPHA = 0.001

#: Upper ``ALPHA`` quantiles of the chi-square distribution by degrees of
#: freedom (``scipy.stats.chi2.ppf(1 - 0.001, df)``, rounded up).
CHI2_CRITICAL = {4: 18.468, 9: 27.878}

LARGEST_BELOW_ONE = 1.0 - 2.0**-53


def _synthetic_steps(seed):
    """Steps of every width 0..12 with every capacity from 1 to ``w + 1``.

    Capacity ``w + 1`` (and ``w``) takes every parent; width 0 is a step
    with no parents.  Every step owns fresh columns, except that steps of
    width >= 2 swap one of them for one of :data:`HUBS` shared columns.
    Returns the ``(columns, capacity)`` steps and the column count.
    """
    rng = random.Random(seed)
    shapes = [(width, cap) for width in range(13) for cap in range(1, width + 2)]
    rng.shuffle(shapes)
    steps, fresh = [], HUBS
    for width, capacity in shapes:
        columns = list(range(fresh, fresh + width))
        fresh += width
        if width >= 2:
            columns[rng.randrange(width)] = rng.randrange(HUBS)
        steps.append((columns, capacity))
    return steps, fresh


def _compiled(steps, num_columns):
    """The step CSR the replay reads (all of a compiled instance it needs)."""
    widths = [len(columns) for columns, _ in steps]
    return SimpleNamespace(
        step_indptr=np.concatenate([[0], np.cumsum(widths)]).astype(np.int64),
        step_parents=np.array([c for columns, _ in steps for c in columns], dtype=np.int64),
        step_capacities=np.array([capacity for _, capacity in steps], dtype=np.int64),
        num_sets=num_columns,
    )


def _oracle(steps, num_columns, rng):
    """One trial through the reference ``decide``: the surviving columns."""
    algorithm = UniformRandomAlgorithm()
    algorithm.start({}, rng)
    alive = np.ones(num_columns, dtype=bool)
    for step, (columns, capacity) in enumerate(steps):
        kept = algorithm.decide(ElementArrival(f"e{step}", capacity, tuple(columns)))
        assert len(kept) == min(capacity, len(columns))
        alive[[c for c in columns if c not in kept]] = False
    return alive


def test_synthetic_steps_cover_every_shape():
    steps, _ = _synthetic_steps(0)
    shapes = {(len(columns), min(cap, len(columns))) for columns, cap in steps}
    assert (0, 0) in shapes  # no parents
    assert {(w, t) for w, t in shapes if 1 < t < w}  # t > 1 drawing steps
    assert {(w, w) for w in range(1, 13)} <= shapes  # t == w


@pytest.mark.parametrize(
    "trials, step_block, trial_block",
    [(1, None, None), (7, None, None), (300, None, None), (300, 1, None),
     (300, 7, None), (9, None, 4), (9, 5, 1), (1, 1, None), (2, None, 1),
     (7, 2, 3), (64, 3, 16), (130, 64, 64)],
)
def test_replay_matches_scalar_decide(monkeypatch, trials, step_block, trial_block):
    if step_block is not None:
        monkeypatch.setattr(batch_module, "_UNIFORM_STEP_BLOCK", step_block)
    if trial_block is not None:
        monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", trial_block)
    steps, num_columns = _synthetic_steps(trials)
    seed = 1000 * trials + (step_block or 0)
    completed = batch_module._run_uniform_random(_compiled(steps, num_columns), trials, seed)
    for trial in range(trials):
        expected = _oracle(steps, num_columns, random.Random(seed + trial))
        assert np.array_equal(completed[trial], expected), f"trial {trial}"
        assert 0 < expected.sum() < num_columns


@pytest.mark.parametrize("seed", [-7, 0, 2**32 - 3, 2**64 + 12345])
def test_replay_matches_scalar_decide_across_seed_classes(seed):
    """Trial ``b`` replays ``random.Random(seed + b)`` for negative seeds
    (CPython seeds with ``abs``), zero, a trial range straddling the
    two-word seeding keys at ``2**32``, and a three-word key."""
    steps, num_columns = _synthetic_steps(abs(seed) % 97)
    completed = batch_module._run_uniform_random(_compiled(steps, num_columns), 6, seed)
    for trial in range(6):
        expected = _oracle(steps, num_columns, random.Random(seed + trial))
        assert np.array_equal(completed[trial], expected), f"trial {trial}"


def _scalar_fisher_yates(values, width):
    """The positions a partial Fisher–Yates over ``width`` positions keeps,
    one value per pick (the contract, restated on Python scalars)."""
    positions = list(range(width))
    for i, value in enumerate(values):
        j = i + int(value * (width - i))
        positions[i], positions[j] = positions[j], positions[i]
    return positions[: len(values)]


@pytest.mark.parametrize(
    "width, capacity",
    [(0, 1), (1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (5, 1), (5, 3), (5, 4),
     (5, 5), (5, 9), (12, 1), (12, 6), (12, 11), (12, 12)],
)
def test_decide_reads_a_fixed_number_of_draws(width, capacity):
    """An arrival reads exactly ``t = min(b(u), w)`` ``random()`` values when
    ``t < w`` and none when ``t == w``, whatever the values are, so the next
    arrival's draws start at an offset the instance fixes.  The kept set is
    the Fisher–Yates prefix of those values."""
    parents = tuple(f"p{k}" for k in range(width))
    take = min(capacity, width)
    draws = take if take < width else 0
    for seed in range(20):
        rng = random.Random(seed)
        algorithm = UniformRandomAlgorithm()
        algorithm.start({}, rng)
        kept = algorithm.decide(ElementArrival("u", capacity, parents))
        mirror = random.Random(seed)
        values = [mirror.random() for _ in range(draws)]
        assert rng.getstate() == mirror.getstate()
        if draws:
            assert kept == {parents[p] for p in _scalar_fisher_yates(values, width)}
        else:
            assert kept == set(parents)


@pytest.mark.parametrize(
    "width, take", [(2, 1), (5, 1), (5, 2), (5, 4), (12, 1), (12, 5), (12, 11)]
)
def test_fisher_yates_kernel_matches_the_scalar_shuffle(width, take):
    """``_fisher_yates_kept`` (its one-draw shortcut and its swap loop) keeps
    the positions the scalar shuffle keeps, lane by lane, including draws of
    ``0.0`` and of the largest double below 1."""
    uniforms = np.random.RandomState(100 * width + take).random_sample((3, take, 40))
    uniforms[0, :, 0] = 0.0
    uniforms[0, :, 1] = LARGEST_BELOW_ONE
    kept = batch_module._fisher_yates_kept(uniforms, width)
    assert kept.shape == (3, width, 40)
    for step in range(3):
        for lane in range(40):
            expected = np.zeros(width, dtype=bool)
            expected[_scalar_fisher_yates(uniforms[step, :, lane].tolist(), width)] = True
            assert np.array_equal(kept[step, :, lane], expected), (step, lane)


@pytest.mark.parametrize("step_block", [1, 7, 512])
def test_plan_lays_out_each_drawing_step_once_in_stream_order(monkeypatch, step_block):
    """The plan holds every step with ``t < w`` once, in step order: each
    block's draw rows are ``0 .. draws - 1`` with a step's ``t`` rows
    consecutive, and no block is empty."""
    monkeypatch.setattr(batch_module, "_UNIFORM_STEP_BLOCK", step_block)
    steps, num_columns = _synthetic_steps(step_block)
    plan = batch_module._uniform_random_plan(_compiled(steps, num_columns))
    drawing = [(columns, min(cap, len(columns))) for columns, cap in steps
               if min(cap, len(columns)) < len(columns)]
    laid_out = []
    for draws, groups in plan:
        assert draws > 0
        rows = np.concatenate([group_rows.ravel() for group_rows, _ in groups])
        assert sorted(rows.tolist()) == list(range(draws))
        block = []
        for group_rows, columns in groups:
            assert (np.diff(group_rows, axis=1) == 1).all()
            block += [(int(r[0]), c.tolist(), len(r)) for r, c in zip(group_rows, columns)]
        laid_out += [(columns, take) for _, columns, take in sorted(block)]
    assert laid_out == drawing
    if step_block == 1:  # every drawing step has w >= 2 parents
        assert len(plan) == len(drawing)


@pytest.fixture(autouse=True)
def _no_cached_draw_table():
    """Start every test with an empty draw-table cache: a table an earlier
    test left at the same ``(seed, trials)`` would serve the replay's draws
    and bypass a patched ``WordStreams.random``."""
    rng_bridge.clear_uniform_cache()
    yield
    rng_bridge.clear_uniform_cache()


def test_steps_that_keep_every_parent_read_no_draws(monkeypatch):
    """With ``t == w`` at every step there is nothing to draw: the plan is
    empty, no stream is read, and every set survives."""
    steps = [([0, 1], 2), ([2], 1), ([1, 3, 4], 5), ([], 1)]
    compiled = _compiled(steps, 5)
    assert batch_module._uniform_random_plan(compiled) == []

    def no_reads(self, count):  # pragma: no cover - guard
        raise AssertionError("a step that keeps every parent read a draw")

    monkeypatch.setattr(WordStreams, "random", no_reads)
    assert batch_module._run_uniform_random(compiled, 4, 0).all()


class _ConstantRandom:
    """An RNG whose every ``random()`` value is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("value", [0.0, LARGEST_BELOW_ONE])
def test_draws_at_the_ends_of_the_unit_interval(monkeypatch, value):
    """``int(u * n) < n`` for every double ``u < 1`` and ``n < 2**53``, so
    even the largest draw picks a valid position (the last one left)."""
    assert all(int(value * n) == (n - 1 if value else 0) for n in range(1, 13))
    reads = []

    def constant(self, count):
        reads.append(count)
        return np.full((self.trials, count), value)

    monkeypatch.setattr(WordStreams, "random", constant)
    steps, num_columns = _synthetic_steps(3)
    completed = batch_module._run_uniform_random(_compiled(steps, num_columns), 5, 0)
    assert reads  # the draws came from the patched stream
    expected = _oracle(steps, num_columns, _ConstantRandom(value))
    assert (completed == expected).all()


def test_block_boundaries_are_invisible_on_an_instance_and_a_trace(monkeypatch):
    instance = random_online_instance(40, 30, (2, 4), random.Random(5))
    trace = compile_trace(PoissonBurstGenerator().generate(300, random.Random(3)))
    algorithm = UniformRandomAlgorithm()
    default = (
        simulate_batch(instance, algorithm, trials=9, seed=17),
        simulate_trace_batch(trace, algorithm, trials=9, seed=17),
    )
    monkeypatch.setattr(batch_module, "_UNIFORM_STEP_BLOCK", 3)
    monkeypatch.setattr(rng_bridge, "_TRIAL_BLOCK", 4)
    assert len(batch_module._uniform_random_plan(trace)) > 1
    blocked = (
        simulate_batch(instance, algorithm, trials=9, seed=17),
        simulate_trace_batch(trace, algorithm, trials=9, seed=17),
    )
    for whole, split in zip(default, blocked):
        assert whole.equals(split)


def test_frozen_contract_pin():
    """The fixed-draw contract's completed sets, frozen.  They move only if
    the contract (or the generator under it) does, and either must be a
    deliberate change."""
    builder = InstanceBuilder(name="fixed-draw-pin")
    for parents, capacity in [("AB", 1), ("CD", 1), ("EFG", 2), ("AC", 1),
                              ("GH", 2), ("BDFH", 1), ("EH", 1)]:
        builder.add_element(list(parents), capacity=capacity)
    instance = builder.build()
    batch = simulate_batch(instance, UniformRandomAlgorithm(), trials=3, seed=2024)
    pinned = [batch.completed_sets(trial) for trial in range(3)]
    assert pinned == [{"A", "E", "G"}, {"H"}, {"A", "G"}]
    reference = simulate_many(instance, UniformRandomAlgorithm(), trials=3, seed=2024)
    assert pinned == [result.completed_sets for result in reference]


def _chi_square(counts):
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def test_per_arrival_choice_frequencies_are_uniform_subsets():
    """At 10**5 trials every ``t``-subset of a step's parents is chosen with
    frequency ``1 / C(w, t)``: one ``t == 1`` step (5 parents) and one
    ``t == 2`` step (5 parents) whose draws follow it in the stream.  Each
    set has one element, so the completed sets are the choices."""
    builder = InstanceBuilder(name="choices")
    builder.add_element(["A", "B", "C", "D", "E"])
    builder.add_element(["F", "G", "H", "I", "J"], capacity=2)
    batch = simulate_batch(builder.build(), UniformRandomAlgorithm(), trials=10**5, seed=8)
    completed = batch.completed
    single = completed[:, :5]
    assert (single.sum(axis=1) == 1).all()
    counts = np.bincount(single.argmax(axis=1), minlength=5)
    assert _chi_square(counts) < CHI2_CRITICAL[4], counts
    double = completed[:, 5:]
    assert (double.sum(axis=1) == 2).all()
    codes = double.astype(np.int64) @ (1 << np.arange(5))  # one per 2-subset
    subsets, counts = np.unique(codes, return_counts=True)
    assert subsets.size == 10
    assert _chi_square(counts) < CHI2_CRITICAL[9], counts


def _sample_policy_benefits(instance, trials, seed):
    """The earlier uniform-random policy: one ``random.sample`` per arrival."""
    weights = {set_id: instance.system.weight(set_id) for set_id in instance.system.set_ids}
    arrivals = list(instance.arrivals())
    benefits = []
    for trial in range(trials):
        rng = random.Random(seed + trial)
        alive = dict.fromkeys(weights, True)
        for arrival in arrivals:
            take = min(arrival.capacity, len(arrival.parents))
            kept = set(rng.sample(list(arrival.parents), take)) if take else set()
            for parent in arrival.parents:
                if parent not in kept:
                    alive[parent] = False
        benefits.append(sum(weights[s] for s, live in alive.items() if live))
    return benefits


def test_benefits_match_the_sample_policy():
    """The fixed-draw contract is the same policy as ``random.sample``: a
    two-sample KS on per-trial benefits does not reject at :data:`ALPHA`."""
    instance = random_online_instance(30, 40, (2, 4), random.Random(7))
    fixed_draw = simulate_batch(instance, UniformRandomAlgorithm(), trials=4000, seed=0)
    sample = _sample_policy_benefits(instance, 4000, seed=10**6)
    assert 0 < np.mean(sample) < sum(instance.system.weight(s) for s in instance.system.set_ids)
    result = ks_two_sample(fixed_draw.benefits, sample)
    assert not result.rejects(ALPHA), result
