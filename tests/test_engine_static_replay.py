"""The one static-priority replay path shared by the batch, streaming and
fast engines.

Every engine resolves static-priority trials through the same two pieces of
:mod:`repro.engine.batch`: :func:`_contested_groups` (the contested steps of a
step range, grouped by width and capacity) and :func:`_drop_losers` (the
batched selection that clears each group's losers).  The batch engine calls
them once over the whole instance with the identity slot map, the streaming
engine once per time window through its row pool's slot map, and the fast
engine once per trial block on float32 keys.  The priorities themselves come
from one per-kind rule, :func:`~repro.engine.specs.priority_columns`, fed by
the whole-instance draw table or by chunked streams.

This suite pins those pieces against their plain per-step definitions, so
the differential suites can rely on them:

* the grouped steps of any step range are exactly its contested steps;
* the kernel equals a scalar per-trial, per-step stable argsort — ties
  included — and is invariant under any slot map;
* column blocks of ``priority_columns`` concatenate to ``priority_matrix``,
  bit for bit, for every static kind and any block split;
* a :class:`~repro.engine.streaming.CompiledTrace` is a compiled instance:
  ``simulate_batch`` on it equals the streaming engine for every kind;
* the fast engine's float32 compilation runs through the same kernel but is
  refused by the exact engines.

The kernel works column-major (a running minimum over each group's parent
positions, losers cleared in runs of distinct columns), so its edge cases get
their own hand-built instances: one set at the same position in two steps of
a group, exact key ties across positions, groups wider than the trace's
widest, and C- versus Fortran-ordered inputs.
"""

import random
import warnings

import numpy as np
import pytest

from repro.core import OnlineInstance, SetSystem
from repro.engine import rng as rng_bridge
from repro.engine.batch import (
    _contested_groups,
    _drop_losers,
    _run_static,
    simulate_batch,
)
from repro.engine.compile import compile_instance, compile_instance_fast
from repro.engine.fast import simulate_fast
from repro.engine.specs import (
    STATIC_PRIORITY_KINDS,
    SUPPORTED_KINDS,
    UNIFORM_DRAW_KINDS,
    AlgorithmSpec,
    priority_columns,
    priority_matrix,
)
from repro.engine.streaming import compile_trace, simulate_trace_batch
from repro.network.traffic import PoissonBurstGenerator, VideoTraceGenerator
from repro.workloads import (
    random_online_instance,
    random_variable_capacity_instance,
    random_weighted_instance,
)

SEED = 31


def _compiled_instances():
    return [
        compile_instance(random_online_instance(18, 28, (2, 4), random.Random(0))),
        compile_instance(
            random_weighted_instance(
                16, 24, (2, 4), random.Random(1), weight_range=(1.0, 6.0)
            )
        ),
        compile_instance(
            random_variable_capacity_instance(14, 22, (2, 4), (1, 3), random.Random(2))
        ),
        compile_trace(
            VideoTraceGenerator(num_flows=2, link_capacity=2, id_pad=4).generate(
                4, random.Random(3)
            )
        ),
    ]


COMPILED = _compiled_instances()


def _contested_steps(compiled, start, stop):
    """The plain definition: (capacity, parent columns) per contested step."""
    steps = []
    for step in range(start, stop):
        columns = compiled.step_parents[
            compiled.step_indptr[step] : compiled.step_indptr[step + 1]
        ]
        capacity = int(compiled.step_capacities[step])
        if len(columns) > capacity:
            steps.append((capacity, tuple(columns.tolist())))
    return sorted(steps)


def _scalar_static(compiled, keys):
    """One trial at a time, one contested step at a time: the losers of a
    stable argsort of the step's keys are not completed."""
    completed = np.ones((keys.shape[0], compiled.num_sets), dtype=bool)
    for row in range(keys.shape[0]):
        for capacity, columns in _contested_steps(compiled, 0, compiled.num_steps):
            columns = np.asarray(columns)
            order = np.argsort(keys[row, columns], kind="stable")
            completed[row, columns[order[capacity:]]] = False
    return completed


@pytest.mark.parametrize("index", range(len(COMPILED)))
def test_groups_are_exactly_the_contested_steps_of_any_range(index):
    compiled = COMPILED[index]
    n = compiled.num_steps
    rng = random.Random(index)
    ranges = [(0, n), (0, 0), (n, n)]
    ranges += [tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(8)]
    for start, stop in ranges:
        grouped = sorted(
            (capacity, tuple(row))
            for capacity, columns in _contested_groups(compiled, start, stop)
            for row in columns.tolist()
        )
        assert grouped == _contested_steps(compiled, start, stop)


@pytest.mark.parametrize("index", range(len(COMPILED)))
def test_kernel_matches_the_scalar_step_loop_with_ties(index):
    """Keys drawn from a tiny range force ties, so the lowest-column
    tie-break (argmin's first minimum, the stable argsort) is exercised."""
    compiled = COMPILED[index]
    keys = np.random.default_rng(index).integers(0, 3, (7, compiled.num_sets))
    keys = keys.astype(np.float64)
    assert np.array_equal(_run_static(compiled, keys), _scalar_static(compiled, keys))


@pytest.mark.parametrize("index", range(len(COMPILED)))
def test_kernel_is_invariant_under_any_slot_map(index):
    """The streaming row pool stores column j's keys at slot_of[j]; any
    permutation (with spare slots) must replay identically."""
    compiled = COMPILED[index]
    m = compiled.num_sets
    keys = np.random.default_rng(index).random((5, m))
    slot_of = np.random.default_rng(index + 100).permutation(m + 4)[:m]
    pooled = np.full((5, m + 4), np.nan)
    pooled[:, slot_of] = keys
    completed = np.ones((5, m), dtype=bool)
    _drop_losers(pooled, _contested_groups(compiled), completed, slot_of)
    assert np.array_equal(completed, _run_static(compiled, keys))


@pytest.mark.parametrize(
    "spec",
    [AlgorithmSpec(kind) for kind in sorted(STATIC_PRIORITY_KINDS)]
    + [AlgorithmSpec("randPr-hashed", salt="pinned")],
    ids=repr,
)
def test_column_blocks_concatenate_to_the_priority_matrix(spec):
    compiled = COMPILED[1]
    m, trials = compiled.num_sets, 6
    rng = random.Random(SEED)
    cuts = sorted(rng.sample(range(1, m), 3))
    streams = rng_bridge.WordStreams(SEED, trials)
    salts = None
    if spec.kind == "randPr-hashed" and spec.salt is None:
        salts = rng_bridge.getrandbits64(SEED, trials)
    blocks = []
    for start, stop in zip([0] + cuts, cuts + [m]):
        uniforms = streams.random(stop - start) if spec.kind in UNIFORM_DRAW_KINDS else None
        blocks.append(priority_columns(spec, compiled, start, stop, uniforms, salts))
    chunked = np.concatenate(blocks, axis=1)
    whole = priority_matrix(spec, compiled, trials, SEED)
    assert chunked.shape == whole.shape
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("kind", sorted(SUPPORTED_KINDS))
def test_simulate_batch_on_a_compiled_trace_equals_the_stream(kind):
    """One whole-trace window (simulate_batch) and many small windows
    (simulate_trace_batch) replay every kind identically."""
    compiled = compile_trace(PoissonBurstGenerator().generate(60, random.Random(5)))
    whole = simulate_batch(compiled, kind, trials=5, seed=SEED)
    streamed = simulate_trace_batch(compiled, kind, trials=5, seed=SEED, window_slots=7)
    assert whole.equals(streamed)


def test_exact_engines_refuse_the_fast_view():
    """The fast compilation shares the replay kernels, but its float32
    exponents cannot reproduce the reference draws: the exact engines (and
    the fast engine's exact delegation) refuse it rather than run it."""
    instance = random_online_instance(10, 14, (2, 3), random.Random(4))
    fast = compile_instance_fast(instance)
    assert simulate_fast(fast, "randPr", trials=3, seed=SEED).trials == 3
    with pytest.raises(TypeError):
        simulate_batch(fast, "randPr", trials=3, seed=SEED)
    with pytest.raises(TypeError):
        simulate_fast(fast, "greedy-weight", trials=3, seed=SEED)


def test_fast_view_clamps_exponents_into_float32():
    """A subnormal weight's exponent 1/w exceeds float32's range; the fast
    view clamps it to the largest finite float32 instead of overflowing to
    inf with a RuntimeWarning, and in-range exponents narrow unchanged."""
    system = SetSystem({"A": ["u"], "B": ["u"]}, weights={"A": 1e-45, "B": 2.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = compile_instance_fast(OnlineInstance(system))
        result = simulate_fast(fast, "randPr", trials=8, seed=SEED)
    assert fast.priority_exponents.tolist() == [np.finfo(np.float32).max, 0.5]
    assert result.completed_sets(0) == frozenset({"B"})


def _hand_built(sets, capacities=None):
    return compile_instance(OnlineInstance(SetSystem(sets, capacities=capacities)))


def test_one_set_at_the_same_position_in_two_steps_of_a_group():
    """Set "A" is position 0 of both width-2 steps ("u": A/B, "v": A/C), so
    the group clears column 0 twice; losing either step must drop it,
    whichever step the clearing visits last."""
    compiled = _hand_built({"A": ["u", "v"], "B": ["u"], "C": ["v"]})
    (capacity, columns), = _contested_groups(compiled)
    assert capacity == 1 and columns[:, 0].tolist() == [0, 0]
    keys = np.array(
        [[1.0, 0.0, 2.0], [1.0, 2.0, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]]
    )
    expected = [[False, True, False], [False, False, True],
                [True, False, False], [False, True, True]]
    assert _run_static(compiled, keys).tolist() == expected
    assert np.array_equal(_run_static(compiled, keys), _scalar_static(compiled, keys))


def test_repeated_targets_with_capacity_above_one():
    """The same repeat inside a capacity-2 group (the _select_top path)."""
    compiled = _hand_built(
        {"A": ["u", "v"], "B": ["u"], "C": ["u"], "D": ["v"], "E": ["v"]},
        capacities={"u": 2, "v": 2},
    )
    keys = np.random.default_rng(5).integers(0, 3, (40, 5)).astype(np.float64)
    assert np.array_equal(_run_static(compiled, keys), _scalar_static(compiled, keys))


def test_exact_key_ties_go_to_the_lower_position():
    """Every key equal: each contested step keeps its first parent only, so
    a set survives exactly when it is first in every contested step ("C"
    loses "v" to "B", which loses "u" to "A")."""
    compiled = _hand_built(
        {"A": ["u"], "B": ["u", "v"], "C": ["v", "w"], "D": ["w"], "E": ["x"]}
    )
    keys = np.zeros((3, compiled.num_sets))
    assert _run_static(compiled, keys).tolist() == [[True, False, False, False, True]] * 3
    keys[1, 2] = -1.0  # C now beats B at "v" outright; the "w" tie stays C's
    keys[2, :] = [0.5, 0.5, 0.5, 0.5, 0.5]
    keys[2, 3] = 0.5 - 2.0 ** -53  # a one-ulp win for D at "w"
    assert np.array_equal(_run_static(compiled, keys), _scalar_static(compiled, keys))
    assert _run_static(compiled, keys)[1].tolist() == [True, False, True, False, True]
    assert _run_static(compiled, keys)[2].tolist() == [True, False, False, True, True]


@pytest.mark.parametrize("width", [11, 12, 300])
def test_wide_groups_match_the_scalar_step_loop(width):
    """Widths at and past the trace's widest (11), and past 255, where the
    winning position no longer fits one byte."""
    sets = {f"s{j:03d}": ["hub", "rim", f"own{j}"] for j in range(width)}
    sets["lone"] = ["rim"]
    compiled = _hand_built(sets, capacities={"rim": 2})
    assert {columns.shape[1] for _, columns in _contested_groups(compiled)} == {
        width, width + 1
    }
    keys = np.random.default_rng(width).integers(0, 4, (9, compiled.num_sets))
    keys = keys.astype(np.float64)
    assert np.array_equal(_run_static(compiled, keys), _scalar_static(compiled, keys))


@pytest.mark.parametrize("index", range(len(COMPILED)))
def test_key_and_mask_layouts_replay_identically(index):
    """Fortran order is the kernel's zero-copy layout and C order a copy;
    both, for keys and for the completed mask, give the same mask."""
    compiled = COMPILED[index]
    m = compiled.num_sets
    keys = np.random.default_rng(index).integers(0, 3, (6, m)).astype(np.float64)
    slot_of = np.random.default_rng(index + 7).permutation(m)
    pooled = np.empty_like(keys)
    pooled[:, slot_of] = keys
    expected = _scalar_static(compiled, keys)
    groups = _contested_groups(compiled)
    for key_layout in (np.ascontiguousarray, np.asfortranarray):
        for order in "CF":
            for slots, table in ((None, keys), (slot_of, pooled)):
                completed = np.ones((6, m), dtype=bool, order=order)
                _drop_losers(key_layout(table), groups, completed, slots)
                assert np.array_equal(completed, expected)
