"""Structural and determinism invariants of the fast statistical engine.

The equivalence suite (``test_engine_fast_equivalence.py``) certifies that
fast results have the right *distribution*; this suite certifies that every
individual fast trial is still a *legal* OSP outcome, and that the
counter-based RNG delivers the portability the design promises:

* **protocol invariants** on hypothesis-generated systems — every trial's
  completed sets form a capacity-feasible packing, benefits are the exact
  weight sums of the completed sets (never negative), and on small
  instances no trial beats the exact offline optimum;
* **counter-based determinism** — fast results are a pure function of
  ``(instance, spec, seed + trial)``: independent of blocking, immune to
  the global RNG and ``PYTHONHASHSEED``, and bit-identical in a fresh
  interpreter (the same certificate the exact engines earn in
  ``test_engine_determinism.py`` / ``test_router_streaming_determinism.py``).
"""

import math
import random
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import OnlineInstance, SetSystem
from repro.engine import simulate_fast, trial_generator
from repro.engine.fast import fast_uniforms
from repro.offline.exact import solve_exact
from repro.workloads import random_weighted_instance


@st.composite
def small_systems(draw):
    """A random small weighted set system with variable capacities.

    The same shape as ``test_engine_properties.small_systems`` — the fast
    engine must satisfy the identical protocol obligations on the identical
    adversarially-shrunk input space.
    """
    num_sets = draw(st.integers(min_value=1, max_value=6))
    num_elements = draw(st.integers(min_value=1, max_value=8))
    elements = [f"u{i}" for i in range(num_elements)]
    sets = {}
    for index in range(num_sets):
        members = draw(
            st.lists(st.sampled_from(elements), unique=True, max_size=num_elements)
        )
        sets[f"S{index}"] = members
    weights = {
        set_id: draw(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=32)
        )
        for set_id in sets
    }
    used = {element for members in sets.values() for element in members}
    capacities = {
        element: draw(st.integers(min_value=1, max_value=3)) for element in sorted(used)
    }
    system = SetSystem(sets, weights=weights, capacities=capacities)
    order = list(system.element_ids)
    draw(st.randoms(use_true_random=False)).shuffle(order)
    return OnlineInstance(system, order, name="hypothesis")


@settings(max_examples=60, deadline=None)
@given(instance=small_systems(), seed=st.integers(min_value=0, max_value=2**16))
def test_fast_completed_sets_form_a_feasible_packing(instance, seed):
    """No element is ever oversubscribed by a fast trial's completed sets."""
    result = simulate_fast(instance, "randPr", trials=4, seed=seed)
    for trial in range(result.trials):
        chosen = result.completed_sets(trial)
        assert instance.system.is_feasible_packing(chosen)


#: Three completed sets whose float64 sum depends on the summation order
#: (2**-52 sits exactly on half an ulp of the middle weight): a plain ``sum``
#: over ``completed_sets`` — a frozenset, iterated in string-hash order —
#: disagreed with the engine's matmul in the last bit under some
#: ``PYTHONHASHSEED`` values.
_ORDER_SENSITIVE_WEIGHTS = {
    "S0": 2.220446049250313e-16,
    "S1": 3.9655821323394775,
    "S2": 9.765708491066456e-32,
}


@settings(max_examples=60, deadline=None)
@example(
    instance=OnlineInstance(
        SetSystem(
            {set_id: [] for set_id in _ORDER_SENSITIVE_WEIGHTS},
            weights=_ORDER_SENSITIVE_WEIGHTS,
        ),
        name="order-sensitive",
    ),
    seed=0,
)
@given(instance=small_systems(), seed=st.integers(min_value=0, max_value=2**16))
def test_fast_benefits_are_exact_weight_sums(instance, seed):
    """Float32 stops at the priorities: each trial's benefit is the float64
    weight sum of its completed sets, and therefore never negative.

    Float64 addition is not associative, so the benefit is compared with the
    exactly rounded sum (``math.fsum``) to float64 precision, which no
    summation order can miss and float32 accumulation (~1e-7) cannot meet."""
    result = simulate_fast(instance, "uniform-priority", trials=4, seed=seed)
    for trial in range(result.trials):
        expected = math.fsum(
            instance.system.weight(set_id)
            for set_id in result.completed_sets(trial)
        )
        benefit = float(result.benefits[trial])
        assert math.isclose(benefit, expected, rel_tol=1e-12, abs_tol=0.0)
        assert benefit >= 0.0


def test_fast_benefit_never_exceeds_offline_opt():
    """Online fast benefit <= exact offline OPT, trial by trial."""
    for seed in range(6):
        instance = random_weighted_instance(
            10, 14, (2, 3), random.Random(seed), weight_range=(1.0, 5.0)
        )
        opt = solve_exact(instance.system)
        assert opt.is_optimal
        result = simulate_fast(instance, "randPr", trials=32, seed=seed)
        assert float(result.benefits.max()) <= opt.weight + 1e-9


@settings(max_examples=30, deadline=None)
@given(instance=small_systems(), seed=st.integers(min_value=0, max_value=2**16))
def test_fast_blocking_is_invisible(instance, seed):
    """Serial fast runs equal the concatenation of offset fast runs."""
    whole = simulate_fast(instance, "randPr", trials=7, seed=seed)
    head = simulate_fast(instance, "randPr", trials=3, seed=seed)
    tail = simulate_fast(instance, "randPr", trials=4, seed=seed + 3)
    np.testing.assert_array_equal(
        whole.benefits, np.concatenate([head.benefits, tail.benefits])
    )


def test_fast_immune_to_global_rng():
    """Perturbing the global ``random`` and numpy RNGs changes nothing."""
    instance = random_weighted_instance(
        16, 24, (2, 3), random.Random(1), weight_range=(1.0, 4.0)
    )
    first = simulate_fast(instance, "randPr", trials=8, seed=5)
    random.seed(999)
    np.random.seed(123)
    random.random()
    np.random.random(100)
    second = simulate_fast(instance, "randPr", trials=8, seed=5)
    assert first.equals(second)


_SUBPROCESS_SCRIPT = """
import random
from repro.engine import simulate_fast, trial_generator
from repro.engine.fast import fast_uniforms
from repro.workloads import random_weighted_instance

instance = random_weighted_instance(
    16, 24, (2, 3), random.Random(1), weight_range=(1.0, 4.0)
)
result = simulate_fast(instance, "randPr", trials=8, seed=5)
print(repr([float(b) for b in result.benefits]))
print(repr([int(c) for c in result.completed_counts]))
print(repr(sorted(map(str, result.completed_sets(0)))))
print(repr([round(float(x), 10) for x in trial_generator(7, 3).random(4)]))
print(repr([float(x) for x in fast_uniforms(7, 2, 3)[1]]))
"""


def test_fast_is_reproducible_across_processes():
    """A fresh interpreter (fresh hash seed, fresh global RNG) agrees bit
    for bit — the PCG64 states are SHA-256 functions of ``seed + trial``,
    nothing process-local leaks in."""
    instance = random_weighted_instance(
        16, 24, (2, 3), random.Random(1), weight_range=(1.0, 4.0)
    )
    result = simulate_fast(instance, "randPr", trials=8, seed=5)

    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines[0] == repr([float(b) for b in result.benefits])
    assert lines[1] == repr([int(c) for c in result.completed_counts])
    assert lines[2] == repr(sorted(map(str, result.completed_sets(0))))
    assert lines[3] == repr(
        [round(float(x), 10) for x in trial_generator(7, 3).random(4)]
    )
    assert lines[4] == repr([float(x) for x in fast_uniforms(7, 2, 3)[1]])


def test_trial_generator_streams_are_distinct_and_order_free():
    """Distinct trials own distinct streams; drawing them in any order (or
    skipping trials entirely) never changes a stream."""
    forward = [trial_generator(0, trial).random(3) for trial in range(6)]
    backward = [trial_generator(0, trial).random(3) for trial in reversed(range(6))]
    for trial in range(6):
        np.testing.assert_array_equal(forward[trial], backward[5 - trial])
    flat = np.concatenate(forward)
    assert len(np.unique(flat)) == len(flat)  # no stream collisions


def test_fast_uniforms_rows_match_trial_generator():
    """The blocked hot path replays the per-trial generator spec exactly."""
    block = fast_uniforms(42, 5, 8)
    for trial in range(5):
        np.testing.assert_array_equal(
            block[trial], trial_generator(42, trial).random(8, dtype=np.float32)
        )
    shifted = fast_uniforms(42, 3, 8, offset=2)
    np.testing.assert_array_equal(block[2:], shifted)
