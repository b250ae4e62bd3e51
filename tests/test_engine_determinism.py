"""Seed-determinism regression tests for both simulation engines.

``simulate_batch(..., seed=s)`` must be a pure function of its arguments:
identical results across repeated calls in one process *and* across process
boundaries (no hidden dependence on the global RNG, hash randomization, or
call ordering).  The same holds for ``simulate_many``.  The suite also pins
the trial-isolation contract behind the ``simulate_many`` hoisting: reusing
one algorithm object across trials must not leak state between trials.
"""

import random
import subprocess
import sys

import numpy as np

from repro.algorithms import GreedyProgressAlgorithm, RandPrAlgorithm
from repro.core import simulate, simulate_batch, simulate_many
from repro.workloads import random_weighted_instance

_INSTANCE_ARGS = (18, 26, (2, 4), 123, (1.0, 6.0))


def _instance():
    num_sets, num_elements, size_range, seed, weight_range = _INSTANCE_ARGS
    return random_weighted_instance(
        num_sets, num_elements, size_range, random.Random(seed), weight_range=weight_range
    )


def test_simulate_batch_is_deterministic_within_process():
    instance = _instance()
    first = simulate_batch(instance, "randPr", trials=12, seed=99)
    second = simulate_batch(instance, "randPr", trials=12, seed=99)
    assert first.equals(second)
    # The global RNG must play no role: perturb it and run again.
    random.seed(31337)
    third = simulate_batch(instance, "randPr", trials=12, seed=99)
    assert first.equals(third)


def test_simulate_many_is_deterministic_within_process():
    instance = _instance()
    first = simulate_many(instance, RandPrAlgorithm(), trials=6, seed=99)
    random.seed(54321)
    second = simulate_many(instance, RandPrAlgorithm(), trials=6, seed=99)
    assert [r.completed_sets for r in first] == [r.completed_sets for r in second]
    assert [r.benefit for r in first] == [r.benefit for r in second]


_SUBPROCESS_SCRIPT = """
import random
from repro.core import simulate_batch, simulate_many
from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm
from repro.workloads import random_weighted_instance

instance = random_weighted_instance(18, 26, (2, 4), random.Random(123), weight_range=(1.0, 6.0))
batch = simulate_batch(instance, "randPr", trials=12, seed=99)
reference = simulate_many(instance, RandPrAlgorithm(), trials=6, seed=99)
uniform = simulate_batch(instance, UniformRandomAlgorithm(), trials=12, seed=99)
print(repr([float(b) for b in batch.benefits]))
print(repr([int(c) for c in batch.completed_counts]))
print(repr(sorted(map(repr, batch.completed_sets(0)))))
print(repr([r.benefit for r in reference]))
print(repr(sorted(map(repr, reference[0].completed_sets))))
print(repr([float(b) for b in uniform.benefits]))
"""


def _run_in_subprocess():
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout.strip().splitlines()


def test_results_are_reproducible_across_processes():
    """Fresh interpreters (fresh hash seeds, fresh global RNGs) agree exactly."""
    from repro.algorithms import UniformRandomAlgorithm

    instance = _instance()
    batch = simulate_batch(instance, "randPr", trials=12, seed=99)
    reference = simulate_many(instance, RandPrAlgorithm(), trials=6, seed=99)
    uniform = simulate_batch(instance, UniformRandomAlgorithm(), trials=12, seed=99)

    lines = _run_in_subprocess()
    assert lines[0] == repr([float(b) for b in batch.benefits])
    assert lines[1] == repr([int(c) for c in batch.completed_counts])
    assert lines[2] == repr(sorted(map(repr, batch.completed_sets(0))))
    assert lines[3] == repr([r.benefit for r in reference])
    assert lines[4] == repr(sorted(map(repr, reference[0].completed_sets)))
    assert lines[5] == repr([float(b) for b in uniform.benefits])


def test_algorithm_state_does_not_leak_between_trials():
    """Trial t of simulate_many == a fresh algorithm run with Random(seed + t).

    ``simulate_many`` reuses one algorithm object across trials (and, after
    the hoisting, one set_infos mapping); ``algorithm.start`` must fully
    reset the internal state so that no trial sees a predecessor's leftovers.
    """
    instance = _instance()
    for algorithm_factory in (RandPrAlgorithm, GreedyProgressAlgorithm):
        shared = algorithm_factory()
        results = simulate_many(instance, shared, trials=5, seed=17)
        for trial, pooled in enumerate(results):
            fresh = simulate(
                instance, algorithm_factory(), rng=random.Random(17 + trial)
            )
            assert pooled.completed_sets == fresh.completed_sets
            assert pooled.benefit == fresh.benefit


def test_shared_set_infos_is_not_mutated():
    """The hoisted set_infos mapping survives a full simulate_many unchanged."""
    instance = _instance()
    infos = instance.set_infos()
    snapshot = dict(infos)
    simulate_many(instance, GreedyProgressAlgorithm(), trials=3, seed=5)
    assert instance.set_infos() == snapshot


def test_batch_result_arrays_are_consistent():
    instance = _instance()
    result = simulate_batch(instance, "randPr", trials=9, seed=2)
    assert result.completed.shape == (9, instance.system.num_sets)
    assert np.array_equal(
        result.completed_counts, result.completed.sum(axis=1)
    )
    recomputed = [
        sum(instance.system.weight(set_id) for set_id in result.completed_sets(trial))
        for trial in range(9)
    ]
    assert np.allclose(result.benefits, recomputed)


def test_rng_bridge_frozen_values():
    """Golden pins for the RNG bridge: CPython guarantees ``random.Random``'s
    sequence is stable across versions, so these literals only change if the
    bridge (or that guarantee) breaks — either deserves a loud failure."""
    from repro.engine import clear_uniform_cache, uniform_matrix

    clear_uniform_cache()
    table = uniform_matrix(0, trials=2, draws=3)
    assert table[0].tolist() == [
        0.8444218515250481,
        0.7579544029403025,
        0.420571580830845,
    ]
    assert table[1].tolist() == [
        0.13436424411240122,
        0.8474337369372327,
        0.763774618976614,
    ]
    live = random.Random(1)
    assert table[1].tolist() == [live.random() for _ in range(3)]


def test_word_stream_frozen_values():
    """Golden pins for the raw word-stream layer (the 32-bit outputs under
    ``random()`` and ``getrandbits``): same stability argument as the
    draw-table pins above — these literals only move if CPython's generator
    or the bridge's replay breaks, and either must fail loudly."""
    from repro.engine import WordStreams

    words = WordStreams(seed=0, trials=2)
    table = words._generate(np.empty((3, 2), dtype=np.uint32)).T
    assert table[0].tolist() == [3626764237, 1654615998, 3255389356]
    assert table[1].tolist() == [577090037, 2444712010, 3639700191]
    live = random.Random(1)
    assert table[1].tolist() == [live.getrandbits(32) for _ in range(3)]

    streams = WordStreams(seed=0, trials=2)
    # getrandbits(8) returns the top 8 bits of each raw word.
    first = streams._generate(np.empty((1, 2), dtype=np.uint32))[0]
    assert (first >> 24).tolist() == [3626764237 >> 24, 577090037 >> 24]
    second = streams._generate(np.empty((1, 2), dtype=np.uint32))[0]
    assert second.tolist() == [1654615998, 2444712010]


def test_uniform_random_batch_is_deterministic_within_process():
    """The word-stream replay (per-arrival randomness) is as pure a function
    of its arguments as the static-priority path."""
    from repro.algorithms import UniformRandomAlgorithm

    instance = _instance()
    first = simulate_batch(instance, UniformRandomAlgorithm(), trials=10, seed=41)
    random.seed(777)  # the global RNG must play no role
    second = simulate_batch(instance, UniformRandomAlgorithm(), trials=10, seed=41)
    assert first.equals(second)


def test_priority_matrix_is_reproducible_across_processes():
    """The bridge path (vectorized seeding + exact pow) has no hidden
    process-local state: a child process computes the identical matrix."""
    script = (
        "import random, hashlib\n"
        "import numpy as np\n"
        "from repro.engine import AlgorithmSpec, priority_matrix\n"
        "from repro.engine.compile import compile_instance\n"
        "from repro.workloads import random_weighted_instance\n"
        "instance = random_weighted_instance(18, 26, (2, 4), random.Random(123),\n"
        "                                    weight_range=(1.0, 6.0))\n"
        "matrix = priority_matrix(AlgorithmSpec('randPr'),\n"
        "                         compile_instance(instance), 8, 99)\n"
        "print(hashlib.sha256(matrix.tobytes()).hexdigest())\n"
    )
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "random"
    digests = set()
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    import hashlib

    from repro.engine import AlgorithmSpec, priority_matrix
    from repro.engine.compile import compile_instance
    from repro.workloads import random_weighted_instance

    instance = random_weighted_instance(
        18, 26, (2, 4), random.Random(123), weight_range=(1.0, 6.0)
    )
    local = priority_matrix(AlgorithmSpec("randPr"), compile_instance(instance), 8, 99)
    digests.add(hashlib.sha256(local.tobytes()).hexdigest())
    assert len(digests) == 1
