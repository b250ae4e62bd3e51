"""The statistical ``engine="fast"`` backend: counter-based PCG64 trials.

Every other engine in this package (reference, batch, streaming) is
*bit-exact*: trial ``b`` replays ``random.Random(seed + b)``'s MT19937
stream draw for draw, which forces the draw-table LRU, the scalar
``exact_pow`` loop and the word-stream replay machinery of
:mod:`repro.engine.rng`.  The fast engine drops that contract for a
**statistical** one — its per-trial benefit *distribution* must match the
exact engines', but individual trials need not — and in exchange gets:

* **counter-based RNG**: trial ``b`` owns a ``numpy.random.Generator``
  over a ``PCG64`` whose raw 128-bit state is a pure function of
  ``seed + b`` through :func:`~repro.core.seeding.stable_seed`
  (SHA-256, process- and platform-stable).  No draw table, no shared
  stream, no cache: any subset of trials can be drawn independently, in
  any order, on any worker — trivially parallel by construction, and the
  ``seed + b`` convention keeps chunked runs bit-identical to serial
  *fast* runs (the same invariance the exact engines get from MT19937
  seeding);
* **float32 priorities** over the int32 CSR of
  :class:`~repro.engine.compile.FastCompiledInstance`: priorities only
  *order* sets, so float32 rounding merely perturbs near-ties — a
  statistical effect the equivalence suite budgets for — while halving
  the bandwidth of the dominant ``(trials, m)`` matrix.  Benefits are
  accumulated in float64 (a matmul against the float64 weights), so means
  stay accurate at production trial counts;
* **vectorized ``**``**: the ``R_w`` inverse-CDF transform runs as numpy's
  SIMD power kernel instead of the per-element libm loop the bit-exact
  contract forces on the batch engine.

The contract is enforced, not assumed: ``tests/test_engine_fast_equivalence.py``
runs two-sample KS tests on per-trial benefit distributions and CI-overlap
checks on mean benefits against the exact batch engine (with pre-registered
tolerances, and a deliberately-biased RNG stub that must be *rejected*),
and ``tests/test_engine_fast_statistics.py`` pins the feasibility/OPT/
determinism invariants.  Because results differ from the exact engines at
the bit level, ``engine="fast"`` participates in the persistent store under
its own cache key (see :func:`repro.experiments.store.unit_key`).

Only the randomized static-priority kinds get fast-path draws
(:func:`~repro.engine.specs.is_fast_vectorized`); deterministic specs,
the greedy family and ``uniform-random`` delegate to the exact batch
engine, whose output is trivially the right distribution.

>>> from repro.core import OnlineInstance, SetSystem
>>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
...                    weights={"A": 2.0, "B": 1.0})
>>> result = simulate_fast(OnlineInstance(system, name="demo"),
...                        "randPr", trials=64, seed=0)
>>> result.trials, 0.0 < result.mean_benefit <= 3.0
(64, True)
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.core.instance import OnlineInstance
from repro.core.seeding import stable_seed
from repro.engine.batch import (
    BatchResult,
    _batch_result,
    _contested_groups,
    _drop_losers,
    simulate_batch,
)
from repro.engine.cache import fast_compiled_for
from repro.engine.compile import CompiledInstance, FastCompiledInstance
from repro.engine.specs import AlgorithmSpec, is_fast_vectorized, resolve_spec

__all__ = ["simulate_fast", "trial_generator", "fast_uniforms"]

#: Trials are drawn and replayed in blocks of this many rows, bounding the
#: peak float32 priority matrix to a few tens of megabytes regardless of the
#: total trial count (the same blocking discipline as the exact engines).
_FAST_TRIAL_BLOCK = 32_768

#: A float32 uniform draw is exactly 0.0 with probability ``2**-24`` — rare,
#: but a production batch sees billions of draws.  ``0.0 ** (1/w) == 0.0``
#: would pin that set to the worst priority, where the reference algorithms
#: *redraw* zeros; clamping to the smallest positive draw value is
#: statistically indistinguishable from the redraw and stays vectorized.
_ZERO_DRAW_CLAMP = np.float32(2.0 ** -24)


def _pcg64_state(seed: int, trial: int) -> Tuple[int, int]:
    """The raw PCG64 ``(state, increment)`` of one trial.

    Both words are :func:`~repro.core.seeding.stable_seed` digests
    of ``seed + trial`` under distinct domain tags — a *counter-based*
    seeding: the state is a pure SHA-256 function of the trial index, with
    no sequential dependence between trials.  The increment is forced odd
    (PCG's LCG requires it for a full-period stream).
    """
    counter = seed + trial
    return (
        stable_seed("osp-fast-state", counter),
        stable_seed("osp-fast-inc", counter) | 1,
    )


def _state_dict(state: int, inc: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The fast engine's RNG for one trial: a counter-seeded PCG64.

    This is the *specification* of the fast engine's randomness — the hot
    path (:func:`fast_uniforms`) replays the same states without
    constructing a generator per trial, and the determinism suite pins the
    two against each other.  Because the state derives from ``seed + trial``
    alone, the generator is reproducible across processes, platforms and
    ``PYTHONHASHSEED`` values, and trials can be drawn in any order.

    >>> a = trial_generator(7, 3).random(4)
    >>> b = trial_generator(7, 3).random(4)       # same trial: same stream
    >>> bool((a == b).all())
    True
    >>> bool((trial_generator(7, 4).random(4) == a).any())   # fresh stream
    False
    >>> c = trial_generator(10, 0).random(4)      # seed+trial is the counter
    >>> bool((trial_generator(7, 3).random(4) == c).all())
    True
    """
    bit_generator = np.random.PCG64(0)
    bit_generator.state = _state_dict(*_pcg64_state(seed, trial))
    return np.random.Generator(bit_generator)


def fast_uniforms(
    seed: int, trials: int, num_draws: int, offset: int = 0
) -> np.ndarray:
    """A ``(trials, num_draws)`` float32 uniform matrix, one trial per row.

    Row ``i`` holds the first ``num_draws`` float32 uniforms of
    :func:`trial_generator` ``(seed, offset + i)`` — the counter-based
    analogue of :func:`repro.engine.rng.uniform_matrix`, with no draw-table
    cache to invalidate and no cross-trial stream to replay in order.  The
    ``offset`` parameter lets blocked and chunked callers address absolute
    trial indices, which is what keeps fast results independent of blocking
    and worker count.

    >>> block = fast_uniforms(7, 4, 3)
    >>> block.shape, block.dtype
    ((4, 3), dtype('float32'))
    >>> bool((block[2] == trial_generator(7, 2).random(3, dtype=np.float32)).all())
    True
    >>> bool((fast_uniforms(7, 2, 3, offset=2) == block[2:]).all())
    True
    """
    matrix = np.empty((trials, num_draws), dtype=np.float32)
    # One bit generator, re-pointed at each trial's counter-derived state:
    # identical streams to per-trial ``trial_generator`` calls without the
    # per-trial SeedSequence construction cost.
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    template = _state_dict(0, 1)
    inner = template["state"]
    for i in range(trials):
        inner["state"], inner["inc"] = _pcg64_state(seed, offset + i)
        bit_generator.state = template
        generator.random(out=matrix[i], dtype=np.float32)
    return matrix


def _fast_priorities(
    spec: AlgorithmSpec,
    fast: FastCompiledInstance,
    trials: int,
    seed: int,
    offset: int,
) -> np.ndarray:
    """The float32 priority rows of one trial block.

    ``randPr`` (and ``randPr-hashed`` with fresh per-trial salts, whose
    idealized distribution is the same iid-uniform draw the hash family
    emulates) applies the ``R_w`` inverse CDF as a vectorized float32
    power; ``uniform-priority`` uses the uniforms directly.
    """
    # Module-global lookup, deliberately: the equivalence suite's biased-RNG
    # tripwire monkeypatches ``fast_uniforms`` and must bias this path.
    uniforms = fast_uniforms(seed, trials, fast.num_sets, offset)
    if spec.kind == "uniform-priority":
        return uniforms
    np.copyto(uniforms, _ZERO_DRAW_CLAMP, where=(uniforms == 0.0))
    uniforms **= fast.priority_exponents
    return uniforms


def simulate_fast(
    instance: Union[OnlineInstance, CompiledInstance, FastCompiledInstance],
    algorithm: Union[str, AlgorithmSpec, "OnlineAlgorithm"],
    trials: int,
    seed: int = 0,
) -> BatchResult:
    """Run ``trials`` statistically-equivalent trials of ``algorithm``.

    The drop-in sibling of :func:`~repro.engine.batch.simulate_batch` under
    the statistical contract: same argument vocabulary, same
    :class:`~repro.engine.batch.BatchResult` shape, but randomized
    static-priority trials are drawn from counter-based PCG64 streams
    (float32, no MT19937 bridge, no ``exact_pow``) instead of replaying the
    reference draws.  Specs outside :func:`~repro.engine.specs.is_fast_vectorized`
    — deterministic kinds, the greedy family, ``uniform-random`` — delegate
    to the exact engine, whose output trivially has the right distribution.

    Trial ``b`` depends only on ``seed + b``, so chunked and multi-worker
    fast runs are bit-identical to serial fast runs; only the *exact-engine*
    correspondence is statistical.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> instance = OnlineInstance(system, name="demo")
    >>> fast = simulate_fast(instance, "randPr", trials=5, seed=1)
    >>> fast.algorithm_name, fast.trials
    ('randPr', 5)
    >>> deterministic = simulate_fast(instance, "greedy-weight", trials=5)
    >>> from repro.engine.batch import simulate_batch
    >>> deterministic.equals(simulate_batch(instance, "greedy-weight",
    ...                                     trials=5))      # exact delegation
    True
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    spec = resolve_spec(algorithm)
    if not is_fast_vectorized(spec):
        # The exact engine refuses a FastCompiledInstance (compiled_for).
        return simulate_batch(instance, spec, trials=trials, seed=seed)

    fast = fast_compiled_for(instance)
    groups = _contested_groups(fast)
    completed = np.ones((trials, fast.num_sets), dtype=bool)
    for start in range(0, trials, _FAST_TRIAL_BLOCK):
        stop = min(start + _FAST_TRIAL_BLOCK, trials)
        priorities = _fast_priorities(spec, fast, stop - start, seed, start)
        # Negate so that "smallest key wins" with stable column tie-breaks —
        # the exact engines' static replay kernel and tie order.
        _drop_losers(-priorities, groups, completed[start:stop])
    # Float64 accumulation: one matmul against the float64 weights, so the
    # per-trial benefit (and hence every mean) is as accurate as the exact
    # engine's, even though the priorities were float32.
    return _batch_result(
        spec, fast, completed, trials, seed, benefits=completed @ fast.weights
    )
