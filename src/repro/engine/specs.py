"""Algorithm specifications the batch engine knows how to vectorize.

The reference simulator runs arbitrary :class:`~repro.core.algorithm.OnlineAlgorithm`
objects; the batch engine instead runs *specifications* — declarative
descriptions of the priority rule an algorithm applies — so that a whole
batch of trials can be replayed as array operations.  Three families are
supported:

* **static-priority** algorithms (randPr, its hashed variant, the static
  deterministic baselines): each trial is fully described by one priority
  row, drawn up front.  The engine reproduces the reference algorithms'
  draws *bit for bit* — same RNG seeding (``random.Random(seed + trial)``),
  same draw order (``repr`` order of the set identifiers), same zero-weight
  clamp — so a batch trial and the corresponding ``simulate_many`` trial
  make identical decisions.  The randomized kinds draw whole trial rows
  through the :mod:`repro.engine.rng` bridge (a vectorized numpy replay of
  CPython's Mersenne Twister; see ``docs/INTERNALS-rng.md`` for the
  state-transplant trick and the *draw-order contract* a kind must satisfy
  to be vectorizable this way).
* **greedy** algorithms (``greedy-weight``, ``greedy-progress``,
  ``greedy-committed``): the priority of a set depends on its alive/progress
  state, so the engine recomputes an integer sort key per arrival from the
  batch state matrices.  These are deterministic, so every trial of a batch
  is the same run ("degenerate" batches).
* **per-step-random** algorithms (``uniform-random``): fresh draws at every
  arrival, so no static priority row exists (the draw-order contract of
  ``docs/INTERNALS-rng.md``).  Each arrival takes a fixed number of
  ``random()`` values (a partial Fisher–Yates over its parents), so its
  draws sit at a stream offset the instance fixes; the engine reads them
  for all trials from lockstep chunks
  (:meth:`~repro.engine.rng.WordStreams.random`) and replays every arrival
  at once.

:func:`spec_for_algorithm` maps a reference algorithm object to its spec
(or ``None`` when the algorithm cannot be vectorized — e.g. a custom hash
family), and :func:`resolve_spec` normalizes everything callers may pass to
:func:`~repro.engine.batch.simulate_batch`.

The three families partition the supported kind vocabulary:

>>> sorted(GREEDY_KINDS)
['greedy-committed', 'greedy-progress', 'greedy-weight']
>>> sorted(PER_STEP_RANDOM_KINDS)
['uniform-random']
>>> sorted(STATIC_PRIORITY_KINDS)  # doctest: +NORMALIZE_WHITESPACE
['first-listed', 'largest-set-first', 'randPr', 'randPr-hashed',
 'smallest-set-first', 'static-order', 'uniform-priority']
>>> SUPPORTED_KINDS == STATIC_PRIORITY_KINDS | GREEDY_KINDS | PER_STEP_RANDOM_KINDS
True
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.algorithm import OnlineAlgorithm
from repro.core.priorities import hash_priority, hash_unit_interval, sample_priority
# Submodule import (not a package-attribute read): repro.engine.rng has no
# engine-internal imports, so this resolves even while repro.engine itself is
# still initializing.
from repro.engine import rng as rng_bridge
from repro.engine.compile import CompiledInstance
from repro.exceptions import UnsupportedAlgorithmError

__all__ = [
    "AlgorithmSpec",
    "STATIC_PRIORITY_KINDS",
    "GREEDY_KINDS",
    "PER_STEP_RANDOM_KINDS",
    "SUPPORTED_KINDS",
    "FAST_PRIORITY_KINDS",
    "spec_for_algorithm",
    "resolve_spec",
    "priority_matrix",
    "priority_columns",
    "zero_draw_trials",
    "reference_priority_row",
    "is_fast_vectorized",
]

#: Kinds whose per-trial behaviour is one static priority row.
STATIC_PRIORITY_KINDS = frozenset(
    {
        "randPr",
        "uniform-priority",
        "randPr-hashed",
        "static-order",
        "first-listed",
        "largest-set-first",
        "smallest-set-first",
    }
)

#: Kinds whose priority depends on the evolving alive/progress state.
GREEDY_KINDS = frozenset({"greedy-weight", "greedy-progress", "greedy-committed"})

#: Kinds that draw fresh randomness at every arrival (no static priority row
#: exists); the engine reads the per-step draws from lockstep per-trial
#: streams (:class:`repro.engine.rng.WordStreams`) instead.
PER_STEP_RANDOM_KINDS = frozenset({"uniform-random"})

SUPPORTED_KINDS = STATIC_PRIORITY_KINDS | GREEDY_KINDS | PER_STEP_RANDOM_KINDS

#: Kinds that draw fresh randomness per trial (everything else is
#: deterministic: one decision sequence shared by the whole batch).
_RANDOMIZED_KINDS = frozenset({"randPr", "uniform-priority", "uniform-random"})

#: Static-priority kinds whose randomized trials the statistical
#: ``engine="fast"`` backend (:mod:`repro.engine.fast`) draws from its own
#: counter-based PCG64 streams instead of the bit-exact MT19937 bridge.
#: Membership is necessary, not sufficient — a spec of one of these kinds is
#: only fast-vectorizable when it is actually randomized (see
#: :func:`is_fast_vectorized`): a salted ``randPr-hashed`` spec is
#: deterministic, and a deterministic spec's distribution is a point mass
#: the exact engine already produces at no extra cost.
FAST_PRIORITY_KINDS = frozenset({"randPr", "uniform-priority", "randPr-hashed"})

#: Static kinds whose priorities transform per-trial ``random()`` draws.
UNIFORM_DRAW_KINDS = frozenset({"randPr", "uniform-priority"})


@dataclass(frozen=True)
class AlgorithmSpec:
    """A declarative description of a batch-runnable algorithm.

    Parameters
    ----------
    kind:
        One of :data:`SUPPORTED_KINDS`; matches the reference algorithm's
        ``name`` attribute.
    salt:
        For ``randPr-hashed``: the fixed system-wide hash salt, or ``None``
        to draw a fresh salt per trial from the trial RNG (mirroring
        ``HashedRandPrAlgorithm(salt=None)``).  For ``static-order``: the
        salt of the static hash order (default ``"static-order"``).

    >>> AlgorithmSpec("randPr").is_deterministic
    False
    >>> AlgorithmSpec("greedy-weight").is_deterministic
    True
    >>> AlgorithmSpec("warp-drive")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.exceptions.UnsupportedAlgorithmError: unknown batch algorithm kind 'warp-drive'; ...
    """

    kind: str
    salt: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SUPPORTED_KINDS:
            raise UnsupportedAlgorithmError(
                f"unknown batch algorithm kind {self.kind!r}; "
                f"supported: {sorted(SUPPORTED_KINDS)}"
            )

    @property
    def name(self) -> str:
        """The display name (matches the reference algorithm's ``name``)."""
        return self.kind

    @property
    def is_deterministic(self) -> bool:
        """Whether every trial of a batch produces the same run."""
        if self.kind == "randPr-hashed":
            return self.salt is not None
        return self.kind not in _RANDOMIZED_KINDS


def spec_for_algorithm(algorithm: OnlineAlgorithm) -> Optional[AlgorithmSpec]:
    """The :class:`AlgorithmSpec` replaying ``algorithm``, or ``None``.

    ``None`` means the algorithm cannot be vectorized (a custom hash family,
    or an algorithm type the engine does not know); callers should fall back
    to the reference simulator.

    >>> from repro.algorithms import RandPrAlgorithm
    >>> spec_for_algorithm(RandPrAlgorithm())
    AlgorithmSpec(kind='randPr', salt=None)
    >>> class CustomAlgorithm(RandPrAlgorithm):
    ...     pass                          # subclasses may override behaviour,
    >>> spec_for_algorithm(CustomAlgorithm()) is None    # so: not replayable
    True
    """
    # Imported here: the algorithm modules import repro.core, which in turn
    # re-exports the engine, so a module-level import would be circular.
    from repro.algorithms.deterministic import (
        FirstListedAlgorithm,
        LargestSetFirstAlgorithm,
        SmallestSetFirstAlgorithm,
        StaticOrderAlgorithm,
    )
    from repro.algorithms.greedy import (
        GreedyCommittedAlgorithm,
        GreedyProgressAlgorithm,
        GreedyWeightAlgorithm,
    )
    from repro.algorithms.hashed import HashedRandPrAlgorithm
    from repro.algorithms.randpr import RandPrAlgorithm
    from repro.algorithms.random_assign import (
        UniformRandomAlgorithm,
        UnweightedPriorityAlgorithm,
    )

    # Exact-type checks, not isinstance: a subclass may override start/decide,
    # and replaying it as its base class would silently produce the base
    # algorithm's results.  Unknown subclasses fall back to the reference
    # simulator instead.
    algorithm_type = type(algorithm)
    if algorithm_type is RandPrAlgorithm:
        return AlgorithmSpec("randPr")
    if algorithm_type is HashedRandPrAlgorithm:
        if getattr(algorithm, "_hash_family", None) is not None:
            return None
        return AlgorithmSpec(
            "randPr-hashed", salt=getattr(algorithm, "_configured_salt", None)
        )
    if algorithm_type is UnweightedPriorityAlgorithm:
        return AlgorithmSpec("uniform-priority")
    if algorithm_type is UniformRandomAlgorithm:
        return AlgorithmSpec("uniform-random")
    if algorithm_type is StaticOrderAlgorithm:
        return AlgorithmSpec(
            "static-order", salt=getattr(algorithm, "_salt", "static-order")
        )
    if algorithm_type is FirstListedAlgorithm:
        return AlgorithmSpec("first-listed")
    if algorithm_type is LargestSetFirstAlgorithm:
        return AlgorithmSpec("largest-set-first")
    if algorithm_type is SmallestSetFirstAlgorithm:
        return AlgorithmSpec("smallest-set-first")
    if algorithm_type is GreedyWeightAlgorithm:
        return AlgorithmSpec("greedy-weight")
    if algorithm_type is GreedyProgressAlgorithm:
        return AlgorithmSpec("greedy-progress")
    if algorithm_type is GreedyCommittedAlgorithm:
        return AlgorithmSpec("greedy-committed")
    return None


def resolve_spec(
    algorithm: Union[str, AlgorithmSpec, OnlineAlgorithm]
) -> AlgorithmSpec:
    """Normalize an algorithm argument to an :class:`AlgorithmSpec`.

    Accepts a spec, a kind string, or a reference algorithm object.  Raises
    :class:`~repro.exceptions.UnsupportedAlgorithmError` when the algorithm
    has no vectorized equivalent.

    >>> resolve_spec("greedy-weight")
    AlgorithmSpec(kind='greedy-weight', salt=None)
    >>> from repro.algorithms import RandPrAlgorithm
    >>> resolve_spec(RandPrAlgorithm()) == resolve_spec("randPr")
    True
    """
    if isinstance(algorithm, AlgorithmSpec):
        return algorithm
    if isinstance(algorithm, str):
        return AlgorithmSpec(algorithm)
    if isinstance(algorithm, OnlineAlgorithm):
        spec = spec_for_algorithm(algorithm)
        if spec is None:
            raise UnsupportedAlgorithmError(
                f"algorithm {algorithm.name!r} ({type(algorithm).__name__}) "
                "cannot run on the batch engine; use the reference simulator"
            )
        return spec
    raise UnsupportedAlgorithmError(
        f"cannot interpret {algorithm!r} as a batch algorithm"
    )


def is_fast_vectorized(spec: AlgorithmSpec) -> bool:
    """Whether the fast engine draws ``spec``'s trials from PCG64 streams.

    True exactly for the *randomized* static-priority specs — the kinds
    whose production Monte-Carlo cost is dominated by per-trial priority
    generation.  Every other supported spec (the deterministic kinds, the
    greedy family, the per-step-random ``uniform-random``) is delegated by
    :func:`repro.engine.fast.simulate_fast` to the exact batch engine,
    which trivially satisfies the statistical contract.

    >>> is_fast_vectorized(AlgorithmSpec("randPr"))
    True
    >>> is_fast_vectorized(AlgorithmSpec("randPr-hashed"))       # fresh salts
    True
    >>> is_fast_vectorized(AlgorithmSpec("randPr-hashed", salt="s"))  # fixed
    False
    >>> is_fast_vectorized(AlgorithmSpec("greedy-weight"))
    False
    """
    return spec.kind in FAST_PRIORITY_KINDS and not spec.is_deterministic


def priority_matrix(
    spec: AlgorithmSpec, compiled: CompiledInstance, trials: int, seed: int
) -> np.ndarray:
    """The per-trial priority rows for a static-priority spec.

    Returns shape ``(trials, m)`` for randomized kinds and ``(1, m)`` for
    deterministic ones (the single row broadcasts over the batch).  The
    randomized draws replay the reference algorithms exactly: trial ``b``
    uses the stream of ``random.Random(seed + b)`` and draws per set in
    column (``repr``) order, which is precisely what ``simulate_many`` +
    ``RandPrAlgorithm.start`` do.  The draws themselves come from the
    :mod:`repro.engine.rng` bridge — a vectorized, bit-exact numpy replay of
    CPython's Mersenne Twister — and the ``R_w`` inverse-CDF transform goes
    through :func:`~repro.engine.rng.exact_pow` (the same C-library ``pow``
    the scalar helpers call), so the values are bit-identical, not merely
    statistically equivalent.  ``docs/INTERNALS-rng.md`` documents the
    replay and the draw-order contract a new vectorizable kind must satisfy.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> from repro.engine.compile import compile_instance
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> compiled = compile_instance(OnlineInstance(system, name="demo"))
    >>> priority_matrix(AlgorithmSpec("randPr"), compiled, trials=3, seed=0).shape
    (3, 2)
    >>> priority_matrix(AlgorithmSpec("first-listed"), compiled, trials=3, seed=0)
    array([[-0., -1.]])
    """
    m = compiled.num_sets
    uniforms = salts = None
    if spec.kind in UNIFORM_DRAW_KINDS:
        # One vectorized draw table, shared by both kinds through the
        # bridge's LRU.  It is read-only; priority_columns copies or
        # transforms it.
        uniforms = rng_bridge.uniform_matrix(seed, trials, m)
    elif spec.kind == "randPr-hashed" and spec.salt is None:
        salts = rng_bridge.getrandbits64(seed, trials)
    matrix = priority_columns(spec, compiled, 0, m, uniforms, salts)
    if spec.kind == "randPr":
        for trial in zero_draw_trials(uniforms):
            matrix[trial] = reference_priority_row(compiled, seed + trial)
    return matrix


def priority_columns(
    spec: AlgorithmSpec,
    compiled: CompiledInstance,
    start: int,
    stop: int,
    uniforms: Optional[np.ndarray] = None,
    salts: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The priorities of columns ``start .. stop-1`` for a static-priority spec.

    The one definition of every static kind's priority rule, shared by the
    whole-instance :func:`priority_matrix` and the streaming engine's
    column-chunked draws.  The caller supplies the randomness, so each
    engine keeps its own stream type: ``uniforms`` is the ``(trials,
    stop - start)`` block of per-trial ``random()`` values for the
    :data:`UNIFORM_DRAW_KINDS`, ``salts`` the per-trial ``getrandbits(64)``
    values of a fresh-salt ``randPr-hashed`` spec.  Randomized kinds return
    one row per trial and deterministic ones a single ``(1, count)`` row.

    A randPr draw of exactly 0.0 comes back as priority 0.0; the reference
    redraws it, so callers replay such trials through
    :func:`reference_priority_row` (see :func:`zero_draw_trials`).

    >>> from repro.core import OnlineInstance, SetSystem
    >>> from repro.engine.compile import compile_instance
    >>> system = SetSystem(sets={"A": ["u"], "B": ["u"], "C": ["u"]})
    >>> compiled = compile_instance(OnlineInstance(system, name="demo"))
    >>> priority_columns(AlgorithmSpec("first-listed"), compiled, 1, 3)
    array([[-1., -2.]])
    """
    kind = spec.kind
    count = stop - start
    set_ids = compiled.set_ids[start:stop]
    exponents = compiled.priority_exponents[start:stop]

    if kind == "randPr":
        # The reference draw for column j of trial b is the j-th
        # ``random.Random(seed + b).random()`` value raised to 1/w_j;
        # exact_pow applies the very libm ``pow`` the reference ``**`` calls.
        return rng_bridge.exact_pow(uniforms, exponents)
    if kind == "uniform-priority":
        # The draws *are* the priorities (randPr with R_1 applies no
        # transform at all).  Copy: the bridge's cached table is read-only.
        return np.array(uniforms, dtype=np.float64)
    if kind == "randPr-hashed":
        if spec.salt is not None:
            # Python floats, so the arithmetic inside the scalar helper is
            # the very same arithmetic the reference algorithm performs.
            clamped = compiled.clamped_weights[start:stop].tolist()
            row = [
                hash_priority(set_id, weight, salt=spec.salt)
                for set_id, weight in zip(set_ids, clamped)
            ]
            return np.asarray(row, dtype=np.float64).reshape(1, count)
        # Fresh salt per trial; the per-set SHA-256 evaluations dominate and
        # have no vectorized form, so the hash loop stays scalar while the
        # inverse-CDF transform shares exact_pow with the randPr path.
        block = np.empty((len(salts), count), dtype=np.float64)
        for trial, salt_value in enumerate(salts):
            salt = f"salt-{salt_value:016x}"
            block[trial] = [hash_unit_interval(set_id, salt=salt) for set_id in set_ids]
        # hash_priority nudges an exactly-zero hash away from the origin.
        np.copyto(block, 2.0 ** -64, where=(block == 0.0))
        return rng_bridge.exact_pow(block, exponents)
    if kind == "static-order":
        salt = spec.salt if spec.salt is not None else "static-order"
        row = [hash_unit_interval(set_id, salt=salt) for set_id in set_ids]
        return np.asarray(row, dtype=np.float64).reshape(1, count)
    if kind == "first-listed":
        # Parents arrive in column order; preferring low columns reproduces
        # "take the first b(u) parents as announced".
        return (-np.arange(start, stop, dtype=np.float64)).reshape(1, count)
    if kind == "largest-set-first":
        return compiled.sizes[start:stop].astype(np.float64).reshape(1, count)
    if kind == "smallest-set-first":
        return (-compiled.sizes[start:stop].astype(np.float64)).reshape(1, count)
    raise UnsupportedAlgorithmError(f"kind {kind!r} has no static priority matrix")


def zero_draw_trials(uniforms: np.ndarray) -> List[int]:
    """The trials (rows) whose ``random()`` draws include an exact 0.0.

    ``sample_priority`` redraws a 0.0 uniform, so from that draw on the
    trial's reference stream runs ahead of the vectorized one (probability
    ~2^-53 per draw); such trials are replayed whole through
    :func:`reference_priority_row`.
    """
    return np.flatnonzero((uniforms == 0.0).any(axis=1)).tolist()


def reference_priority_row(compiled: CompiledInstance, seed: int) -> np.ndarray:
    """One randPr trial's ``(m,)`` priorities, drawn the reference way.

    The scalar fallback for :func:`zero_draw_trials`: it *is* the reference
    arithmetic (``sample_priority`` over ``random.Random(seed)``), redraws
    included.
    """
    replay = random.Random(seed)
    return np.asarray(
        [sample_priority(weight, replay) for weight in compiled.clamped_weights.tolist()],
        dtype=np.float64,
    )
