"""Vectorized batch simulation of priority-based OSP algorithms.

:func:`simulate_batch` runs ``B`` independent trials of one algorithm on one
instance as numpy array operations: the per-trial state is a ``(B, m)``
alive mask and a ``(B, m)`` remaining-elements count, and each arrival step
selects the top-``b(u)`` parent sets *per trial* with one partial sort of a
``(B, σ(u))`` priority sub-matrix.  The per-element Python interpreter cost
of the reference simulator (:func:`repro.core.simulation.simulate`) is paid
once per *arrival* instead of once per *arrival per trial*.

Exactness contract (enforced by ``tests/test_engine_differential.py``):
for every supported algorithm, trial ``b`` of
``simulate_batch(instance, algorithm, trials, seed)`` completes **exactly**
the same sets as ``simulate(instance, algorithm, rng=random.Random(seed + b))``
— the randomness is replayed bit-for-bit (static-priority draws through the
vectorized :mod:`repro.engine.rng` draw table, per-step ``sample`` draws
through the bridge's batched word streams; see :mod:`repro.engine.specs` and
``docs/INTERNALS-rng.md``), the tie-breaks coincide with the reference
``(-priority, repr)`` sort key, and even the benefit floats are summed in
the reference order.  The batch engine is therefore a drop-in replacement
for aggregating ``simulate_many`` output, not a statistical approximation
of it.

When to use which engine: use the batch engine for Monte-Carlo estimation
(many trials of a supported algorithm on a fixed instance); use the
reference simulator for unsupported algorithms, for adaptive adversaries,
or when the per-step trace (``record_steps``) is needed.

``simulate_batch`` compiles through the per-process cache of
:mod:`repro.engine.cache`, so measuring many algorithms on one instance
compiles it once, not once per call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.algorithm import OnlineAlgorithm
from repro.core.instance import OnlineInstance
from repro.core.set_system import SetId
from repro.core.statistics import statistics_from_benefits
from repro.engine import rng as rng_bridge
from repro.engine.cache import compiled_for
from repro.engine.compile import CompiledInstance
from repro.engine.specs import (
    GREEDY_KINDS,
    PER_STEP_RANDOM_KINDS,
    AlgorithmSpec,
    priority_matrix,
    resolve_spec,
)

__all__ = ["BatchResult", "simulate_batch", "batch_from_results"]


@dataclass(frozen=True, eq=False)
class BatchResult:
    """The outcome of a batch of simulation trials.

    The arrays are aligned: row ``b`` of ``completed`` is the completed-set
    mask of trial ``b`` (columns in ``set_ids`` order), ``benefits[b]`` its
    total completed weight and ``completed_counts[b]`` its completed-set
    count.  ``mean_benefit``/``std_benefit`` aggregate exactly the way the
    experiment harness aggregates ``simulate_many`` output (sample standard
    deviation, ``ddof=1``).

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> result = simulate_batch(OnlineInstance(system, name="demo"),
    ...                         "greedy-weight", trials=2, seed=0)
    >>> result
    BatchResult(algorithm='greedy-weight', trials=2, mean_benefit=2.000)
    >>> result.completed_sets(0)
    frozenset({'A'})
    >>> result.completed_count_distribution()
    {1: 2}
    """

    algorithm_name: str
    instance_name: str
    trials: int
    seed: int
    set_ids: Tuple[SetId, ...]
    completed: np.ndarray = field(repr=False)
    benefits: np.ndarray = field(repr=False)
    completed_counts: np.ndarray = field(repr=False)

    @property
    def num_sets(self) -> int:
        """The number of sets (columns of ``completed``)."""
        return len(self.set_ids)

    @property
    def mean_benefit(self) -> float:
        """The empirical mean benefit over the batch.

        Computed by :func:`~repro.core.statistics.statistics_from_benefits` —
        the same numpy reduction (hence the same float) as
        ``expected_benefit`` and ``measure_ratio`` applied to
        ``simulate_many`` output.
        """
        if not self.trials:
            return 0.0
        return statistics_from_benefits(self.benefits)[0]

    @property
    def std_benefit(self) -> float:
        """The sample standard deviation of the benefit (0 for one trial)."""
        return statistics_from_benefits(self.benefits)[1]

    @property
    def mean_completed(self) -> float:
        """The empirical mean number of completed sets."""
        return float(np.mean(self.completed_counts)) if self.trials else 0.0

    def completed_sets(self, trial: int) -> FrozenSet[SetId]:
        """The completed sets of one trial, as the reference engine reports them."""
        row = self.completed[trial]
        return frozenset(self.set_ids[j] for j in np.flatnonzero(row))

    def completed_count_distribution(self) -> Dict[int, int]:
        """Histogram of the completed-set count across trials."""
        values, counts = np.unique(self.completed_counts, return_counts=True)
        return {int(value): int(count) for value, count in zip(values, counts)}

    def equals(self, other: "BatchResult") -> bool:
        """Exact array-level equality (used by the determinism tests)."""
        return (
            self.algorithm_name == other.algorithm_name
            and self.instance_name == other.instance_name
            and self.trials == other.trials
            and self.set_ids == other.set_ids
            and np.array_equal(self.completed, other.completed)
            and np.array_equal(self.benefits, other.benefits)
            and np.array_equal(self.completed_counts, other.completed_counts)
        )

    def __repr__(self) -> str:
        return (
            f"BatchResult(algorithm={self.algorithm_name!r}, trials={self.trials}, "
            f"mean_benefit={self.mean_benefit:.3f})"
        )


def _select_top(keys: np.ndarray, capacity: int) -> np.ndarray:
    """Boolean mask of the ``capacity`` smallest keys along the last axis.

    ``keys`` holds *ascending-is-better* keys.  Ties go to the lowest index
    (``argmin`` returns the first minimum; the argsort is stable), which —
    columns being in ``repr`` order — is exactly the reference algorithms'
    ``(-priority, repr(set_id))`` tie-break.
    """
    width = keys.shape[-1]
    if capacity == 1:
        return np.argmin(keys, axis=-1)[..., np.newaxis] == np.arange(width)
    order = np.argsort(keys, axis=-1, kind="stable")
    selected = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(selected, order[..., :capacity], True, axis=-1)
    return selected


def _contested_groups(
    compiled: CompiledInstance, start: int = 0, stop: Optional[int] = None
) -> List[Tuple[int, np.ndarray]]:
    """The contested steps of ``[start, stop)``, grouped by (width, capacity).

    A step is *contested* when its element has more parents than capacity.
    Returns one ``(capacity, columns)`` pair per group, ``columns`` being the
    ``(steps_in_group, width)`` parent columns of the group's steps.
    """
    stop = compiled.num_steps if stop is None else stop
    indptr = compiled.step_indptr
    offsets = indptr[start:stop]
    widths = indptr[start + 1 : stop + 1] - offsets
    capacities = compiled.step_capacities[start:stop]
    contested = widths > capacities
    if not contested.any():
        return []
    offsets = offsets[contested]
    widths = widths[contested].astype(np.int64)
    capacities = capacities[contested].astype(np.int64)
    codes = widths * (int(capacities.max()) + 1) + capacities
    _, group_of = np.unique(codes, return_inverse=True)
    groups = []
    for group in range(int(group_of.max()) + 1):
        members = group_of == group
        first = int(np.argmax(members))
        width = int(widths[first])
        gather = offsets[members][:, np.newaxis] + np.arange(width)
        groups.append((int(capacities[first]), compiled.step_parents[gather]))
    return groups


def _drop_losers(
    keys: np.ndarray,
    groups: List[Tuple[int, np.ndarray]],
    completed: np.ndarray,
    slot_of: Optional[np.ndarray] = None,
) -> None:
    """The static-priority replay kernel, shared by every engine.

    Static priorities make every decision independent of the simulation
    state, and a set is completed exactly when none of its elements is
    dropped — so a replay reduces to finding the losers of every contested
    step (:func:`_contested_groups`) and clearing them in the ``(rows, m)``
    ``completed`` mask, in place.  ``keys`` holds one lower-wins key row per
    trial (or a single row for a deterministic kind); column ``j``'s key is
    ``keys[:, j]``, or ``keys[:, slot_of[j]]`` when the keys live in the
    streaming engine's row pool.  Each group is one batched selection
    (:func:`_select_top`) over a ``(rows, steps_in_group, width)`` gather.
    """
    rows = keys.shape[0]
    for capacity, columns in groups:
        sub = keys[:, columns if slot_of is None else slot_of[columns]]
        won = _select_top(sub, capacity).reshape(rows, -1)
        # A set can sit in several steps of one group: AND its outcomes per
        # column (segments of the column-sorted incidences), then clear.
        flat = columns.ravel()
        order = np.argsort(flat, kind="stable")
        targets, starts = np.unique(flat[order], return_index=True)
        completed[:, targets] &= np.logical_and.reduceat(won[:, order], starts, axis=1)


def _run_static(compiled: CompiledInstance, keys: np.ndarray) -> np.ndarray:
    """Replay a static-priority algorithm over the whole instance at once.

    One window spanning every step, with the identity slot map; returns the
    ``(rows, m)`` completed mask for the ``(rows, m)`` lower-wins ``keys``.
    """
    completed = np.ones((keys.shape[0], compiled.num_sets), dtype=bool)
    _drop_losers(keys, _contested_groups(compiled), completed)
    return completed


def _sample_uses_pool(width: int, take: int) -> bool:
    """Whether ``random.sample(seq_of_len_width, take)`` takes its pool branch.

    Mirrors CPython's ``setsize`` heuristic: an n-length pool list is used
    when it is smaller than a k-length selection set would be.
    """
    setsize = 21
    if take > 5:
        setsize += 4 ** math.ceil(math.log(take * 3, 4))
    return width <= setsize


#: Cap on redraw rounds per vectorized retry loop (the ``_randbelow`` bound
#: rejection and the rejection-set duplicate rejection).  Every round accepts
#: with probability > 1/2, so a trial still retrying after this many rounds
#: has probability < 2**-64 per loop — astronomically unlikely, but the
#: replay must stay exact even then: such trials *bail out* of the batch and
#: are replayed through the scalar per-trial loop instead.
_MAX_REPLAY_ROUNDS = 64

#: Trials are replayed in blocks of this many rows so the per-block word
#: streams stay a few megabytes regardless of the total trial count
#: (mirroring the draw-table blocking in :mod:`repro.engine.rng`).
_UNIFORM_TRIAL_BLOCK = 4096


def _uniform_random_steps(compiled: CompiledInstance) -> list:
    """Per-step constants of the uniform-random replay, shared by all trials.

    Steps where the element fits every parent (``take == width``) consume RNG
    but can never kill a set; steps with no parents consume nothing at all
    (the reference algorithm returns before touching the RNG) and are
    dropped here.
    """
    indptr = compiled.step_indptr
    parents = compiled.step_parents
    capacities = compiled.step_capacities
    steps = []
    for step in range(compiled.num_steps):
        columns = parents[indptr[step] : indptr[step + 1]]
        width = len(columns)
        if width == 0:
            continue
        take = min(int(capacities[step]), width)
        steps.append((columns, width, take, _sample_uses_pool(width, take)))
    return steps


def _masked_randbelow(
    streams: "rng_bridge.WordStreams",
    bound: int,
    bits: int,
    mask: np.ndarray,
    bailed: np.ndarray,
) -> np.ndarray:
    """One ``_randbelow(bound)`` per masked trial, replayed over word streams.

    Vectorizes CPython's rejection loop (``getrandbits(bits)`` until the
    value falls below ``bound``): every round redraws only the trials still
    rejecting, so each trial consumes exactly as many words as its reference
    stream.  Trials that exhaust :data:`_MAX_REPLAY_ROUNDS` are marked in
    ``bailed`` (in place) for the scalar fallback.  Returns a full-batch
    ``int64`` array; entries outside ``mask & ~bailed`` are meaningless
    placeholders (zeros — always a valid index).
    """
    position = np.zeros(streams.trials, dtype=np.int64)
    pending = mask & ~bailed
    for _round in range(_MAX_REPLAY_ROUNDS):
        if not pending.any():
            return position
        position[pending] = streams.getrandbits(bits, pending)
        pending = pending & (position >= bound)
    bailed |= pending
    position[pending] = 0  # last drawn value was rejected (>= bound): replace
    return position


def _replay_uniform_block(steps: list, seed: int, completed: np.ndarray) -> None:
    """Replay one trial block of the uniform-random algorithm, vectorized.

    ``completed`` is the block's ``(batch, m)`` all-``True`` mask, updated in
    place.  Trial ``b`` consumes the stream of ``random.Random(seed + b)``
    through a :class:`~repro.engine.rng.WordStreams` word matrix; both
    ``random.sample`` branches run as array operations over the whole batch
    at once, with masked draws keeping each trial's stream position exact
    through the ragged ``_randbelow`` retry loops.  Trials whose retry tails
    outlive :data:`_MAX_REPLAY_ROUNDS` fall back to the scalar per-trial
    replay at the end.
    """
    batch = completed.shape[0]
    streams = rng_bridge.WordStreams(seed, batch)
    rows = np.arange(batch)
    bailed = np.zeros(batch, dtype=bool)
    for columns, width, take, use_pool in steps:
        if bailed.all():
            break
        # Positions default to 0 (a valid index) wherever a trial is bailed
        # or mid-retry, so the full-batch gathers/scatters below stay in
        # bounds; bailed rows are recomputed wholesale afterwards.
        chosen = np.zeros((batch, take), dtype=np.int64)
        if use_pool:
            # random.sample's pool branch: partial Fisher-Yates over an
            # index pool, one swap per draw, batched across trials.
            pool = np.tile(np.arange(width, dtype=np.int64), (batch, 1))
            for draw in range(take):
                bound = width - draw
                position = _masked_randbelow(
                    streams, bound, bound.bit_length(), ~bailed, bailed
                )
                chosen[:, draw] = pool[rows, position]
                pool[rows, position] = pool[:, bound - 1].copy()
        else:
            # random.sample's rejection-set branch: draw positions below
            # width, redrawing duplicates.  The duplicate check compares
            # against each trial's own earlier draws of this step.
            bits = width.bit_length()
            for draw in range(take):
                position = _masked_randbelow(
                    streams, width, bits, ~bailed, bailed
                )
                if draw:
                    duplicate = ~bailed & (
                        position[:, np.newaxis] == chosen[:, :draw]
                    ).any(axis=1)
                    rounds = 0
                    while duplicate.any():
                        rounds += 1
                        if rounds > _MAX_REPLAY_ROUNDS:
                            bailed |= duplicate
                            break
                        redrawn = _masked_randbelow(
                            streams, width, bits, duplicate, bailed
                        )
                        duplicate &= ~bailed
                        position[duplicate] = redrawn[duplicate]
                        duplicate &= (
                            position[:, np.newaxis] == chosen[:, :draw]
                        ).any(axis=1)
                chosen[:, draw] = position
        if take < width:
            assigned = np.zeros((batch, width), dtype=bool)
            assigned[rows[:, np.newaxis], chosen] = True
            completed[:, columns] &= assigned
    for trial in np.flatnonzero(bailed).tolist():
        completed[trial] = True
        dropped = _replay_uniform_trial_scalar(
            steps, random.Random(seed + trial).getrandbits
        )
        if dropped:
            completed[trial, dropped] = False


def _replay_uniform_trial_scalar(steps: list, getrandbits) -> list:
    """One trial's scalar stream replay; returns the dropped column indices.

    This is the pre-vectorization replay loop, kept as the fallback for
    trials whose retry tails exceed :data:`_MAX_REPLAY_ROUNDS` (and as the
    plainest statement of what the batched version must reproduce).  It
    consumes ``getrandbits`` exactly as ``random.sample`` does: the pool swap
    for small populations, the rejection set for large ones, each index
    drawn through the ``_randbelow`` retry loop.
    """
    dropped = []
    for columns, width, take, use_pool in steps:
        if use_pool:
            pool = list(range(width))
            chosen = []
            for draw in range(take):
                bound = width - draw
                bits = bound.bit_length()
                position = getrandbits(bits)
                while position >= bound:
                    position = getrandbits(bits)
                chosen.append(pool[position])
                pool[position] = pool[bound - 1]
        else:
            bits = width.bit_length()
            selected = set()
            for draw in range(take):
                position = getrandbits(bits)
                while position >= width:
                    position = getrandbits(bits)
                while position in selected:
                    position = getrandbits(bits)
                    while position >= width:
                        position = getrandbits(bits)
                selected.add(position)
            chosen = selected
        if take < width:
            keep = set(chosen)
            dropped.extend(
                column
                for position, column in enumerate(columns.tolist())
                if position not in keep
            )
    return dropped


def _run_uniform_random(
    compiled: CompiledInstance, trials: int, seed: int
) -> np.ndarray:
    """Replay all trials of the uniform-random assignment algorithm.

    Returns the ``(trials, m)`` completed mask.  The algorithm draws fresh
    randomness at every arrival (``rng.sample`` over the parent sets), so
    there is no static priority row to precompute — per-arrival consumption
    disqualifies the kind from the precomputed ``random()`` draw table of
    :mod:`repro.engine.rng`.  But ``random.sample`` selects *positions* that
    depend only on the population size, the draw count and the RNG state,
    and every draw bottoms out in ``getrandbits`` — one raw 32-bit word per
    call — so the selection replays over the bridge's per-trial **word
    streams** instead (:class:`~repro.engine.rng.WordStreams`): the pool-swap
    branch and the rejection-set branch both run as array operations over
    all trials at once, with masked draws advancing each trial's stream
    position independently through the ragged ``_randbelow`` retry loops
    (see ``docs/INTERNALS-rng.md``).  The scalar per-trial replay survives
    only as the fallback for pathological retry tails
    (:data:`_MAX_REPLAY_ROUNDS`).  The differential suite pins the replay
    against the real ``rng.sample`` across every workload family, so a
    change to CPython's selection algorithm would fail loudly, not drift
    silently.
    """
    m = compiled.num_sets
    steps = _uniform_random_steps(compiled)
    completed = np.ones((trials, m), dtype=bool)
    for start in range(0, trials, _UNIFORM_TRIAL_BLOCK):
        stop = min(start + _UNIFORM_TRIAL_BLOCK, trials)
        _replay_uniform_block(steps, seed + start, completed[start:stop])
    return completed


def _run_greedy(compiled: CompiledInstance, kind: str) -> np.ndarray:
    """Replay one run of a state-dependent greedy algorithm (deterministic).

    Returns the ``(1, m)`` completed mask.

    The reference greedy algorithms rank parents by a lexicographic tuple of
    small discrete features; this encodes each tuple as one int64 per parent
    (features weighted by the ranges of the levels below them), so the
    "sort by tuple" becomes "sort by integer" and matches exactly.
    """
    m = compiled.num_sets
    alive = np.ones((1, m), dtype=bool)
    remaining = compiled.sizes[np.newaxis, :].copy()
    weight_class = compiled.weight_class
    sizes = compiled.sizes
    # Level ranges for the integer encoding.
    num_classes = int(weight_class.max(initial=0)) + 1
    size_range = int(sizes.max(initial=0)) + 1
    indptr = compiled.step_indptr
    parents = compiled.step_parents
    capacities = compiled.step_capacities
    for step in range(compiled.num_steps):
        columns = parents[indptr[step] : indptr[step + 1]]
        width = len(columns)
        if width == 0:
            continue
        capacity = int(capacities[step])
        if width <= capacity:
            remaining[:, columns] -= 1
            continue
        dead = (~alive[:, columns]).astype(np.int64)
        classes = weight_class[columns]
        position = np.arange(width, dtype=np.int64)
        if kind == "greedy-weight":
            # (not alive, -weight, repr)
            key = (dead * num_classes + classes) * width + position
        elif kind == "greedy-progress":
            # (not alive, remaining, -weight, repr)
            rem = remaining[:, columns]
            key = ((dead * size_range + rem) * num_classes + classes) * width + position
        else:  # greedy-committed
            # (not alive, never assigned, -weight, remaining, repr)
            rem = remaining[:, columns]
            fresh = (rem == sizes[columns]).astype(np.int64)
            key = (
                ((dead * 2 + fresh) * num_classes + classes) * size_range + rem
            ) * width + position
        assigned = _select_top(key, capacity)
        remaining[:, columns] -= assigned
        alive[:, columns] &= assigned
    return alive & (remaining == 0)


def simulate_batch(
    instance: Union[OnlineInstance, CompiledInstance],
    algorithm: Union[str, AlgorithmSpec, OnlineAlgorithm],
    trials: int,
    seed: int = 0,
) -> BatchResult:
    """Run ``trials`` independent trials of ``algorithm`` on ``instance``.

    Parameters
    ----------
    instance:
        An :class:`~repro.core.instance.OnlineInstance` (compiled at most
        once per object via the per-process cache), or a pre-built
        :class:`~repro.engine.compile.CompiledInstance`.
    algorithm:
        An :class:`~repro.engine.specs.AlgorithmSpec`, a kind string (e.g.
        ``"randPr"``), or a reference :class:`OnlineAlgorithm` object of a
        supported type.  Unsupported algorithms raise
        :class:`~repro.exceptions.UnsupportedAlgorithmError`.
    trials / seed:
        Trial ``b`` replays the reference run with ``random.Random(seed + b)``
        — the same seeding convention as
        :func:`repro.core.simulation.simulate_many` — so paired comparisons
        agree trial by trial, not just in distribution.

    Trial ``b`` is *bit-identical* to the corresponding reference run:

    >>> import random
    >>> from repro.core import OnlineInstance, SetSystem
    >>> from repro.core.simulation import simulate
    >>> from repro.algorithms import RandPrAlgorithm
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> instance = OnlineInstance(system, name="demo")
    >>> batch = simulate_batch(instance, "randPr", trials=3, seed=7)
    >>> reference = simulate(instance, RandPrAlgorithm(), rng=random.Random(7))
    >>> batch.completed_sets(0) == reference.completed_sets
    True
    >>> float(batch.benefits[0]) == reference.benefit
    True
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    compiled = compiled_for(instance)
    spec = resolve_spec(algorithm)

    if spec.kind in GREEDY_KINDS:
        completed = _run_greedy(compiled, spec.kind)
    elif spec.kind in PER_STEP_RANDOM_KINDS:
        completed = _run_uniform_random(compiled, trials, seed)
    else:
        priorities = priority_matrix(spec, compiled, trials, seed)
        # Negate so that "smallest key wins" with stable index tie-breaks.
        completed = _run_static(compiled, -priorities)
    return _batch_result(spec, compiled, completed, trials, seed)


def _batch_result(
    spec: AlgorithmSpec,
    compiled: CompiledInstance,
    completed: np.ndarray,
    trials: int,
    seed: int,
    benefits: Optional[np.ndarray] = None,
) -> BatchResult:
    """Wrap a replayed completed mask as a :class:`BatchResult`.

    Unless ``benefits`` is given (the fast engine's float64 matmul), the
    weights are summed sequentially in column order — the exact float
    arithmetic of the reference engine's ``sum(...)`` over completed sets
    (``tolist`` yields Python floats; ``sum`` adds them left to right).  A
    one-row mask (a deterministic algorithm) stands for every trial.
    """
    if benefits is None:
        benefits = np.fromiter(
            (sum(compiled.weights[row].tolist()) for row in completed),
            dtype=np.float64,
            count=completed.shape[0],
        )
    counts = completed.sum(axis=1, dtype=np.int64)
    if completed.shape[0] == 1 and trials > 1:
        completed = np.repeat(completed, trials, axis=0)
        benefits = np.repeat(benefits, trials)
        counts = np.repeat(counts, trials)
    return BatchResult(
        algorithm_name=spec.name,
        instance_name=compiled.name,
        trials=trials,
        seed=seed,
        set_ids=compiled.set_ids,
        completed=completed,
        benefits=benefits,
        completed_counts=counts,
    )


def batch_from_results(
    instance: Union[OnlineInstance, CompiledInstance],
    results: Sequence["SimulationResult"],
    seed: int = 0,
) -> BatchResult:
    """Aggregate reference :func:`simulate_many` output into a :class:`BatchResult`.

    This is the API bridge the differential tests (and engine-agnostic
    callers) rely on: both engines end up in the same result shape, so
    "exactly equal" is a single array comparison.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> from repro.core.simulation import simulate_many
    >>> from repro.algorithms import GreedyWeightAlgorithm
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> instance = OnlineInstance(system, name="demo")
    >>> runs = simulate_many(instance, GreedyWeightAlgorithm(), trials=2, seed=0)
    >>> bridged = batch_from_results(instance, runs)
    >>> bridged.equals(simulate_batch(instance, "greedy-weight", trials=2, seed=0))
    True
    """
    compiled = compiled_for(instance)
    if not results:
        raise ValueError("need at least one simulation result")
    trials = len(results)
    completed = np.zeros((trials, compiled.num_sets), dtype=bool)
    benefits = np.empty(trials, dtype=np.float64)
    counts = np.empty(trials, dtype=np.int64)
    for row, result in enumerate(results):
        for set_id in result.completed_sets:
            completed[row, compiled.set_index[set_id]] = True
        benefits[row] = result.benefit
        counts[row] = result.num_completed
    return BatchResult(
        algorithm_name=results[0].algorithm_name,
        instance_name=results[0].instance_name,
        trials=trials,
        seed=seed,
        set_ids=compiled.set_ids,
        completed=completed,
        benefits=benefits,
        completed_counts=counts,
    )
