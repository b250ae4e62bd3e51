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
vectorized :mod:`repro.engine.rng` draw table, per-step draws through the
bridge's lockstep streams; see :mod:`repro.engine.specs` and
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
    UNIFORM_DRAW_KINDS,
    AlgorithmSpec,
    priority_matrix,
    reference_priority_row,
    resolve_spec,
    zero_draw_trials,
)

__all__ = ["BatchResult", "simulate_batch", "batch_from_results", "sum_benefits"]


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


#: How close, in units in the last place, two approximate priorities may be
#: before the order of their exact values is in doubt.  randPr's order keys
#: come from numpy's SIMD ``pow``, which may differ from the libm ``pow`` of
#: the reference by a few ulps (one on x86-64 with AVX-512); two values more
#: than twice that error apart keep their exact order, so a trial whose
#: contest is closer than this is replayed from the reference draws.
#: ``tests/test_engine_order_keys.py`` measures the error this relies on.
_GUARD_ULPS = 16


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
    near: Optional[np.ndarray] = None,
) -> None:
    """The static-priority replay kernel, shared by every engine.

    Static priorities make every decision independent of the simulation
    state, and a set is completed exactly when none of its elements is
    dropped — so a replay reduces to finding the losers of every contested
    step (:func:`_contested_groups`) and clearing them in the ``(rows, m)``
    ``completed`` mask, in place.  ``keys`` holds one lower-wins key row per
    trial (or a single row for a deterministic kind); column ``j``'s key is
    ``keys[:, j]``, or ``keys[:, slot_of[j]]`` when the keys live in the
    streaming engine's row pool.

    The kernel works column-major — one row per column (or slot), one lane
    per trial — so Fortran-ordered ``keys`` and ``completed`` (what every
    engine passes) cost no copy; C-ordered ones are equally correct.  A
    capacity-1 group keeps a running minimum over its parent positions
    (:func:`_first_minimum`) and ANDs each position's ``winner == p`` lanes
    into ``completed``; a wider capacity is one :func:`_select_top` over a
    ``(rows, steps, width)`` gather.

    ``near``, a ``(rows,)`` bool array, asks for the near-tie guard of
    approximate keys: every row in which some contest's winning key and a
    losing one lie within :data:`_GUARD_ULPS` ulps is set ``True`` (for
    capacity ``c``, the ``c``-th and ``(c+1)``-th smallest keys).  The keys
    must then be negated non-negative priorities, whose int64 bit patterns
    count ulps.
    """
    keys_T = np.ascontiguousarray(keys.T)
    completed_T = completed.T
    for capacity, columns in groups:
        index = columns if slot_of is None else slot_of[columns]
        if capacity == 1:
            winner = _first_minimum(keys_T, index, near)
            for position in range(columns.shape[1]):
                _and_rows(completed_T, columns[:, position], winner == position)
            continue
        contests = keys[:, index]
        won = _select_top(contests, capacity).reshape(keys.shape[0], -1)
        _and_rows(completed_T, columns.ravel(), won.T)
        if near is not None:
            edge = np.partition(contests, (capacity - 1, capacity), axis=-1)
            bits = edge[..., capacity - 1 : capacity + 1].view(np.int64)
            near |= (bits[..., 0] - bits[..., 1] <= _GUARD_ULPS).any(axis=1)


def _first_minimum(
    keys_T: np.ndarray, index: np.ndarray, near: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per step and lane, the parent position holding the smallest key.

    ``index`` is a group's ``(steps, width)`` rows of ``keys_T``; returns the
    ``(steps, lanes)`` winning positions.  The comparison is strict, so a tie
    goes to the lower position — :func:`_select_top`'s ``argmin`` rule, the
    reference ``(-priority, repr)`` tie-break.

    With ``near`` (see :func:`_drop_losers`), a second pass over the
    positions counts the keys within :data:`_GUARD_ULPS` ulps of the
    minimum, reusing the gather buffer for the bit gaps; the winner itself
    is one, so a lane with two or more has a near tie.
    """
    best = keys_T[index[:, 0]]
    winner = np.zeros(best.shape, dtype=np.min_scalar_type(index.shape[1] - 1))
    candidate = np.empty_like(best)
    # mode="wrap" is plain indexing for in-range rows, without the buffered
    # copy ``out=`` costs in the default mode.
    for position in range(1, index.shape[1]):
        np.take(keys_T, index[:, position], axis=0, out=candidate, mode="wrap")
        better = candidate < best
        np.copyto(winner, position, where=better)
        np.minimum(best, candidate, out=best)
    if near is not None:
        best_bits, gap = best.view(np.int64), candidate.view(np.int64)
        within = np.empty(best.shape, dtype=bool)
        close = np.zeros(best.shape, dtype=np.min_scalar_type(index.shape[1]))
        for position in range(index.shape[1]):
            np.take(keys_T, index[:, position], axis=0, out=candidate, mode="wrap")
            np.subtract(best_bits, gap, out=gap)
            close += np.less_equal(gap, _GUARD_ULPS, out=within)
        near |= (close > 1).any(axis=0)
    return winner


def _rank_runs(columns: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Order incidences into runs of distinct columns.

    An incidence's rank is how many earlier incidences share its column;
    ``order`` sorts the incidences by rank (stably) and run ``k`` is
    ``order[ends[k-1]:ends[k]]``.  Columns within a run are distinct, so one
    fancy-indexed ``&=`` per run clears them safely — with repeats, a
    fancy-indexed write keeps only the last of them.
    """
    order = np.argsort(columns, kind="stable")
    ordered = columns[order]
    rank = np.empty(columns.size, dtype=np.int64)
    rank[order] = np.arange(order.size) - np.searchsorted(ordered, ordered)
    return np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank)).tolist()


def _and_rows(target: np.ndarray, columns: np.ndarray, won: np.ndarray) -> None:
    """``target[columns[i]] &= won[i]`` for every ``i``, repeats included."""
    order, ends = _rank_runs(columns)
    if len(ends) == 1:  # distinct columns: the rank order is the identity
        target[columns] &= won
        return
    for start, end in zip([0] + ends[:-1], ends):
        run = order[start:end]
        target[columns[run]] &= won[run]


def _run_static(
    compiled: CompiledInstance, keys: np.ndarray, near: Optional[np.ndarray] = None
) -> np.ndarray:
    """Replay a static-priority algorithm over the whole instance at once.

    One window spanning every step, with the identity slot map; returns the
    ``(rows, m)`` completed mask for the ``(rows, m)`` lower-wins ``keys``
    (``near`` is :func:`_drop_losers`' near-tie guard).
    """
    completed = np.ones((keys.shape[0], compiled.num_sets), dtype=bool, order="F")
    _drop_losers(keys, _contested_groups(compiled), completed, near=near)
    return np.ascontiguousarray(completed)


def _randpr_keys(
    uniforms: np.ndarray, exponents: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """randPr's lower-wins order keys ``-(u ** (1/w))``, written into ``out``.

    numpy's SIMD ``pow``, not the bit-exact
    :func:`~repro.engine.rng.exact_pow`: a replay reads the keys only
    through their order inside each contest, and the kernel's near-tie guard
    (``near`` of :func:`_drop_losers`) flags every trial whose order the
    few-ulp error could change, for :func:`_replay_reference`.
    """
    np.power(uniforms, exponents, out=out)
    return np.negative(out, out=out)


def _replay_reference(
    compiled: CompiledInstance, seed: int, trials: Sequence[int], completed: np.ndarray
) -> None:
    """Replay randPr ``trials`` whole from their reference draws, in place.

    The exact path for trials the vectorized keys cannot decide: a 0.0
    uniform (the reference redraws it, so the trial's stream runs ahead) or
    a near tie between approximate keys.
    """
    for trial in trials:
        keys = -reference_priority_row(compiled, seed + trial)
        completed[trial] = _run_static(compiled, keys[np.newaxis])[0]


def _run_drawn(compiled: CompiledInstance, kind: str, trials: int, seed: int) -> np.ndarray:
    """Replay all trials of randPr or uniform-priority; returns the ``(trials, m)`` mask.

    The draws come through :func:`~repro.engine.rng.uniform_blocks`, and
    each block is keyed and replayed before the next is drawn, so an
    over-cap ``(trials, m)`` table is never built: its blocks are lane
    chunks, keyed in one reused F-ordered buffer.  randPr's zero-draw and
    near-tie lanes are replayed from the reference draws at their batch offset.
    """
    m = compiled.num_sets
    completed = np.empty((trials, m), dtype=bool)
    groups = _contested_groups(compiled)
    replay: List[int] = []
    cells = np.empty(0)
    for start, uniforms in rng_bridge.uniform_blocks(seed, trials, m):
        lanes = len(uniforms)
        if cells.size < lanes * m:  # the first block is the widest
            cells = np.empty(lanes * m)
        keys = cells[: lanes * m].reshape(m, lanes).T  # (lanes, m), F-contiguous
        near = None
        if kind == "randPr":
            replay += [start + lane for lane in zero_draw_trials(uniforms)]
            near = np.zeros(lanes, dtype=bool)
            _randpr_keys(uniforms, compiled.priority_exponents, keys)
        else:  # uniform-priority: the draws are the priorities
            np.negative(uniforms, out=keys)
        del uniforms  # an over-cap block is held by nothing else
        block = np.ones((lanes, m), dtype=bool, order="F")
        _drop_losers(keys, groups, block, near=near)
        completed[start : start + lanes] = block
        if near is not None:
            replay += (start + np.flatnonzero(near)).tolist()
    _replay_reference(compiled, seed, sorted(set(replay)), completed)
    return completed


#: The uniform-random replay reads its draws one block of arrival steps at a
#: time; a block holds about this many parents, which bounds its per-block
#: ``(parents, trials)`` outcome and ``(draws, trials)`` draw matrices.
_UNIFORM_STEP_BLOCK = 512


def _uniform_random_plan(compiled: CompiledInstance) -> list:
    """The static layout of the uniform-random replay, per block of steps.

    Only steps with fewer picks than parents draw (``t = min(b(u), w) <
    w``), ``t`` values each, in step order.  Returns one ``(draws, groups)``
    pair per block of such steps: ``draws`` values are read for the block,
    and each group ``(rows, columns)`` holds the block's steps of one
    ``(w, t)``, ``rows[s, i]`` being the block row of step ``s``'s draw
    ``i`` and ``columns`` the ``(steps, w)`` parent columns.
    """
    indptr = compiled.step_indptr
    widths = np.diff(indptr)
    takes = np.minimum(compiled.step_capacities, widths)
    steps = np.flatnonzero(takes < widths)
    if not steps.size:
        return []
    widths, takes, offsets = widths[steps], takes[steps], indptr[steps]
    first_row = np.cumsum(takes) - takes
    parents_before = np.cumsum(widths) - widths
    cuts = (np.flatnonzero(np.diff(parents_before // _UNIFORM_STEP_BLOCK)) + 1).tolist()
    plan = []
    for first, stop in zip([0] + cuts, cuts + [len(steps)]):
        width, take = widths[first:stop], takes[first:stop]
        rows = first_row[first:stop] - first_row[first]
        codes = width * (int(take.max()) + 1) + take
        groups = []
        for code in np.unique(codes).tolist():
            members = np.flatnonzero(codes == code)
            w, t = int(width[members[0]]), int(take[members[0]])
            gather = offsets[first + members][:, np.newaxis] + np.arange(w)
            groups.append(
                (rows[members][:, np.newaxis] + np.arange(t), compiled.step_parents[gather])
            )
        plan.append((int(take.sum()), groups))
    return plan


def _fisher_yates_kept(uniforms: np.ndarray, width: int) -> np.ndarray:
    """Which parent positions a partial Fisher–Yates keeps, per step and lane.

    ``uniforms`` is the ``(steps, t, lanes)`` draws of steps with ``width``
    parents; draw ``i`` swaps position ``i`` with ``i + int(u * (width -
    i))``, as the reference algorithm does, and the first ``t`` positions
    are kept.  Returns the ``(steps, width, lanes)`` mask.
    """
    positions = np.arange(width)[:, np.newaxis]
    if uniforms.shape[1] == 1:  # one draw: the kept position is int(u * width)
        return (uniforms * width).astype(np.intp) == positions
    pool = np.tile(positions, (uniforms.shape[0], 1, uniforms.shape[2]))
    for i in range(uniforms.shape[1]):
        j = (uniforms[:, i : i + 1] * (width - i)).astype(np.intp) + i
        current = pool[:, i : i + 1].copy()
        pool[:, i : i + 1] = np.take_along_axis(pool, j, axis=1)
        np.put_along_axis(pool, j, current, axis=1)
    kept = np.zeros(pool.shape, dtype=bool)
    np.put_along_axis(kept, pool[:, : uniforms.shape[1]], True, axis=1)
    return kept


def _run_uniform_random(
    compiled: CompiledInstance, trials: int, seed: int
) -> np.ndarray:
    """Replay all trials of the uniform-random assignment algorithm.

    Returns the ``(trials, m)`` completed mask.  The algorithm draws fresh
    randomness at every arrival, but a fixed number of ``random()`` values
    (see :class:`~repro.algorithms.random_assign.UniformRandomAlgorithm`),
    so every arrival's draws sit at a stream offset the instance fixes.
    Each lane chunk reads them one block of steps
    (:func:`_uniform_random_plan`) at a time (:func:`_plan_draws`), replays
    every group of equal ``(w, t)`` steps at once
    (:func:`_fisher_yates_kept`), and clears the parents not kept; a set
    survives iff it is kept at every arrival.
    """
    plan = _uniform_random_plan(compiled)
    completed = np.ones((trials, compiled.num_sets), dtype=bool)
    if not plan:
        return completed
    for start, lanes, draws in _plan_draws(seed, trials, [count for count, _ in plan]):
        survived = np.ones((compiled.num_sets, lanes), dtype=bool)
        for (_, groups), uniforms in zip(plan, draws):
            for rows, columns in groups:
                kept = _fisher_yates_kept(uniforms[rows], columns.shape[1])
                _and_rows(survived, columns.ravel(), kept.reshape(-1, lanes))
        completed[start : start + lanes] &= survived.T
    return completed


def _plan_draws(seed: int, trials: int, counts: List[int]):
    """Per lane chunk, ``(start, lanes, draws)``: ``draws`` yields its next
    ``(count, lanes)`` draws for each of ``counts`` in turn.

    They come from the draw table an earlier kind at the same ``(seed,
    trials)`` left cached (:func:`~repro.engine.rng.cached_uniform_matrix`;
    this replay never creates one), else from each trial block's
    :meth:`~repro.engine.rng.WordStreams.chunks` views.
    """
    table = rng_bridge.cached_uniform_matrix(seed, trials, sum(counts))
    if table is not None:
        cuts = np.cumsum(counts)[:-1]
        for start in range(0, trials, rng_bridge._LANE_CHUNK):
            rows = table[start : start + rng_bridge._LANE_CHUNK]
            yield start, len(rows), np.split(rows.T, cuts)
        return
    for start, streams in rng_bridge._trial_blocks(seed, trials):
        for first, lanes in streams.chunks():
            yield start + first, lanes.trials, (lanes.random(count).T for count in counts)


def _run_greedy(compiled: CompiledInstance, kind: str) -> np.ndarray:
    """Replay one run of a state-dependent greedy algorithm (deterministic).

    Returns the ``(1, m)`` completed mask.

    The reference greedy algorithms rank parents by a lexicographic tuple of
    small discrete features; this encodes each tuple as one integer per
    parent (features weighted by the ranges of the levels below them, the
    parent's position last), so the "sort by tuple" becomes "sort by
    integer" and matches exactly.  A single run has no trial axis to
    vectorize over, so the state lives in Python lists and every arrival is
    plain scalar code.
    """
    alive = [True] * compiled.num_sets
    sizes = compiled.sizes.tolist()
    remaining = list(sizes)
    weight_class = compiled.weight_class.tolist()
    # Level ranges for the integer encoding.
    num_classes = max(weight_class, default=0) + 1
    size_range = max(sizes, default=0) + 1
    indptr = compiled.step_indptr.tolist()
    parents = compiled.step_parents.tolist()
    for step, capacity in enumerate(compiled.step_capacities.tolist()):
        columns = parents[indptr[step] : indptr[step + 1]]
        width = len(columns)
        if width <= capacity:
            for column in columns:
                remaining[column] -= 1
            continue
        if kind == "greedy-weight":
            # (not alive, -weight, repr)
            keys = [
                ((not alive[c]) * num_classes + weight_class[c]) * width + p
                for p, c in enumerate(columns)
            ]
        elif kind == "greedy-progress":
            # (not alive, remaining, -weight, repr)
            keys = [
                (((not alive[c]) * size_range + remaining[c]) * num_classes
                 + weight_class[c]) * width + p
                for p, c in enumerate(columns)
            ]
        else:  # greedy-committed
            # (not alive, never assigned, -weight, remaining, repr)
            keys = [
                ((((not alive[c]) * 2 + (remaining[c] == sizes[c])) * num_classes
                  + weight_class[c]) * size_range + remaining[c]) * width + p
                for p, c in enumerate(columns)
            ]
        # Keys are distinct (they end in the position), so the winners are
        # the smallest ``capacity`` of them, and key % width is the position.
        won = [min(keys)] if capacity == 1 else sorted(keys)[:capacity]
        assigned = [False] * width
        for key in won:
            assigned[key % width] = True
        for column, kept in zip(columns, assigned):
            if kept:
                remaining[column] -= 1
            else:
                alive[column] = False
    done = [live and left == 0 for live, left in zip(alive, remaining)]
    return np.array([done], dtype=bool)


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
    elif spec.kind in UNIFORM_DRAW_KINDS:
        completed = _run_drawn(compiled, spec.kind, trials, seed)
    else:
        priorities = priority_matrix(spec, compiled, trials, seed)
        # Negate so that "smallest key wins" with stable index tie-breaks;
        # in place, as the matrix is a fresh array and the table is large.
        completed = _run_static(compiled, np.negative(priorities, out=priorities))
    return _batch_result(spec, compiled, completed, trials, seed)


#: Whether builtin ``sum`` adds floats sequentially, left to right (CPython
#: before 3.12); later interpreters compensate the rounding error, which this
#: probe's exact answer 2.0 shows and a sequential sum's 0.0 does not.
_SEQUENTIAL_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 0.0

#: :func:`sum_benefits` works through row blocks of at most this many cells
#: (a 1 MiB float64 scratch block, which keeps the trace engine's peak flat).
_SUM_BLOCK_CELLS = 1 << 17


def sum_benefits(weights: np.ndarray, completed: np.ndarray) -> np.ndarray:
    """Per row of the ``(rows, m)`` mask ``completed``, its weights' total.

    Bit-equal to the reference engine's ``sum(weights[row].tolist())``.
    Where builtin ``sum`` is sequential (:data:`_SEQUENTIAL_SUM`), one
    ``np.add.accumulate`` along the set axis of ``np.where(row, weights,
    0.0)`` reproduces it: adding ``0.0`` leaves a partial sum unchanged (up
    to the sign of a zero, which the final ``+ 0.0`` settles as ``sum``'s
    ``0.0`` start does), and accumulation, unlike ``np.sum``, never pairs.
    Elsewhere each row keeps its own builtin ``sum``.

    >>> sum_benefits(np.array([1.5, 2.0, 0.25]), np.array([[True, False, True],
    ...                                                   [False, False, False]])).tolist()
    [1.75, 0.0]
    """
    rows, m = completed.shape
    if not _SEQUENTIAL_SUM:
        return np.fromiter(
            (sum(weights[row].tolist()) for row in completed), dtype=np.float64, count=rows
        )
    totals = np.zeros(rows)
    if not m:
        return totals
    step = max(1, _SUM_BLOCK_CELLS // m)
    for start in range(0, rows, step):
        chosen = np.where(completed[start : start + step], weights, 0.0)
        np.add.accumulate(chosen, axis=1, out=chosen)
        np.add(chosen[:, -1], 0.0, out=totals[start : start + step])
    return totals


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
    weights are summed by :func:`sum_benefits`, with the float arithmetic of
    the reference engine's ``sum(...)`` over completed sets.  A one-row mask
    (a deterministic algorithm) stands for every trial.
    """
    if benefits is None:
        benefits = sum_benefits(compiled.weights, completed)
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
