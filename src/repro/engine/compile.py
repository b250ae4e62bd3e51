"""Compile an :class:`~repro.core.instance.OnlineInstance` to numpy arrays.

The reference simulator re-walks the instance's Python object graph on every
trial; the batch engine instead compiles the instance *once* into flat numpy
arrays and then replays any number of trials against them:

* sets become columns ``0..m-1`` in the deterministic ``repr`` order of
  ``SetSystem.set_ids`` — the same order every reference algorithm uses for
  tie-breaking, which is what makes the two engines bit-for-bit comparable;
* the element→parent-set incidence becomes a CSR-style pair
  (``step_indptr``, ``step_parents``) indexed by *arrival step*, so a trial
  is a linear scan over two integer arrays;
* per-step capacities, set sizes and set weights become dense vectors.

Compilation is pure bookkeeping — no randomness, no algorithm state — so a
:class:`CompiledInstance` can be shared freely between algorithm specs,
trials and threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.instance import OnlineInstance
from repro.core.set_system import SetId

__all__ = [
    "CompiledInstance",
    "compile_instance",
    "FastCompiledInstance",
    "compile_instance_fast",
]

#: Weight used for priority draws in place of a zero declared weight; keeps
#: the engine's draws identical to ``RandPrAlgorithm.start``'s clamping.
ZERO_WEIGHT_CLAMP = 1e-12


@dataclass(frozen=True)
class CompiledInstance:
    """An :class:`OnlineInstance` flattened into numpy arrays.

    Attributes
    ----------
    set_ids:
        The set identifiers in column order (``sorted by repr``); column ``j``
        of every per-set array refers to ``set_ids[j]``.
    weights:
        ``(m,)`` float64 — the declared set weights.
    clamped_weights:
        ``(m,)`` float64 — weights with zeros replaced by
        :data:`ZERO_WEIGHT_CLAMP`, matching the reference algorithms' clamp
        for priority sampling.
    sizes:
        ``(m,)`` int64 — declared set sizes ``|S|``.
    step_indptr / step_parents:
        CSR incidence over arrival steps: the parent columns of the element
        arriving at step ``t`` are
        ``step_parents[step_indptr[t]:step_indptr[t+1]]``, in ascending
        column order (equivalently, ``repr`` order of the set identifiers).
    step_capacities:
        ``(n,)`` int64 — the capacity ``b(u)`` of the element at each step.
    weight_class:
        ``(m,)`` int64 — the *dense* rank of each column's weight in
        descending order (0 = heaviest; equal weights share a rank).  The
        greedy algorithms compare ``-weight`` as one level of a lexicographic
        key; a dense rank reproduces that comparison with integers, leaving
        later key levels (progress, identifier) to break weight ties exactly
        as the reference implementations do.
    priority_exponents:
        ``(m,)`` float64 — ``1.0 / clamped_weights``, the per-column
        inverse-CDF exponents of the ``R_w`` priority distribution.  IEEE
        division is correctly rounded, so the elementwise quotient is
        bit-equal to the scalar ``1.0 / weight`` the reference algorithms
        compute per draw (``tests/test_engine_rng.py`` pins this).

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> compiled = compile_instance(OnlineInstance(system, name="demo"))
    >>> compiled
    CompiledInstance('demo', sets=2, steps=3, incidences=4)
    >>> compiled.set_ids
    ('A', 'B')
    >>> compiled.parents_of_step(1)   # element "v" belongs to both sets
    array([0, 1])
    """

    name: str
    set_ids: Tuple[SetId, ...]
    set_index: Mapping[SetId, int] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    clamped_weights: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    step_indptr: np.ndarray = field(repr=False)
    step_parents: np.ndarray = field(repr=False)
    step_capacities: np.ndarray = field(repr=False)
    weight_class: np.ndarray = field(repr=False)
    priority_exponents: np.ndarray = field(repr=False)

    @property
    def num_sets(self) -> int:
        """The number of sets ``m`` (columns)."""
        return len(self.set_ids)

    @property
    def num_steps(self) -> int:
        """The number of arrival steps ``n``."""
        return len(self.step_capacities)

    @property
    def num_incidences(self) -> int:
        """The total number of element-set incidences."""
        return int(self.step_indptr[-1]) if len(self.step_indptr) else 0

    def parents_of_step(self, step: int) -> np.ndarray:
        """The parent columns of the element arriving at ``step``."""
        return self.step_parents[self.step_indptr[step] : self.step_indptr[step + 1]]

    @classmethod
    def from_columns(cls, *, weights: np.ndarray, **arrays):
        """Build from the structural arrays, deriving the weight constants.

        ``clamped_weights``, ``weight_class`` and ``priority_exponents`` are
        functions of ``weights`` alone; deriving them in one place keeps
        every compiler (:func:`compile_instance`, the streaming engine's
        ``compile_trace``) bit-identical on them.
        """
        clamped = np.where(weights > 0.0, weights, ZERO_WEIGHT_CLAMP)
        # Dense descending rank of the weights: heaviest class is 0, equal
        # weights share a class.
        unique_weights = np.unique(weights)  # ascending, deduplicated
        weight_class = (len(unique_weights) - 1) - np.searchsorted(unique_weights, weights)
        return cls(
            weights=weights,
            clamped_weights=clamped,
            weight_class=weight_class.astype(np.int64),
            priority_exponents=1.0 / clamped,
            **arrays,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledInstance({self.name!r}, sets={self.num_sets}, "
            f"steps={self.num_steps}, incidences={self.num_incidences})"
        )


def compile_instance(instance: OnlineInstance) -> CompiledInstance:
    """Flatten ``instance`` into a :class:`CompiledInstance`.

    The column order is ``instance.system.set_ids`` (deterministic ``repr``
    order), and the parents of every step are stored in ascending column
    order — so a *stable* sort of a priority row breaks ties exactly like the
    reference algorithms' ``(-priority, repr(set_id))`` sort key.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> compiled = compile_instance(OnlineInstance(system, name="demo"))
    >>> compiled.weights.tolist(), compiled.sizes.tolist()
    ([2.0, 1.0], [2, 2])
    >>> compiled.weight_class.tolist()   # dense descending weight rank
    [0, 1]
    """
    system = instance.system
    set_ids = system.set_ids
    set_index: Dict[SetId, int] = {set_id: j for j, set_id in enumerate(set_ids)}

    m = len(set_ids)
    weights = np.fromiter(
        (system.weight(set_id) for set_id in set_ids), dtype=np.float64, count=m
    )
    sizes = np.fromiter(
        (system.size(set_id) for set_id in set_ids), dtype=np.int64, count=m
    )

    indptr = np.zeros(instance.num_steps + 1, dtype=np.int64)
    parents_flat = []
    capacities = np.ones(instance.num_steps, dtype=np.int64)
    for step, arrival in enumerate(instance.arrivals()):
        columns = [set_index[set_id] for set_id in arrival.parents]
        # ``SetSystem.parents`` already yields repr order == column order;
        # sort defensively so the tie-break guarantee never depends on it.
        columns.sort()
        parents_flat.extend(columns)
        indptr[step + 1] = indptr[step] + len(columns)
        capacities[step] = arrival.capacity

    return CompiledInstance.from_columns(
        name=instance.name,
        set_ids=set_ids,
        set_index=set_index,
        weights=weights,
        sizes=sizes,
        step_indptr=indptr,
        step_parents=np.asarray(parents_flat, dtype=np.int64),
        step_capacities=capacities,
    )


@dataclass(frozen=True)
class FastCompiledInstance(CompiledInstance):
    """The float32/int32 narrowing of a :class:`CompiledInstance`.

    The statistical ``engine="fast"`` backend does not replay the reference
    draws bit for bit, so it is free to trade float64 for float32 in the
    per-trial priority arithmetic (halving the bandwidth of the dominant
    ``(trials, m)`` matrices) and int64 for int32 in the CSR incidence.  The
    fields are the exact compilation's, so the shared replay kernels run on
    it unchanged — but the exact engines refuse it
    (:func:`~repro.engine.cache.compiled_for`), since its float32 exponents
    would not reproduce the reference draws.  Two deliberate exceptions
    keep the *measurements* trustworthy:

    * ``weights`` stays float64 — per-trial benefits are accumulated in
      float64 (a matmul against this vector), so batch means do not drift
      with the trial count;
    * the column order and the CSR layout are identical to the exact
      compilation, so the fast engine's tie-breaks follow the same
      deterministic column order (only the float32 rounding of near-tied
      priorities differs — a statistical effect, never a structural one).

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> fast = compile_instance_fast(OnlineInstance(system, name="demo"))
    >>> fast
    FastCompiledInstance('demo', sets=2, steps=3, incidences=4)
    >>> fast.priority_exponents.dtype, fast.step_parents.dtype
    (dtype('float32'), dtype('int32'))
    >>> fast.weights.dtype                  # benefits stay float64
    dtype('float64')
    """

    def __repr__(self) -> str:
        return "Fast" + super().__repr__()


def compile_instance_fast(compiled: "CompiledInstance") -> FastCompiledInstance:
    """Derive the float32/int32 :class:`FastCompiledInstance` view.

    Takes the exact compilation (so both engines share one instance walk) and
    narrows the priority-arithmetic arrays; see
    :class:`FastCompiledInstance` for which arrays narrow and which must not.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"], "B": ["v", "w"]},
    ...                    weights={"A": 2.0, "B": 1.0})
    >>> exact = compile_instance(OnlineInstance(system, name="demo"))
    >>> fast = compile_instance_fast(exact)
    >>> fast.set_ids == exact.set_ids       # identical column order
    True
    >>> fast.clamped_weights.dtype
    dtype('float32')
    """
    if isinstance(compiled, OnlineInstance):
        compiled = compile_instance(compiled)
    # Clamp into float32's range rather than let the cast overflow to inf
    # (the exponent of a subnormal weight): a finite huge exponent ranks the
    # same, and in-range values cast exactly as before.
    limits = np.finfo(np.float32)

    def narrow(values: np.ndarray) -> np.ndarray:
        return np.clip(values, limits.min, limits.max).astype(np.float32)

    return FastCompiledInstance(
        name=compiled.name,
        set_ids=compiled.set_ids,
        set_index=compiled.set_index,
        weights=compiled.weights,
        clamped_weights=narrow(compiled.clamped_weights),
        sizes=compiled.sizes.astype(np.int32),
        step_indptr=compiled.step_indptr.astype(np.int32),
        step_parents=compiled.step_parents.astype(np.int32),
        step_capacities=compiled.step_capacities.astype(np.int32),
        weight_class=compiled.weight_class.astype(np.int32),
        priority_exponents=narrow(compiled.priority_exponents),
    )
