"""Linear-programming relaxation of the offline set packing program.

The relaxation of the paper's integer program (1) — ``0 ≤ x_i ≤ 1`` instead
of ``x_i ∈ {0, 1}`` — upper-bounds the optimum.  On instances too large for
the exact solver the benchmarks measure ratios against this bound, which can
only *overstate* the competitive ratio, so measured ratios remain valid
witnesses for the paper's upper-bound theorems.

The primary backend is ``scipy.optimize.linprog``; when SciPy is unavailable
a pure-Python dual-feasible bound is used instead (weaker, but still a valid
upper bound on OPT by LP duality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.set_system import ElementId, SetId, SetSystem
from repro.exceptions import SolverError

__all__ = ["LpBound", "lp_relaxation_bound", "dual_feasible_bound"]

try:  # pragma: no cover - exercised indirectly depending on environment
    from scipy.optimize import linprog as _linprog
    from scipy.sparse import csr_matrix as _csr_matrix

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    _linprog = None
    _csr_matrix = None
    _HAVE_SCIPY = False


@dataclass(frozen=True)
class LpBound:
    """An upper bound on the offline optimum."""

    value: float
    method: str
    fractional_solution: Optional[Dict[SetId, float]] = None

    def __repr__(self) -> str:
        return f"LpBound(value={self.value:.4f}, method={self.method!r})"


def dual_feasible_bound(system: SetSystem) -> LpBound:
    """A pure-Python upper bound on OPT via an explicit dual-feasible solution.

    The LP dual asks for element prices ``y_u ≥ 0`` with
    ``sum_{u in S} y_u ≥ w(S)`` for every set; the bound is
    ``sum_u b(u) * y_u``.  Pricing every element of ``S`` at
    ``max_{S' ∋ u} w(S')/|S'|`` is dual feasible, because the elements of
    ``S`` each contribute at least ``w(S)/|S|``.
    """
    prices: Dict[ElementId, float] = {element: 0.0 for element in system.element_ids}
    for set_id in system.set_ids:
        size = system.size(set_id)
        if size == 0:
            continue
        share = system.weight(set_id) / size
        for element in system.members(set_id):
            if share > prices[element]:
                prices[element] = share
    # Sets with no elements are automatically "complete" and must be paid for
    # separately — the dual constraint for an empty set is w(S) <= 0, which a
    # finite price vector cannot satisfy, so add their weight explicitly.
    empty_weight = sum(
        system.weight(set_id) for set_id in system.set_ids if system.size(set_id) == 0
    )
    value = empty_weight + sum(
        system.capacity(element) * price for element, price in prices.items()
    )
    return LpBound(value=value, method="dual-feasible")


def lp_relaxation_bound(system: SetSystem, prefer_scipy: bool = True) -> LpBound:
    """The LP-relaxation upper bound on the offline optimum.

    Uses SciPy's HiGHS solver when available (and ``prefer_scipy`` is left
    on); otherwise falls back to :func:`dual_feasible_bound`.
    """
    if system.num_sets == 0:
        return LpBound(value=0.0, method="empty")
    if not (prefer_scipy and _HAVE_SCIPY):
        return dual_feasible_bound(system)

    set_ids: List[SetId] = list(system.set_ids)
    element_ids: List[ElementId] = list(system.element_ids)
    set_index = {set_id: index for index, set_id in enumerate(set_ids)}

    objective = [-system.weight(set_id) for set_id in set_ids]

    if element_ids:
        # One row per element, its parents' columns sorted: the CSR arrays
        # a row-by-row build would produce, without the per-item inserts.
        indices: List[int] = []
        indptr = [0]
        for element in element_ids:
            indices += sorted(set_index[set_id] for set_id in system.parents(element))
            indptr.append(len(indices))
        constraint = _csr_matrix(
            ([1.0] * len(indices), indices, indptr),
            shape=(len(element_ids), len(set_ids)),
        )
        upper = [float(system.capacity(element)) for element in element_ids]
        result = _linprog(
            objective,
            A_ub=constraint,
            b_ub=upper,
            bounds=[(0.0, 1.0)] * len(set_ids),
            method="highs",
        )
    else:
        result = _linprog(
            objective, bounds=[(0.0, 1.0)] * len(set_ids), method="highs"
        )

    if not result.success:  # pragma: no cover - HiGHS failures are unexpected
        raise SolverError(f"LP relaxation failed: {result.message}")

    fractional = {set_id: float(result.x[set_index[set_id]]) for set_id in set_ids}
    return LpBound(value=-float(result.fun), method="scipy-highs", fractional_solution=fractional)
