"""The randomized lower-bound construction of Lemma 9 (and Figure 1).

The construction produces a *distribution* over unweighted, unit-capacity OSP
instances with ``ell^4`` sets, all of size ``Θ(ell^2)``, maximum element load
``Θ(ell^2)``, for which

* every instance admits a feasible solution (the *planted* collection ``S``)
  of ``ell^3`` pairwise-disjoint sets, while
* every deterministic online algorithm completes only ``O((log ell / loglog
  ell)^2)`` sets in expectation over the distribution.

The four stages (Figure 1):

I.   The ``ell^4`` sets are split into ``ell^2`` subcollections of ``ell^2``
     sets; each subcollection is placed on an ``(ell, ell)``-gadget under a
     *random* bijection and the gadget is applied without its row lines.
II.  The subcollections are concatenated, ``ell`` at a time (with their rows
     independently permuted at random), into ``ell`` matrices of shape
     ``ell × ell^2``; each receives an ``(ell, ell^2)``-gadget without rows.
III. One row ``u_t`` of each Stage II matrix is chosen at random; the union
     of those rows is the planted collection ``S`` (``ell^3`` sets).  The
     remaining sets get a full ``(ell^2 - ell, ell^2)``-gadget.
IV.  Every set of ``S`` receives ``ell^2`` fresh load-one elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.core.instance import InstanceBuilder, OnlineInstance
from repro.core.set_system import SetId
from repro.exceptions import ConstructionError
from repro.lowerbounds.finite_field import is_prime_power
from repro.lowerbounds.gadget import Gadget, apply_gadget

__all__ = [
    "Lemma9Instance",
    "build_lemma9_instance",
    "stored_lemma9_instance",
    "theoretical_profile",
]


@dataclass(frozen=True)
class Lemma9Instance:
    """One sample from the Lemma 9 distribution, with its planted solution.

    >>> import random
    >>> sample = build_lemma9_instance(2, random.Random(0))
    >>> sample.ell, sample.planted_benefit              # ell, ell ** 3
    (2, 8)
    >>> sample.stage_element_counts["stage1_elements"]  # ell ** 4
    16
    """

    instance: OnlineInstance
    planted_solution: FrozenSet[SetId]
    ell: int
    stage_element_counts: Dict[str, int]

    @property
    def planted_benefit(self) -> int:
        """The value of the planted solution (``ell^3`` by construction)."""
        return len(self.planted_solution)


def theoretical_profile(ell: int) -> Dict[str, float]:
    """The parameter profile Lemma 9 promises for order ``ell``.

    Returns the predicted number of sets, planted optimum, set sizes and the
    exact per-stage element counts; used by tests and the Figure 1 benchmark.

    >>> profile = theoretical_profile(2)
    >>> profile["num_sets"], profile["planted_opt"], profile["sigma_max"]
    (16, 8, 4)
    """
    return {
        "num_sets": ell ** 4,
        "planted_opt": ell ** 3,
        "set_size_planted": ell + 2 * ell ** 2,
        "set_size_other": ell + 2 * ell ** 2 + 1,
        "stage1_elements": ell ** 4,
        "stage2_elements": ell ** 5,
        "stage3_slope_elements": ell ** 4,
        "stage3_row_elements": ell ** 2 - ell,
        "stage4_elements": ell ** 5,
        "sigma_max": ell ** 2,
    }


def build_lemma9_instance(ell: int, rng: random.Random) -> Lemma9Instance:
    """Draw one instance from the Lemma 9 distribution.

    ``ell`` must be a prime power of at least 2 (the gadget orders ``ell`` and
    ``ell^2`` must both be prime powers; the latter follows from the former).

    >>> import random
    >>> sample = build_lemma9_instance(2, random.Random(0))
    >>> sample.instance.system.num_sets                 # ell ** 4
    16
    >>> len(sample.planted_solution)                    # ell ** 3, disjoint
    8
    >>> sample.instance.system.is_feasible_packing(sample.planted_solution)
    True
    >>> build_lemma9_instance(6, random.Random(0))      # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.exceptions.ConstructionError: ell must be a prime power...
    """
    if ell < 2:
        raise ConstructionError(f"the construction needs ell >= 2, got {ell}")
    if not is_prime_power(ell):
        raise ConstructionError(f"ell must be a prime power, got {ell}")

    num_sets = ell ** 4
    set_ids: List[SetId] = [f"S{index}" for index in range(num_sets)]

    builder = InstanceBuilder(name=f"lemma9(ell={ell})")
    for set_id in set_ids:
        builder.declare_set(set_id, 1.0)

    counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Stage I: ell^2 subcollections of ell^2 sets, each on an (ell, ell)
    # gadget without rows, under a uniformly random bijection.
    # ------------------------------------------------------------------
    stage1_gadget = Gadget(ell, ell)
    stage1_position: Dict[SetId, Tuple[int, int, int]] = {}  # set -> (z, row, col)
    stage1_elements = 0
    subcollections: List[List[SetId]] = [
        set_ids[z * ell * ell:(z + 1) * ell * ell] for z in range(ell * ell)
    ]
    for z, subcollection in enumerate(subcollections):
        shuffled = list(subcollection)
        rng.shuffle(shuffled)
        placement: Dict[Tuple[int, int], SetId] = {}
        for index, set_id in enumerate(shuffled):
            row, column = divmod(index, ell)
            placement[(row, column)] = set_id
            stage1_position[set_id] = (z, row, column)
        summary = apply_gadget(
            builder, stage1_gadget, placement, include_rows=False,
            element_prefix=f"I.{z}",
        )
        stage1_elements += summary["slope_elements"]
    counts["stage1_elements"] = stage1_elements

    # ------------------------------------------------------------------
    # Stage II: concatenate ell Stage I subcollections (rows independently
    # permuted) into an ell x ell^2 matrix; (ell, ell^2) gadget without rows.
    # ------------------------------------------------------------------
    stage2_gadget = Gadget(ell, ell * ell)
    stage2_position: Dict[SetId, Tuple[int, int, int]] = {}  # set -> (t, row, col)
    row_permutations: List[List[int]] = []
    for z in range(ell * ell):
        permutation = list(range(ell))
        rng.shuffle(permutation)
        row_permutations.append(permutation)

    stage2_elements = 0
    for t in range(ell):
        placement = {}
        for local in range(ell):
            z = t * ell + local
            permutation = row_permutations[z]
            for set_id in subcollections[z]:
                _, row, column = stage1_position[set_id]
                new_row = permutation[row]
                new_column = column + ell * local
                placement[(new_row, new_column)] = set_id
                stage2_position[set_id] = (t, new_row, new_column)
        summary = apply_gadget(
            builder, stage2_gadget, placement, include_rows=False,
            element_prefix=f"II.{t}",
        )
        stage2_elements += summary["slope_elements"]
    counts["stage2_elements"] = stage2_elements

    # ------------------------------------------------------------------
    # Stage III: plant one row per Stage II matrix; the rest get a full
    # (ell^2 - ell, ell^2) gadget (slope lines and row lines).
    # ------------------------------------------------------------------
    chosen_rows = [rng.randrange(ell) for _ in range(ell)]
    planted: List[SetId] = [
        set_id
        for set_id, (t, row, _column) in stage2_position.items()
        if row == chosen_rows[t]
    ]
    planted_set = frozenset(planted)
    others = [set_id for set_id in set_ids if set_id not in planted_set]

    stage3_rows = ell * ell - ell
    stage3_gadget = Gadget(stage3_rows, ell * ell)
    placement = {}
    for index, set_id in enumerate(sorted(others, key=repr)):
        row, column = divmod(index, ell * ell)
        placement[(row, column)] = set_id
    summary = apply_gadget(
        builder, stage3_gadget, placement, include_rows=True, element_prefix="III",
    )
    counts["stage3_slope_elements"] = summary["slope_elements"]
    counts["stage3_row_elements"] = summary["row_elements"]

    # ------------------------------------------------------------------
    # Stage IV: ell^2 load-one elements for every planted set.
    # ------------------------------------------------------------------
    stage4_elements = 0
    for set_id in sorted(planted_set, key=repr):
        for extra in range(ell * ell):
            builder.add_element([set_id], capacity=1, element_id=f"IV.{set_id}.{extra}")
            stage4_elements += 1
    counts["stage4_elements"] = stage4_elements

    instance = builder.build()
    if not instance.system.is_feasible_packing(planted_set):  # pragma: no cover
        raise ConstructionError("internal error: planted solution is not feasible")

    return Lemma9Instance(
        instance=instance,
        planted_solution=planted_set,
        ell=ell,
        stage_element_counts=counts,
    )


def stored_lemma9_instance(ell: int, seed: int, store=None) -> Lemma9Instance:
    """``build_lemma9_instance(ell, random.Random(seed))``, store-memoized.

    The construction is a pure function of ``(ell, seed)`` — the only RNG it
    consumes is the one seeded here — and at larger orders it dominates the
    Theorem 2 benchmark's setup time, so the sample is memoized in the
    persistent solution store (:mod:`repro.experiments.store`) under the key
    ``lemma9|ell=<ell>|seed=<seed>``.  ``store`` follows the
    :func:`~repro.experiments.store.resolve_store` convention: a
    :class:`~repro.experiments.store.SolutionStore` (used as-is) or a path,
    ``None`` to use the ``OSP_STORE``-named default, or ``False`` to force
    memoization off.  Without a store this is exactly
    :func:`build_lemma9_instance`; a warm hit returns the pickled sample,
    byte-for-byte the one the cold call computed.

    >>> import os, random, tempfile
    >>> path = os.path.join(tempfile.mkdtemp(), "constructions.sqlite")
    >>> cold = stored_lemma9_instance(2, seed=7, store=path)
    >>> cold.planted_solution == build_lemma9_instance(2, random.Random(7)).planted_solution
    True
    >>> warm = stored_lemma9_instance(2, seed=7, store=path)   # answered from disk
    >>> warm.planted_solution == cold.planted_solution
    True
    >>> from repro.experiments.store import store_for_path
    >>> store_for_path(path).stats()["construction_hits"]
    1
    >>> store_for_path(path).close()
    """
    # Imported lazily: repro.lowerbounds is a core-layer package and must
    # stay importable without the experiments layer (and the experiments
    # package imports instances from core, so a top-level import could
    # become circular as the layers grow).
    from repro.experiments.store import resolve_store

    backing = resolve_store(store)

    # Normalize once and use the normalized values for BOTH the key and the
    # construction: keying on int(seed) while seeding with the raw value
    # would let stored_lemma9_instance(2, 1.5) poison the (2, 1) entry.
    ell = int(ell)
    seed = int(seed)
    key = f"lemma9|ell={ell}|seed={seed}"
    if backing is not None:
        cached = backing.get_construction(key)
        if cached is not None:
            return cached
    sample = build_lemma9_instance(ell, random.Random(seed))
    if backing is not None:
        backing.put_construction(key, sample)
    return sample
