"""Random set-system generators used by tests and benchmarks.

These produce the "typical case" workloads for the upper-bound experiments:
weighted or unweighted set systems with controllable set sizes, element
loads and capacities.  All generators are deterministic given their RNG.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.instance import OnlineInstance
from repro.core.set_system import SetSystem
from repro.exceptions import OspError

__all__ = [
    "random_set_system",
    "random_online_instance",
    "random_variable_capacity_instance",
    "random_weighted_instance",
]


def random_set_system(
    num_sets: int,
    num_elements: int,
    set_size_range: Tuple[int, int],
    rng: random.Random,
    weight_range: Tuple[float, float] = (1.0, 1.0),
    capacity_range: Tuple[int, int] = (1, 1),
) -> SetSystem:
    """A random set system: each set picks a random number of random elements.

    Elements that end up in no set are dropped (they would be irrelevant to
    both the algorithms and the bounds).

    >>> import random
    >>> system = random_set_system(5, 8, (2, 3), random.Random(0))
    >>> system.num_sets
    5
    >>> all(2 <= system.size(set_id) <= 3 for set_id in system.set_ids)
    True
    >>> system.is_unit_capacity()    # the default capacity range is (1, 1)
    True
    """
    if num_sets < 1 or num_elements < 1:
        raise OspError("need at least one set and one element")
    low, high = set_size_range
    if low < 1 or high < low or high > num_elements:
        raise OspError(
            f"invalid set size range {set_size_range} for {num_elements} elements"
        )

    sets: Dict[str, List[str]] = {}
    weights: Dict[str, float] = {}
    for index in range(num_sets):
        size = rng.randint(low, high)
        members = rng.sample(range(num_elements), size)
        set_id = f"S{index}"
        sets[set_id] = [f"u{member}" for member in members]
        w_low, w_high = weight_range
        weights[set_id] = w_low if w_low == w_high else rng.uniform(w_low, w_high)

    used_elements = {element for members in sets.values() for element in members}
    c_low, c_high = capacity_range
    if c_low < 1 or c_high < c_low:
        raise OspError(f"invalid capacity range {capacity_range}")
    # Sorted, so the capacity draws do not follow the set's hash order.
    capacities = {
        element: (c_low if c_low == c_high else rng.randint(c_low, c_high))
        for element in sorted(used_elements)
    }
    return SetSystem(sets, weights=weights, capacities=capacities)


def random_online_instance(
    num_sets: int,
    num_elements: int,
    set_size_range: Tuple[int, int],
    rng: random.Random,
    weight_range: Tuple[float, float] = (1.0, 1.0),
    capacity_range: Tuple[int, int] = (1, 1),
    name: str = "",
) -> OnlineInstance:
    """A random instance with a uniformly random arrival order.

    Deterministic given the RNG: the same seed reproduces both the system
    and the arrival order.

    >>> import random
    >>> instance = random_online_instance(6, 10, (2, 3), random.Random(1), name="demo")
    >>> instance.name
    'demo'
    >>> replay = random_online_instance(6, 10, (2, 3), random.Random(1), name="demo")
    >>> replay.arrival_order == instance.arrival_order
    True
    """
    system = random_set_system(
        num_sets,
        num_elements,
        set_size_range,
        rng,
        weight_range=weight_range,
        capacity_range=capacity_range,
    )
    order = list(system.element_ids)
    rng.shuffle(order)
    return OnlineInstance(system, order, name=name or "random")


def random_weighted_instance(
    num_sets: int,
    num_elements: int,
    set_size_range: Tuple[int, int],
    rng: random.Random,
    weight_range: Tuple[float, float] = (1.0, 10.0),
    name: str = "",
) -> OnlineInstance:
    """Shorthand for a weighted unit-capacity random instance.

    >>> import random
    >>> instance = random_weighted_instance(
    ...     5, 9, (2, 3), random.Random(2), weight_range=(1.0, 6.0))
    >>> all(1.0 <= instance.system.weight(s) <= 6.0
    ...     for s in instance.system.set_ids)
    True
    >>> instance.system.is_unit_capacity()
    True
    """
    return random_online_instance(
        num_sets,
        num_elements,
        set_size_range,
        rng,
        weight_range=weight_range,
        capacity_range=(1, 1),
        name=name or "random-weighted",
    )


def random_variable_capacity_instance(
    num_sets: int,
    num_elements: int,
    set_size_range: Tuple[int, int],
    capacity_range: Tuple[int, int],
    rng: random.Random,
    weight_range: Tuple[float, float] = (1.0, 1.0),
    name: str = "",
) -> OnlineInstance:
    """Shorthand for a variable-capacity random instance (for Theorem 4).

    >>> import random
    >>> instance = random_variable_capacity_instance(
    ...     5, 9, (2, 3), (1, 3), random.Random(3))
    >>> all(1 <= instance.system.capacity(u) <= 3
    ...     for u in instance.system.element_ids)
    True
    """
    if capacity_range[0] < 1:
        raise OspError("capacities must be at least 1")
    return random_online_instance(
        num_sets,
        num_elements,
        set_size_range,
        rng,
        weight_range=weight_range,
        capacity_range=capacity_range,
        name=name or "random-variable-capacity",
    )
