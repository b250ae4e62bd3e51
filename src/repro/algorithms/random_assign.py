"""Naive randomized baselines.

* :class:`UniformRandomAlgorithm` assigns each arriving element to a uniformly
  random subset of ``b(u)`` parent sets, independently per element.  This is
  the "memoryless random drop" router policy; it lacks randPr's crucial
  property that the *same* set keeps winning, so complete frames are rare.
* :class:`UnweightedPriorityAlgorithm` draws a single uniform priority per set
  (ignoring weights) — randPr with ``R_1`` instead of ``R_w``.  It isolates the
  contribution of the weight-sensitive priority distribution in ablations.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Mapping

from repro.core.algorithm import OnlineAlgorithm
from repro.core.instance import ElementArrival
from repro.core.set_system import SetId, SetInfo

__all__ = ["UniformRandomAlgorithm", "UnweightedPriorityAlgorithm"]


class UniformRandomAlgorithm(OnlineAlgorithm):
    """Assign each element to ``b(u)`` parent sets chosen uniformly at random.

    Fresh randomness per arrival, nothing remembered between arrivals (which
    is exactly why complete sets are rare; see the module docstring).  With
    ``w`` parents and ``t = min(b(u), w)``, an arrival with ``t == w`` takes
    every parent and draws nothing; otherwise a partial Fisher–Yates over
    the parent positions picks the ``t``-subset, draw ``i`` swapping position
    ``i`` with ``i + int(rng.random() * (w - i))``.  Every draw is one
    ``random()`` call (two generator words), so an arrival's draws sit at a
    stream offset fixed by the instance alone, and the batch engine replays
    all arrivals at once from the lockstep streams of
    :mod:`repro.engine.rng`, bit-equal to this reference.  ``int(u * n)``
    is below ``n`` for every double ``u < 1``; each choice deviates from
    uniform by at most ``w * 2**-53``.

    >>> import random
    >>> from repro.core.instance import ElementArrival
    >>> algorithm = UniformRandomAlgorithm()
    >>> algorithm.start({}, random.Random(11))
    >>> mirror = random.Random(11)
    >>> arrival = ElementArrival("u", capacity=1, parents=("A", "B", "C"))
    >>> algorithm.decide(arrival) == {"ABC"[int(mirror.random() * 3)]}
    True
    """

    name = "uniform-random"
    is_deterministic = False
    #: No behaviour-affecting constructor state; the tag names the draw
    #: contract, so rows of the earlier ``random.sample`` contract never
    #: answer for it (see repro.experiments.store.algorithm_identity).
    cache_identity = "fixed-draw"

    def __init__(self) -> None:
        self._rng = random.Random()

    def start(self, set_infos: Mapping[SetId, SetInfo], rng: random.Random) -> None:
        self._rng = rng

    def decide(self, arrival: ElementArrival) -> FrozenSet[SetId]:
        parents = list(arrival.parents)
        width = len(parents)
        take = min(arrival.capacity, width)
        if take < width:  # otherwise every parent is kept, with no draw
            for i in range(take):
                j = i + int(self._rng.random() * (width - i))
                parents[i], parents[j] = parents[j], parents[i]
        return frozenset(parents[:take])


class UnweightedPriorityAlgorithm(OnlineAlgorithm):
    """Per-set uniform priorities (randPr with weights ignored).

    On unweighted instances this coincides with randPr; on weighted instances
    it demonstrates why the ``R_w`` distribution matters (benchmark E12).

    >>> import random
    >>> from repro.core.instance import ElementArrival
    >>> from repro.core.set_system import SetInfo
    >>> algorithm = UnweightedPriorityAlgorithm()
    >>> infos = {"A": SetInfo("A", 9.0, 1), "B": SetInfo("B", 1.0, 1)}
    >>> algorithm.start(infos, random.Random(2))
    >>> mirror = random.Random(2)
    >>> priorities = {"A": mirror.random(), "B": mirror.random()}  # weights ignored
    >>> chosen, = algorithm.decide(ElementArrival("u", capacity=1, parents=("A", "B")))
    >>> chosen == max(priorities, key=priorities.get)
    True
    """

    name = "uniform-priority"
    is_deterministic = False
    #: No behaviour-affecting constructor state: safe to key by type+name
    #: in the persistent store (see repro.experiments.store.algorithm_identity).
    cache_identity = ""

    def __init__(self) -> None:
        self._priorities: Dict[SetId, float] = {}

    def start(self, set_infos: Mapping[SetId, SetInfo], rng: random.Random) -> None:
        self._priorities = {}
        for set_id in sorted(set_infos, key=repr):
            self._priorities[set_id] = rng.random()

    def decide(self, arrival: ElementArrival) -> FrozenSet[SetId]:
        ranked = sorted(
            arrival.parents,
            key=lambda set_id: (-self._priorities.get(set_id, 0.0), repr(set_id)),
        )
        return frozenset(ranked[: arrival.capacity])
