"""One battle: an algorithm against one escalating adversary construction.

A :class:`Battle` plays a single online algorithm against a single
:class:`~repro.battles.escalators.InstanceEscalator` in iterated *rounds*.
Each round the escalator builds (or adaptively plays) an instance one level
larger/harder than the last, the algorithm's empirical competitive ratio is
measured on it, and the round is compared against the applicable
:mod:`repro.core.bounds` expression for that construction family.  The battle
stops when the measured ratio crosses the bound — the construction reached
its theoretical frontier — or when the escalation ladder is exhausted.

The per-round records form the algorithm's **empirical frontier** against
that adversary: the worst measured ratio at every instance size the ladder
visited.  Frontiers are plain data (:class:`Frontier` /
:class:`FrontierPoint`), JSON round-trippable, and are what the golden-
fixture regression check in :mod:`repro.battles.match` compares.

Determinism contract (same as the sweep orchestrator): for fixed
``(algorithm, escalator, trials, seed)`` the rounds are bit-identical at any
worker count, with the store off, cold or warm, and under any ``engine``
selection — those knobs only move wall-clock time.  Round seeds come from
:func:`round_seed` (a :func:`~repro.core.seeding.stable_seed` mix),
and every algorithm battling the same escalator at the same level shares the
round seed, preserving the harness's paired-comparison convention.

Computed rounds are persisted in the :class:`~repro.experiments.store.SolutionStore`
``frontiers`` table under the content-addressed :func:`battle_key`, so an
interrupted match resumes without replaying finished rounds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.seeding import stable_seed
from repro.experiments.competitive_ratio import EXACT_SOLVER_SET_LIMIT, validate_engine
from repro.experiments.opt_cache import attached_store, default_opt_cache
from repro.experiments.store import (
    NONEXACT_ENGINES,
    STORE_FORMAT_VERSION,
    algorithm_identity,
    resolve_store,
)

__all__ = [
    "Battle",
    "BattleResult",
    "BattleRound",
    "Frontier",
    "FrontierPoint",
    "battle_key",
    "battle_ratio",
    "round_seed",
]


def battle_ratio(opt_value: float, mean_benefit: float) -> float:
    """The competitive ratio ``opt / alg`` with degenerate cases made explicit.

    The plain quotient is only meaningful when the adversary actually
    produced value for OPT to claim:

    * ``opt <= 0`` — the round's offline optimum is worthless, so the round
      says nothing about the algorithm; the ratio is the neutral ``1.0``
      (never ``0 / alg = 0``, which would claim the algorithm *beat* the
      offline optimum — the true competitive ratio is always at least 1).
      This also covers ``0 / 0`` without raising ``ZeroDivisionError``.
    * ``mean_benefit <= 0`` with ``opt > 0`` — the algorithm was starved
      while OPT gained: ``inf``.

    >>> battle_ratio(8.0, 2.0)
    4.0
    >>> battle_ratio(0.0, 0.0)          # degenerate round: neutral
    1.0
    >>> battle_ratio(0.0, 3.0)          # worthless OPT: still neutral, not 0
    1.0
    >>> battle_ratio(5.0, 0.0)          # starved algorithm
    inf
    """
    if opt_value <= 0:
        return 1.0
    if mean_benefit <= 0:
        return float("inf")
    return opt_value / mean_benefit


def round_seed(seed: int, escalator_name: str, level: int) -> int:
    """The simulation seed for one battle round.

    A pure function of the battle seed, the escalator and the level — and
    deliberately *not* of the algorithm, so every algorithm facing the same
    escalator at the same level plays the same instance draw with the same
    trial seeds (the paired-comparison convention the rest of the harness
    follows).  Derived with :func:`~repro.core.seeding.stable_seed`,
    so any process recomputes the identical value.

    >>> round_seed(0, "lemma9", 0)       # frozen: same value on every platform
    650284884814357234
    >>> round_seed(0, "lemma9", 1) != round_seed(0, "lemma9", 0)
    True
    >>> round_seed(0, "full-gadget", 0) != round_seed(0, "lemma9", 0)
    True
    """
    return stable_seed("battle-round", seed, escalator_name, level)


@dataclass(frozen=True)
class BattleRound:
    """The outcome of one escalation level of a battle.

    ``ratio`` is :func:`battle_ratio` of ``opt_value`` over ``mean_benefit``;
    ``bound`` is the applicable :mod:`repro.core.bounds` expression evaluated
    for this round's instance, and ``bound_name`` names which theorem it is.

    >>> r = BattleRound(level=0, label="ell=2", num_sets=16, trials=8,
    ...                 mean_benefit=2.0, opt_value=8.0, opt_method="planted",
    ...                 ratio=4.0, bound=2.93, bound_name="theorem2")
    >>> r.crossed                   # measured ratio reached the bound
    True
    >>> sorted(r.as_dict())[:4]
    ['bound', 'bound_name', 'crossed', 'label']
    """

    level: int
    label: str
    num_sets: int
    trials: int
    mean_benefit: float
    opt_value: float
    opt_method: str
    ratio: float
    bound: float
    bound_name: str

    @property
    def crossed(self) -> bool:
        """Whether the measured ratio reached the round's theoretical bound."""
        return self.ratio >= self.bound

    def as_dict(self) -> Dict[str, object]:
        """The round as a plain dict (for tables and JSON)."""
        return {
            "level": self.level,
            "label": self.label,
            "num_sets": self.num_sets,
            "trials": self.trials,
            "mean_benefit": self.mean_benefit,
            "opt_value": self.opt_value,
            "opt_method": self.opt_method,
            "ratio": self.ratio,
            "bound": self.bound,
            "bound_name": self.bound_name,
            "crossed": self.crossed,
        }


@dataclass(frozen=True)
class FrontierPoint:
    """One point of an empirical frontier: the worst ratio at one size.

    >>> point = FrontierPoint(level=0, label="ell=2", num_sets=16,
    ...                       ratio=4.0, bound=2.93)
    >>> FrontierPoint.from_dict(point.as_dict()) == point
    True
    """

    level: int
    label: str
    num_sets: int
    ratio: float
    bound: float

    def as_dict(self) -> Dict[str, object]:
        """The point as a JSON-ready dict."""
        return {
            "level": self.level,
            "label": self.label,
            "num_sets": self.num_sets,
            "ratio": self.ratio,
            "bound": self.bound,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FrontierPoint":
        """Rebuild a point from :meth:`as_dict` output."""
        return FrontierPoint(
            level=int(data["level"]),
            label=str(data["label"]),
            num_sets=int(data["num_sets"]),
            ratio=float(data["ratio"]),
            bound=float(data["bound"]),
        )


@dataclass(frozen=True)
class Frontier:
    """An algorithm's empirical frontier against one escalator.

    One :class:`FrontierPoint` per instance size the battle visited, carrying
    the *worst* (largest) measured ratio at that size, sorted by size.  This
    is the unit of the golden-fixture regression check: a frontier regresses
    when any of its per-size ratios gets worse, or when the battle no longer
    reaches a size it used to reach.

    >>> rounds = [BattleRound(0, "a", 4, 1, 2.0, 2.0, "exact", 1.0, 9.0, "c6"),
    ...           BattleRound(1, "b", 4, 1, 1.0, 2.0, "exact", 2.0, 9.0, "c6"),
    ...           BattleRound(2, "c", 8, 1, 1.0, 3.0, "exact", 3.0, 9.0, "c6")]
    >>> f = Frontier.from_rounds("alg", "esc", rounds, "levels-exhausted")
    >>> [(p.num_sets, p.ratio) for p in f.points]   # worst ratio per size
    [(4, 2.0), (8, 3.0)]
    >>> Frontier.from_dict(f.as_dict()) == f
    True
    """

    algorithm_name: str
    escalator_name: str
    points: Tuple[FrontierPoint, ...]
    stop_reason: str

    @staticmethod
    def from_rounds(
        algorithm_name: str,
        escalator_name: str,
        rounds: Sequence[BattleRound],
        stop_reason: str,
    ) -> "Frontier":
        """Collapse battle rounds into the worst-ratio-per-size frontier."""
        worst: Dict[int, BattleRound] = {}
        for battle_round in rounds:
            incumbent = worst.get(battle_round.num_sets)
            if incumbent is None or battle_round.ratio > incumbent.ratio:
                worst[battle_round.num_sets] = battle_round
        points = tuple(
            FrontierPoint(
                level=worst[size].level,
                label=worst[size].label,
                num_sets=size,
                ratio=worst[size].ratio,
                bound=worst[size].bound,
            )
            for size in sorted(worst)
        )
        return Frontier(
            algorithm_name=algorithm_name,
            escalator_name=escalator_name,
            points=points,
            stop_reason=stop_reason,
        )

    def as_dict(self) -> Dict[str, object]:
        """The frontier as a JSON-ready dict (see :meth:`from_dict`)."""
        return {
            "algorithm": self.algorithm_name,
            "escalator": self.escalator_name,
            "stop_reason": self.stop_reason,
            "points": [point.as_dict() for point in self.points],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "Frontier":
        """Rebuild a frontier from :meth:`as_dict` output."""
        return Frontier(
            algorithm_name=str(data["algorithm"]),
            escalator_name=str(data["escalator"]),
            points=tuple(FrontierPoint.from_dict(p) for p in data["points"]),
            stop_reason=str(data["stop_reason"]),
        )


@dataclass(frozen=True)
class BattleResult:
    """Everything one battle produced: the rounds and why it stopped.

    ``stop_reason`` is one of ``"bound-crossed"`` (the measured ratio reached
    the construction's theoretical frontier), ``"levels-exhausted"`` (the
    escalation ladder — or ``max_rounds`` — ran out first) or
    ``"not-applicable"`` (the escalator declined the algorithm, e.g. the
    Theorem 3 adversary facing a randomized algorithm; ``rounds`` is empty).

    >>> rounds = (BattleRound(0, "ell=2", 16, 8, 2.0, 8.0, "planted",
    ...                       4.0, 2.93, "theorem2"),)
    >>> result = BattleResult("randPr", "lemma9", rounds, "bound-crossed")
    >>> result.frontier.points[0].ratio
    4.0
    >>> result.worst_ratio
    4.0
    """

    algorithm_name: str
    escalator_name: str
    rounds: Tuple[BattleRound, ...]
    stop_reason: str

    @property
    def frontier(self) -> Frontier:
        """The battle's rounds collapsed to the worst-ratio-per-size frontier."""
        return Frontier.from_rounds(
            self.algorithm_name, self.escalator_name, self.rounds, self.stop_reason
        )

    @property
    def worst_ratio(self) -> float:
        """The largest measured ratio across the rounds (``0.0`` if none)."""
        return max((r.ratio for r in self.rounds), default=0.0)


def battle_key(
    algorithm,
    escalator,
    level: int,
    seed: int,
    trials: int,
    opt_method: str,
    engine: str = "auto",
) -> Optional[str]:
    """The store key of one battle round, or ``None`` if uncacheable.

    A SHA-256 over every input that determines the round's result: the store
    format version, the escalator's name and declared ``cache_identity``, the
    algorithm's :func:`~repro.experiments.store.algorithm_identity`, the
    level, the battle seed, the trial count, the OPT estimation policy and
    the exact-solver limit.  ``workers`` is deliberately excluded — a pure
    wall-clock knob — and so is the engine *when it is exact*: the exact
    engines agree trial for trial, so keying on them would only split the
    cache between equal rounds.  A non-exact engine
    (:data:`~repro.experiments.store.NONEXACT_ENGINES`, i.e. ``"fast"``)
    produces different bits under a statistical contract and therefore
    contributes an explicit engine tag, the same rule as
    :func:`~repro.experiments.store.unit_key`.

    Either party can decline caching: an algorithm without a stable identity
    (``cache_identity`` absent or ``None``) or an escalator with
    ``cache_identity = None`` makes the round uncacheable and the battle
    bypasses the store for it.

    >>> from repro.algorithms import RandPrAlgorithm
    >>> from repro.battles.escalators import GadgetEscalator
    >>> key = battle_key(RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8, "auto")
    >>> len(key)
    64
    >>> key == battle_key(RandPrAlgorithm(), GadgetEscalator(), 1, 0, 8, "auto")
    False
    >>> key == battle_key(RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8,
    ...                   "auto", engine="batch")     # exact engines share
    True
    >>> key == battle_key(RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8,
    ...                   "auto", engine="fast")      # statistical: own key
    False
    >>> opaque = GadgetEscalator()
    >>> opaque.cache_identity = None    # explicitly uncacheable
    >>> battle_key(RandPrAlgorithm(), opaque, 0, 0, 8, "auto") is None
    True
    """
    algorithm_id = algorithm_identity(algorithm)
    escalator_id = getattr(escalator, "cache_identity", None)
    if algorithm_id is None or escalator_id is None:
        return None
    engine_tag = (f"engine={engine}",) if engine in NONEXACT_ENGINES else ()
    digest = hashlib.sha256()
    for part in (
        f"osp-frontier-v{STORE_FORMAT_VERSION}",
        escalator.name,
        escalator_id,
        algorithm_id,
        str(level),
        str(seed),
        str(trials),
        opt_method,
        str(EXACT_SOLVER_SET_LIMIT),
        *engine_tag,
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


class Battle:
    """One algorithm against one escalator, played to the frontier.

    Parameters follow the harness conventions: ``trials`` simulation trials
    per round (deterministic algorithms collapse to one), ``seed`` the battle
    seed feeding :func:`round_seed`, ``max_rounds`` an optional cap below the
    escalator's ladder length, ``engine`` / ``store`` the usual wall-clock
    knobs.  ``store`` accepts the
    :func:`~repro.experiments.store.resolve_store` vocabulary.

    >>> from repro.algorithms import GreedyWeightAlgorithm
    >>> from repro.battles.escalators import GadgetEscalator
    >>> battle = Battle(GreedyWeightAlgorithm(),
    ...                 GadgetEscalator(orders=((2, 2), (2, 3))),
    ...                 trials=4, seed=0, store=False)
    >>> result = battle.run()
    >>> result.algorithm_name, len(result.rounds) >= 1
    ('greedy-weight', True)
    >>> all(r.opt_value == 1.0 for r in result.rounds)  # Lemma 8: OPT is one set
    True
    """

    def __init__(
        self,
        algorithm,
        escalator,
        trials: int = 16,
        seed: int = 0,
        max_rounds: Optional[int] = None,
        engine: str = "auto",
        opt_method: str = "auto",
        store=None,
    ) -> None:
        validate_engine(engine)
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        if max_rounds is not None and max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
        self.algorithm = algorithm
        self.escalator = escalator
        self.trials = trials
        self.seed = seed
        self.max_rounds = max_rounds
        self.engine = engine
        self.opt_method = opt_method
        self.store = store

    def run(self) -> BattleResult:
        """Play the battle and return its rounds and stop reason.

        The loop is store-resumable: each round is looked up under its
        content-addressed :func:`battle_key` first, and freshly computed
        rounds are written back — stored rounds are bit-identical to
        recomputed ones, so the store can never change a battle's outcome.
        For the duration of the battle the store (or its absence) is also
        attached below the per-process OPT cache, so rounds that estimate
        OPT reuse persisted offline solves.
        """
        if not self.escalator.applies_to(self.algorithm):
            return BattleResult(
                algorithm_name=self.algorithm.name,
                escalator_name=self.escalator.name,
                rounds=(),
                stop_reason="not-applicable",
            )
        backing = resolve_store(self.store)
        budget = self.escalator.num_levels
        if self.max_rounds is not None:
            budget = min(budget, self.max_rounds)
        rounds: List[BattleRound] = []
        stop_reason = "levels-exhausted"
        with attached_store(default_opt_cache(), backing):
            for level in range(budget):
                key = battle_key(
                    self.algorithm,
                    self.escalator,
                    level,
                    self.seed,
                    self.trials,
                    self.opt_method,
                    engine=self.engine,
                )
                battle_round = None
                if backing is not None and key is not None:
                    battle_round = backing.get_frontier(key)
                if battle_round is None:
                    battle_round = self.escalator.play(
                        self.algorithm,
                        level,
                        round_seed(self.seed, self.escalator.name, level),
                        self.trials,
                        engine=self.engine,
                        opt_method=self.opt_method,
                    )
                    if backing is not None and key is not None:
                        backing.put_frontier(key, battle_round)
                rounds.append(battle_round)
                if battle_round.crossed and self.escalator.stop_when_crossed:
                    stop_reason = "bound-crossed"
                    break
        return BattleResult(
            algorithm_name=self.algorithm.name,
            escalator_name=self.escalator.name,
            rounds=tuple(rounds),
            stop_reason=stop_reason,
        )
