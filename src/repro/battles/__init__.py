"""Algorithm-vs-adversary battles with stored empirical frontiers.

The battle harness pits every online algorithm against the paper's
adversarial constructions in iterated, *escalating* rounds — growing the
instance order until the measured competitive ratio crosses the applicable
theorem bound or the escalation ladder runs out — and records each
algorithm's empirical frontier (its worst measured ratio at every instance
size) in the persistent solution store and against a committed golden
fixture.  ``python -m repro.battles --smoke`` is the CI entry point; see
``docs/BATTLES.md`` for the design and the escalator contract.

Layering: :mod:`repro.battles.battle` owns the round/frontier data model and
the single-battle escalation loop, :mod:`repro.battles.escalators` the
pluggable adversary ladders over :mod:`repro.lowerbounds` and
:mod:`repro.workloads`, and :mod:`repro.battles.match` the algorithm ×
escalator grid, the golden fixture and the regression check.

>>> from repro.algorithms import GreedyWeightAlgorithm
>>> from repro.battles import Battle, GadgetEscalator
>>> result = Battle(GreedyWeightAlgorithm(),
...                 GadgetEscalator(orders=((2, 2), (2, 3))),
...                 trials=4, seed=0, store=False).run()
>>> result.frontier.points[0].num_sets
4
"""

from repro.battles.battle import (
    Battle,
    BattleResult,
    BattleRound,
    Frontier,
    FrontierPoint,
    battle_key,
    battle_ratio,
    round_seed,
)
from repro.battles.escalators import (
    AdversarialBurstEscalator,
    DeterministicAdversaryEscalator,
    EscalationArena,
    GadgetEscalator,
    InstanceEscalator,
    Lemma9Escalator,
    TDesignEscalator,
    default_escalator_suite,
)
from repro.battles.match import (
    GOLDEN_FRONTIERS_PATH,
    SMOKE_SEED,
    SMOKE_TRIALS,
    MatchResult,
    check_frontiers,
    compare_frontiers,
    load_frontiers,
    run_match,
    run_smoke_match,
    save_frontiers,
    smoke_algorithms,
    smoke_escalators,
)

__all__ = [
    "AdversarialBurstEscalator",
    "Battle",
    "BattleResult",
    "BattleRound",
    "DeterministicAdversaryEscalator",
    "EscalationArena",
    "Frontier",
    "FrontierPoint",
    "GOLDEN_FRONTIERS_PATH",
    "GadgetEscalator",
    "InstanceEscalator",
    "Lemma9Escalator",
    "MatchResult",
    "SMOKE_SEED",
    "SMOKE_TRIALS",
    "TDesignEscalator",
    "battle_key",
    "battle_ratio",
    "check_frontiers",
    "compare_frontiers",
    "default_escalator_suite",
    "load_frontiers",
    "round_seed",
    "run_match",
    "run_smoke_match",
    "save_frontiers",
    "smoke_algorithms",
    "smoke_escalators",
]
