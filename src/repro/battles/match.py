"""Matches: the full algorithm × escalator battle grid, run deterministically.

:func:`run_match` plays every algorithm against every escalator, fanning the
battles out over a process pool exactly like the sweep orchestrator fans out
its units: battles are self-contained picklable tasks, mapped in submission
order through :func:`~repro.experiments.resilience.map_ordered`, so the grid
is **bit-identical at any worker count** and with the store off, cold or
warm (``tests/test_battles.py`` enforces both axes).  The store parameter is
shipped to workers as a *path*; each process opens its own connection.

The module also owns the **golden-frontier regression check**: a committed
fixture (:data:`GOLDEN_FRONTIERS_PATH`) records the expected empirical
frontier of each algorithm under the smoke configuration, and
:func:`compare_frontiers` reports every way a freshly battled frontier is
*worse* — a higher worst ratio at any size, a size no longer reached, a
battle that disappeared.  Improvements never trip the check; regenerate the
fixture with ``python -m repro.battles --smoke --write-golden`` after a
deliberate behaviour change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import GreedyWeightAlgorithm, RandPrAlgorithm
from repro.battles.battle import Battle, BattleResult, Frontier
from repro.battles.escalators import (
    AdversarialBurstEscalator,
    DeterministicAdversaryEscalator,
    GadgetEscalator,
    Lemma9Escalator,
)
from repro.exceptions import FrontierRegressionError
from repro.experiments.competitive_ratio import validate_engine
from repro.experiments.parallel import resolve_workers
from repro.experiments.resilience import FailureReport, RetryPolicy, map_ordered
from repro.experiments.report import format_table
from repro.experiments.store import store_path_from_env

__all__ = [
    "GOLDEN_FRONTIERS_PATH",
    "MatchResult",
    "check_frontiers",
    "compare_frontiers",
    "load_frontiers",
    "run_match",
    "run_smoke_match",
    "save_frontiers",
    "smoke_algorithms",
    "smoke_escalators",
    "SMOKE_SEED",
    "SMOKE_TRIALS",
]

#: The committed golden-frontier fixture (regenerate via ``--write-golden``).
GOLDEN_FRONTIERS_PATH = os.path.join(os.path.dirname(__file__), "golden_frontiers.json")

#: The smoke match's measurement parameters (shared by CI and the fixture).
SMOKE_TRIALS = 8
SMOKE_SEED = 2010


@dataclass(frozen=True)
class MatchResult:
    """Every battle of one match, in algorithm-major grid order.

    >>> result = run_smoke_match(store=False, max_rounds=1)
    >>> len(result.battles)                  # 2 algorithms x 4 escalators
    8
    >>> result.battles[0].algorithm_name, result.battles[0].escalator_name
    ('randPr', 'lemma9')
    >>> result.battle_for("randPr", "theorem3-adversary").stop_reason
    'not-applicable'
    >>> result.table().splitlines()[1].split()[:4]
    ['algorithm', 'escalator', 'rounds', 'stop']

    ``failures`` is empty unless the match ran under a
    :class:`~repro.experiments.resilience.RetryPolicy` and some grid cells
    exhausted their retry budget; those battles are then absent from
    ``battles`` and described by their
    :class:`~repro.experiments.resilience.FailureReport` instead.

    >>> result.failures
    ()
    """

    battles: Tuple[BattleResult, ...]
    failures: Tuple[FailureReport, ...] = ()

    @property
    def frontiers(self) -> Tuple[Frontier, ...]:
        """The empirical frontier of every battle, in grid order."""
        return tuple(battle.frontier for battle in self.battles)

    def battle_for(self, algorithm_name: str, escalator_name: str) -> BattleResult:
        """The battle of one grid cell (raises ``KeyError`` if absent)."""
        for battle in self.battles:
            if (
                battle.algorithm_name == algorithm_name
                and battle.escalator_name == escalator_name
            ):
                return battle
        raise KeyError(f"no battle for ({algorithm_name!r}, {escalator_name!r})")

    def table(self) -> str:
        """The match as an aligned plain-text table, one row per battle."""
        rows = []
        for battle in self.battles:
            last = battle.rounds[-1] if battle.rounds else None
            rows.append(
                {
                    "algorithm": battle.algorithm_name,
                    "escalator": battle.escalator_name,
                    "rounds": len(battle.rounds),
                    "stop": battle.stop_reason,
                    "worst_ratio": round(battle.worst_ratio, 4),
                    "last_level": last.label if last is not None else "-",
                    "last_bound": round(last.bound, 4) if last is not None else "-",
                }
            )
        return format_table(rows, title="battle match")


def _run_battle_task(task) -> BattleResult:
    """Run one battle (top level so process-pool workers can pickle it)."""
    algorithm, escalator, trials, seed, max_rounds, engine, opt_method, store = task
    return Battle(
        algorithm,
        escalator,
        trials=trials,
        seed=seed,
        max_rounds=max_rounds,
        engine=engine,
        opt_method=opt_method,
        store=store,
    ).run()


def run_match(
    algorithms: Sequence,
    escalators: Sequence,
    trials: int = 16,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    engine: str = "auto",
    opt_method: str = "auto",
    workers: "int | str" = 1,
    store=None,
    policy: Optional[RetryPolicy] = None,
) -> MatchResult:
    """Battle every algorithm against every escalator.

    The grid is algorithm-major (all escalators of the first algorithm, then
    the second, …) and the result tuple is aligned with it regardless of
    which worker finished first.  ``store`` follows the harness vocabulary
    (``None`` = the ``OSP_STORE`` default, ``False`` = off, or a path /
    :class:`~repro.experiments.store.SolutionStore`); workers receive the
    resolved *path* and open their own connections.  Like ``engine`` and
    ``workers``, the store only moves wall-clock time — the battles are
    bit-identical either way.

    ``policy`` supervises the grid's
    :func:`~repro.experiments.resilience.map_ordered` pool: crashed workers are
    replaced (only the lost battles re-run), transient failures retry with
    deterministic backoff, and a cell that exhausts its budget lands in
    ``MatchResult.failures`` while the rest of the grid completes.  Battles
    are pure functions of their task tuples, so a retried battle reproduces
    the fault-free bits.

    >>> from repro.algorithms import GreedyWeightAlgorithm
    >>> from repro.battles.escalators import GadgetEscalator
    >>> result = run_match([GreedyWeightAlgorithm()],
    ...                    [GadgetEscalator(orders=((2, 2), (2, 3)))],
    ...                    trials=4, seed=0, store=False)
    >>> [(f.algorithm_name, f.escalator_name) for f in result.frontiers]
    [('greedy-weight', 'full-gadget')]
    """
    validate_engine(engine)
    resolve_workers(workers)
    if store is None:
        store_path = store_path_from_env()
    elif store is False:
        store_path = False
    elif isinstance(store, (str, os.PathLike)):
        store_path = str(store)
    else:
        store_path = store.path
    if store_path is None:
        store_path = False
    tasks = [
        (algorithm, escalator, trials, seed, max_rounds, engine, opt_method, store_path)
        for algorithm in algorithms
        for escalator in escalators
    ]
    labels = [
        f"{algorithm.name} vs {escalator.name}"
        for algorithm in algorithms
        for escalator in escalators
    ]
    outcome = map_ordered(
        _run_battle_task, tasks, workers=workers, policy=policy, labels=labels
    )
    return MatchResult(
        battles=tuple(battle for battle in outcome.results if battle is not None),
        failures=tuple(outcome.failures),
    )


def compare_frontiers(
    fresh: Sequence[Frontier],
    golden: Sequence[Frontier],
    rel_tol: float = 1e-6,
) -> List[str]:
    """Every way ``fresh`` is *worse* than ``golden``, as human-readable lines.

    A regression is: a golden battle with no fresh counterpart, a golden
    frontier size the fresh battle no longer reaches (its escalation stopped
    earlier), or a fresh worst-ratio at some size exceeding the golden one
    by more than ``rel_tol`` (relative).  Fresh battles or sizes *absent*
    from the fixture, and ratios that improved, are never regressions —
    the check is one-sided so fixtures only need regenerating when
    behaviour genuinely degrades (or the configuration changes).

    >>> a = Frontier.from_dict({"algorithm": "x", "escalator": "e",
    ...     "stop_reason": "levels-exhausted",
    ...     "points": [{"level": 0, "label": "l0", "num_sets": 4,
    ...                 "ratio": 2.0, "bound": 9.0}]})
    >>> compare_frontiers([a], [a])
    []
    >>> worse = Frontier.from_dict({"algorithm": "x", "escalator": "e",
    ...     "stop_reason": "levels-exhausted",
    ...     "points": [{"level": 0, "label": "l0", "num_sets": 4,
    ...                 "ratio": 3.0, "bound": 9.0}]})
    >>> compare_frontiers([worse], [a])
    ['x vs e at num_sets=4: ratio regressed 2.0 -> 3.0']
    """
    fresh_by_cell: Dict[Tuple[str, str], Frontier] = {
        (frontier.algorithm_name, frontier.escalator_name): frontier
        for frontier in fresh
    }
    regressions: List[str] = []
    for expected in golden:
        cell = (expected.algorithm_name, expected.escalator_name)
        actual = fresh_by_cell.get(cell)
        if actual is None:
            regressions.append(
                f"{cell[0]} vs {cell[1]}: battle missing from the fresh match"
            )
            continue
        actual_by_size = {point.num_sets: point for point in actual.points}
        for point in expected.points:
            fresh_point = actual_by_size.get(point.num_sets)
            if fresh_point is None:
                regressions.append(
                    f"{cell[0]} vs {cell[1]}: no longer reaches "
                    f"num_sets={point.num_sets} (golden ratio {point.ratio})"
                )
                continue
            limit = point.ratio * (1.0 + rel_tol)
            if fresh_point.ratio > limit:
                regressions.append(
                    f"{cell[0]} vs {cell[1]} at num_sets={point.num_sets}: "
                    f"ratio regressed {point.ratio} -> {fresh_point.ratio}"
                )
    return regressions


def check_frontiers(
    fresh: Sequence[Frontier],
    golden: Sequence[Frontier],
    rel_tol: float = 1e-6,
) -> None:
    """Raise :class:`~repro.exceptions.FrontierRegressionError` on regression.

    The exception message carries every :func:`compare_frontiers` line, so a
    failing CI run names each regressed cell at once.

    >>> check_frontiers([], [])             # no golden battles: nothing to check
    >>> golden = Frontier.from_dict({"algorithm": "x", "escalator": "e",
    ...     "stop_reason": "levels-exhausted", "points": []})
    >>> check_frontiers([], [golden])       # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    repro.exceptions.FrontierRegressionError: 1 frontier regression(s):...
    """
    regressions = compare_frontiers(fresh, golden, rel_tol=rel_tol)
    if regressions:
        raise FrontierRegressionError(
            f"{len(regressions)} frontier regression(s):\n"
            + "\n".join(f"  - {line}" for line in regressions)
        )


def save_frontiers(
    frontiers: Sequence[Frontier],
    path: str,
    config: Optional[Dict[str, object]] = None,
) -> None:
    """Write frontiers (plus the producing configuration) as a JSON fixture.

    >>> import tempfile
    >>> fixture = os.path.join(tempfile.mkdtemp(), "golden.json")
    >>> save_frontiers([], fixture, config={"trials": 8})
    >>> load_frontiers(fixture)
    []
    """
    document = {
        "format": 1,
        "config": dict(config or {}),
        "frontiers": [frontier.as_dict() for frontier in frontiers],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_frontiers(path: str) -> List[Frontier]:
    """Read a :func:`save_frontiers` fixture back into :class:`Frontier` records.

    >>> frontiers = load_frontiers(GOLDEN_FRONTIERS_PATH)   # committed fixture
    >>> any(f.algorithm_name == "randPr" for f in frontiers)
    True
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return [Frontier.from_dict(data) for data in document["frontiers"]]


def smoke_algorithms() -> list:
    """The two smoke-match combatants: randPr and the deterministic baseline.

    >>> [algorithm.name for algorithm in smoke_algorithms()]
    ['randPr', 'greedy-weight']
    """
    return [RandPrAlgorithm(), GreedyWeightAlgorithm()]


def smoke_escalators() -> list:
    """The small escalation ladders the smoke match (and fixture) use.

    Chosen to finish in CI-smoke time while still exercising every battle
    path: a frontier-chasing lower-bound family (Lemma 9), two upper-bound
    families (gadget, bursts) and the adaptive Theorem 3 adversary.

    >>> [escalator.name for escalator in smoke_escalators()]
    ['lemma9', 'full-gadget', 'adversarial-burst', 'theorem3-adversary']
    """
    return [
        Lemma9Escalator(ells=(2, 3)),
        GadgetEscalator(orders=((2, 2), (2, 3), (3, 4))),
        AdversarialBurstEscalator(levels=((2, 2, 2), (3, 2, 3), (4, 3, 3))),
        DeterministicAdversaryEscalator(params=((2, 2), (2, 3), (3, 2))),
    ]


def run_smoke_match(
    workers: int = 1,
    store=False,
    engine: str = "auto",
    max_rounds: Optional[int] = None,
) -> MatchResult:
    """The fixed small match CI runs and the golden fixture records.

    >>> result = run_smoke_match(max_rounds=1)
    >>> sorted({battle.algorithm_name for battle in result.battles})
    ['greedy-weight', 'randPr']
    """
    return run_match(
        smoke_algorithms(),
        smoke_escalators(),
        trials=SMOKE_TRIALS,
        seed=SMOKE_SEED,
        max_rounds=max_rounds,
        engine=engine,
        workers=workers,
        store=store,
    )
