"""One reading of the ``store=`` argument across every entry point.

``None`` means the ``OSP_STORE`` default, ``False`` means off, a path opens
that file and a :class:`SolutionStore` is used as-is; anything else is a
``ValueError``.  Sweeps, matches, battles and stored constructions all go
through :func:`resolve_store_path` / :func:`resolve_store`, so they agree.
"""

import pathlib

import pytest

from repro.algorithms import GreedyWeightAlgorithm
from repro.battles import Battle, run_match
from repro.battles.escalators import GadgetEscalator
from repro.experiments.harness import run_sweep
from repro.experiments.store import (
    STORE_ENV_VAR,
    SolutionStore,
    resolve_store,
    resolve_store_path,
    store_for_path,
)
from repro.lowerbounds import stored_lemma9_instance
from repro.workloads import random_online_instance


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)


def _points():
    def factory(rng):
        return random_online_instance(
            10, 16, (2, 3), rng, weight_range=(1.0, 4.0)
        )

    return [("n=16", factory)]


def _sweep(store):
    return run_sweep(
        "resolver-test",
        _points(),
        [GreedyWeightAlgorithm()],
        instances_per_point=2,
        trials_per_instance=2,
        seed=3,
        engine="auto",
        store=store,
    )


def _battle(store):
    return Battle(
        GreedyWeightAlgorithm(),
        GadgetEscalator(orders=((2, 2), (2, 3))),
        trials=4,
        seed=0,
        store=store,
    )


class TestResolver:
    def test_vocabulary(self, tmp_path, monkeypatch):
        path = str(tmp_path / "r.sqlite")
        assert resolve_store_path(None) is None
        assert resolve_store(None) is None
        monkeypatch.setenv(STORE_ENV_VAR, path)
        assert resolve_store_path(None) == path
        assert resolve_store(None) is store_for_path(path)
        assert resolve_store_path(False) is None
        assert resolve_store(False) is None
        assert resolve_store_path(pathlib.Path(path)) == path
        assert resolve_store(pathlib.Path(path)) is store_for_path(path)
        store = SolutionStore(str(tmp_path / "own.sqlite"))
        assert resolve_store_path(store) == store.path
        assert resolve_store(store) is store
        store.close()
        store_for_path(path).close()

    @pytest.mark.parametrize("value", [True, 0, 1, 2.5, object()])
    def test_other_values_are_errors(self, value):
        with pytest.raises(ValueError):
            resolve_store_path(value)
        with pytest.raises(ValueError):
            resolve_store(value)


class TestStoreTrueIsAnError:
    """Every entry point refuses ``store=True`` the same way."""

    def test_run_sweep(self):
        with pytest.raises(ValueError):
            _sweep(True)

    def test_run_match(self):
        with pytest.raises(ValueError):
            run_match(
                [GreedyWeightAlgorithm()],
                [GadgetEscalator(orders=((2, 2), (2, 3)))],
                trials=4,
                store=True,
            )

    def test_battle(self):
        with pytest.raises(ValueError):
            _battle(True).run()

    def test_stored_lemma9_instance(self):
        with pytest.raises(ValueError):
            stored_lemma9_instance(2, seed=7, store=True)


class TestStoreObjects:
    """A ``SolutionStore`` argument names its own file, never its repr."""

    def test_run_sweep_writes_into_the_passed_store(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = str(tmp_path / "units.sqlite")
        store = SolutionStore(path)
        stored = _sweep(store)
        assert store.stats()["unit_entries"] == 2
        assert _sweep(False).rows == stored.rows
        strays = [
            entry.name
            for entry in tmp_path.iterdir()
            if not entry.name.startswith("units.sqlite")
        ]
        assert strays == []
        store.close()
        store_for_path(path).close()

    def test_run_match_writes_into_the_passed_store(self, tmp_path):
        store = SolutionStore(str(tmp_path / "match.sqlite"))
        run_match(
            [GreedyWeightAlgorithm()],
            [GadgetEscalator(orders=((2, 2), (2, 3)))],
            trials=4,
            store=store,
        )
        assert store.stats()["frontier_entries"] >= 1
        store.close()
        store_for_path(store.path).close()

    def test_battle_uses_the_passed_store(self, tmp_path):
        store = SolutionStore(str(tmp_path / "battle.sqlite"))
        cold = _battle(store).run()
        assert store.frontier_misses >= 1 and store.frontier_hits == 0
        warm = _battle(store).run()
        assert store.frontier_hits == store.frontier_misses
        assert warm == cold
        store.close()

    def test_stored_lemma9_instance_uses_the_passed_store(self, tmp_path):
        store = SolutionStore(str(tmp_path / "lemma9.sqlite"))
        cold = stored_lemma9_instance(2, seed=7, store=store)
        warm = stored_lemma9_instance(2, seed=7, store=store)
        assert (store.construction_misses, store.construction_hits) == (1, 1)
        assert warm.planted_solution == cold.planted_solution
        store.close()
