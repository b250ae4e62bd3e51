"""Tests for the persistent solution store (:mod:`repro.experiments.store`).

The contract under test mirrors the orchestrator's: the store is a
*wall-clock* knob, never a numerics knob.  Sweep rows must be bit-identical
with the store enabled, disabled, warm or cold, at any worker count; two
processes writing the same key must converge to one entry; and a damaged
store file (or row) must be quarantined with a warning — never crash a run,
never silently serve garbled data.
"""

import os
import pickle
import sqlite3
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from repro.algorithms import (
    GreedyWeightAlgorithm,
    RandPrAlgorithm,
    UniformRandomAlgorithm,
)
from repro.algorithms.deterministic import StaticOrderAlgorithm
from repro.algorithms.hashed import HashedRandPrAlgorithm
from repro.engine import clear_compile_cache
from repro.experiments import (
    OptCache,
    SolutionStore,
    StoreCorruptionWarning,
    estimate_opt,
    run_sweep,
    store_for_path,
    unit_key,
)
from repro.experiments.opt_cache import default_opt_cache
from repro.experiments.store import (
    STORE_ENV_VAR,
    algorithm_identity,
    instance_fingerprint,
    set_default_store_path,
    store_path_from_env,
)
from repro.workloads import random_online_instance

import random


@pytest.fixture(autouse=True)
def _isolate_default_cache(monkeypatch):
    """Keep the process-wide default cache free of test store attachments."""
    monkeypatch.delenv(STORE_ENV_VAR, raising=False)
    cache = default_opt_cache()
    cache.clear()
    cache.store = None
    clear_compile_cache()
    yield
    cache = default_opt_cache()
    cache.clear()
    cache.store = None


def _system(weight=2.0):
    from repro.core import SetSystem

    return SetSystem(
        sets={"A": ["u", "v"], "B": ["v", "w"], "C": ["x"]},
        weights={"A": weight, "B": 1.0, "C": 3.0},
    )


def _points():
    points = []
    for num_elements in (30, 20):
        def factory(rng, num_elements=num_elements):
            return random_online_instance(
                14, num_elements, (2, 3), rng, weight_range=(1.0, 5.0)
            )

        points.append((f"n={num_elements}", factory))
    return points


def _sweep(store=None, workers=1):
    return run_sweep(
        "store-test",
        _points(),
        [RandPrAlgorithm(), GreedyWeightAlgorithm(), UniformRandomAlgorithm()],
        instances_per_point=2,
        trials_per_instance=10,
        seed=5,
        engine="auto",
        workers=workers,
        store=store,
    )


class TestSolutionStoreBasics:
    def test_opt_roundtrip(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s.sqlite"))
        assert store.get_opt("k1") is None
        estimate = estimate_opt(_system())
        store.put_opt("k1", estimate)
        assert store.get_opt("k1") == estimate
        assert store.stats()["opt_entries"] == 1
        assert store.stats()["opt_hits"] == 1
        assert store.stats()["opt_misses"] == 1

    def test_first_writer_wins(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s.sqlite"))
        store.put_opt("k", "first")
        store.put_opt("k", "second")
        assert store.get_opt("k") == "first"
        assert store.stats()["opt_entries"] == 1

    def test_persists_across_connections(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        first = SolutionStore(path)
        first.put_unit("u", {"rows": [1.0, 2.5]})
        first.close()
        second = SolutionStore(path)
        assert second.get_unit("u") == {"rows": [1.0, 2.5]}

    def test_store_for_path_is_per_process_singleton(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        assert store_for_path(path) is store_for_path(path)

    def test_close_evicts_from_registry(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        store = store_for_path(path)
        store.put_opt("k", "v")
        store.close()
        reopened = store_for_path(path)
        assert reopened is not store  # a dead store must never be handed out
        assert reopened.get_opt("k") == "v"
        assert reopened.stats()["opt_entries"] == 1

    def test_env_wiring(self, tmp_path):
        path = str(tmp_path / "env.sqlite")
        set_default_store_path(path)
        try:
            assert store_path_from_env() == os.environ[STORE_ENV_VAR] == path
            cache = default_opt_cache()
            cache.store = None
            assert default_opt_cache().store is store_for_path(path)
        finally:
            set_default_store_path(None)
            default_opt_cache().store = None
        assert store_path_from_env() is None


class TestOptCacheStoreTier:
    def test_read_through_write_back(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s.sqlite"))
        first_cache = OptCache(store=store)
        estimate = estimate_opt(_system(), cache=first_cache)
        assert first_cache.misses == 1 and first_cache.store_hits == 0
        assert store.stats()["opt_entries"] == 1

        # A fresh cache (a "new process") is answered by the store tier.
        second_cache = OptCache(store=store)
        again = estimate_opt(_system(), cache=second_cache)
        assert again == estimate
        assert second_cache.misses == 1 and second_cache.store_hits == 1

        # And the value is now promoted to memory: no further store reads.
        hits_before = store.opt_hits
        estimate_opt(_system(), cache=second_cache)
        assert second_cache.hits == 1
        assert store.opt_hits == hits_before

    def test_store_never_changes_value(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s.sqlite"))
        stored = estimate_opt(_system(), cache=OptCache(store=store))
        fresh = estimate_opt(_system())
        warm = estimate_opt(_system(), cache=OptCache(store=store))
        assert stored == fresh == warm


class TestSweepBitIdentity:
    def test_rows_identical_store_off_cold_warm_across_workers(self, tmp_path):
        baseline = _sweep(store=None)
        for workers in (1, 2):
            path = str(tmp_path / f"s{workers}.sqlite")
            cold = _sweep(store=path, workers=workers)
            warm = _sweep(store=path, workers=workers)
            assert cold.rows == baseline.rows
            assert warm.rows == baseline.rows

    def test_warm_sweep_is_answered_from_the_store(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        _sweep(store=path)
        store = store_for_path(path)
        assert store.stats()["unit_entries"] == 4
        before = store.unit_hits
        _sweep(store=path)
        assert store.unit_hits == before + 4

    def test_resume_completes_a_partial_store(self, tmp_path):
        # Simulate a crash after two of four units: store only a prefix by
        # running a one-instance-per-point sweep into the same file first.
        path = str(tmp_path / "s.sqlite")
        run_sweep(
            "store-test",
            _points(),
            [RandPrAlgorithm(), GreedyWeightAlgorithm(), UniformRandomAlgorithm()],
            instances_per_point=1,
            trials_per_instance=10,
            seed=5,
            engine="auto",
            store=path,
        )
        store = store_for_path(path)
        assert store.stats()["unit_entries"] == 2
        hits_before = store.unit_hits
        resumed = _sweep(store=path)
        # The two stored units were reused; only the two new ones ran.
        assert store.unit_hits == hits_before + 2
        assert store.stats()["unit_entries"] == 4
        assert resumed.rows == _sweep(store=None).rows

    def test_store_none_does_not_leak_previous_attachment(self, tmp_path):
        # A sweep with an explicit store must not leave that store attached
        # to the process-wide OPT cache: a later store=None sweep would
        # silently keep persisting into (and reading from) the old file.
        path = str(tmp_path / "s.sqlite")
        _sweep(store=path)
        store = store_for_path(path)
        entries_before = store.stats()["opt_entries"]
        run_sweep(
            "store-test",
            _points(),
            [RandPrAlgorithm()],
            instances_per_point=2,
            trials_per_instance=10,
            seed=6,  # different content: would add entries if leaked
            engine="auto",
            store=None,
        )
        assert store.stats()["opt_entries"] == entries_before
        assert default_opt_cache().store is None

    def test_store_false_forces_persistence_off(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, path)
        forced_off = _sweep(store=False)
        stats = store_for_path(path).stats()
        assert stats["opt_entries"] == 0 and stats["unit_entries"] == 0
        # None (the default) *does* honour OSP_STORE…
        via_env = _sweep(store=None)
        assert store_for_path(path).stats()["unit_entries"] == 4
        assert via_env.rows == forced_off.rows
        # …and True is a type error, not a path.
        with pytest.raises(ValueError):
            _sweep(store=True)

    def test_explicit_store_does_not_shadow_env_store(self, tmp_path, monkeypatch):
        env_path = str(tmp_path / "env.sqlite")
        explicit_path = str(tmp_path / "explicit.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, env_path)
        _sweep(store=explicit_path)
        assert store_for_path(explicit_path).stats()["unit_entries"] == 4
        # The sweep's explicit store applied only inside its units: the
        # process default is still the environment store, so later direct
        # users persist where OSP_STORE says, not into the sweep's file.
        assert default_opt_cache().store is store_for_path(env_path)
        estimate_opt(_system(), cache=default_opt_cache())
        assert store_for_path(env_path).stats()["opt_entries"] == 1
        explicit_entries = store_for_path(explicit_path).stats()["opt_entries"]
        estimate_opt(_system(weight=4.0), cache=default_opt_cache())
        assert store_for_path(explicit_path).stats()["opt_entries"] == explicit_entries

    def test_cross_sweep_reuse_rewrites_indices(self, tmp_path):
        # A one-point sweep stores units at point_index 0; a two-point sweep
        # whose *second* point has identical content must reuse them and
        # still merge correctly (indices are rewritten on load).
        path = str(tmp_path / "s.sqlite")
        algorithms = [RandPrAlgorithm()]
        points = _points()
        seeds_differ = run_sweep(
            "store-test", points, algorithms, instances_per_point=2,
            trials_per_instance=10, seed=5, engine="auto", store=path,
        )
        store = store_for_path(path)
        hits_before = store.unit_hits
        # Same content at a shifted position: single-point sweep of point 0.
        single = run_sweep(
            "store-test", points[:1], algorithms, instances_per_point=2,
            trials_per_instance=10, seed=5, engine="auto", store=path,
        )
        assert store.unit_hits == hits_before + 2
        assert [row.mean_ratio for row in single.rows] == [
            row.mean_ratio
            for row in seeds_differ.rows
            if row.parameter_label == "n=30"
        ]


class TestAlgorithmIdentity:
    def test_base_identity_includes_type_and_name(self):
        identity = algorithm_identity(RandPrAlgorithm())
        assert "randpr" in identity.lower()
        assert identity == algorithm_identity(RandPrAlgorithm())

    def test_unknown_algorithm_without_cache_identity_is_uncacheable(self):
        from repro.core.algorithm import OnlineAlgorithm

        class MysteryAlgorithm(OnlineAlgorithm):
            name = "mystery"
            is_deterministic = True

            def __init__(self, knob=0):
                self._knob = knob

            def decide(self, arrival):
                return frozenset(arrival.parents[: arrival.capacity])

        # No cache_identity opt-in: the key cannot capture `knob`, so the
        # store must be bypassed rather than risk serving knob=0 results
        # for a knob=1 run.
        assert algorithm_identity(MysteryAlgorithm(knob=1)) is None
        instance = random_online_instance(6, 8, (2, 3), random.Random(0))
        assert unit_key(instance, 1, [MysteryAlgorithm()], 5, "auto", 60) is None

    def test_constructor_state_distinguishes_same_class_instances(self):
        from repro.algorithms.partial_reward import HedgingAlgorithm

        assert algorithm_identity(RandPrAlgorithm(tie_break_by_id=True)) != (
            algorithm_identity(RandPrAlgorithm(tie_break_by_id=False))
        )
        assert algorithm_identity(HedgingAlgorithm(epsilon=0.1)) != (
            algorithm_identity(HedgingAlgorithm(epsilon=0.5))
        )

    def test_salted_algorithms_distinguished_by_salt(self):
        a = algorithm_identity(StaticOrderAlgorithm(salt="a"))
        b = algorithm_identity(StaticOrderAlgorithm(salt="b"))
        assert a != b
        ha = algorithm_identity(HashedRandPrAlgorithm(salt="a"))
        hb = algorithm_identity(HashedRandPrAlgorithm(salt="b"))
        hn = algorithm_identity(HashedRandPrAlgorithm())
        assert len({ha, hb, hn}) == 3

    def test_custom_hash_family_is_uncacheable(self):
        from repro.distributed.hashing import UniversalHashFamily

        algorithm = HashedRandPrAlgorithm(hash_family=UniversalHashFamily(seed=1))
        assert algorithm_identity(algorithm) is None
        instance = random_online_instance(6, 8, (2, 3), random.Random(0))
        assert unit_key(instance, 1, [algorithm], 5, "auto", 60) is None

    def test_fixed_draw_contract_moves_only_uniform_random_keys(self):
        """uniform-random's draw contract changed its numbers, so its tag
        moved; every other identity and every unit without it must still be
        byte-equal to the keys written under the ``random.sample`` contract
        (the literals below), or warm stores would miss for no reason."""
        from repro.algorithms import UnweightedPriorityAlgorithm

        sample_contract = "repro.algorithms.random_assign.UniformRandomAlgorithm|uniform-random"
        assert algorithm_identity(UniformRandomAlgorithm()) == sample_contract + "|fixed-draw"
        assert algorithm_identity(RandPrAlgorithm()) == (
            "repro.algorithms.randpr.RandPrAlgorithm|randPr|tie_break_by_id=True"
        )
        assert algorithm_identity(UnweightedPriorityAlgorithm()) == (
            "repro.algorithms.random_assign.UnweightedPriorityAlgorithm|uniform-priority"
        )
        assert algorithm_identity(GreedyWeightAlgorithm()) == (
            "repro.algorithms.greedy.GreedyWeightAlgorithm|greedy-weight"
        )
        instance = random_online_instance(12, 10, (2, 3), random.Random(1))
        units = {
            "4106f51b1e5cb56646d139bc4a2288a49cc894362b6f6018601ed27ef7bae85e": [
                RandPrAlgorithm()
            ],
            "b76b1d04192a755f23039b524f560f6dbb558022e6f0270ba3a9bcc3e9606718": [
                UnweightedPriorityAlgorithm(),
                GreedyWeightAlgorithm(),
            ],
            "3c47cf4016342e8a8f4e1854aabc7fa501c29d42d58ec81b8263ada2d0950d24": [
                RandPrAlgorithm(),
                UniformRandomAlgorithm(),
            ],
            "57f24e4eb6db1715de5ab8c3a81c0e1941695794c6bc80d072d448a40d98cfaf": [
                UniformRandomAlgorithm()
            ],
        }
        for old_key, algorithms in units.items():
            new_key = unit_key(instance, 5, algorithms, 40, "auto", 18)
            moved = any(isinstance(a, UniformRandomAlgorithm) for a in algorithms)
            assert (new_key != old_key) == moved, [a.name for a in algorithms]

    def test_unit_key_sensitive_to_each_input(self):
        instance = random_online_instance(6, 8, (2, 3), random.Random(0))
        other = random_online_instance(6, 8, (2, 3), random.Random(1))
        algorithms = [RandPrAlgorithm()]
        base = unit_key(instance, 1, algorithms, 5, "auto", 60)
        assert base is not None
        assert base != unit_key(other, 1, algorithms, 5, "auto", 60)
        assert base != unit_key(instance, 2, algorithms, 5, "auto", 60)
        assert base != unit_key(instance, 1, algorithms, 6, "auto", 60)
        assert base != unit_key(instance, 1, algorithms, 5, "exact", 60)
        assert base != unit_key(instance, 1, algorithms, 5, "auto", 50)
        assert base != unit_key(
            instance, 1, [RandPrAlgorithm(), GreedyWeightAlgorithm()], 5, "auto", 60
        )

    def test_instance_fingerprint_covers_order_and_name(self):
        instance = random_online_instance(6, 8, (2, 3), random.Random(0))
        shuffled = instance.shuffled(random.Random(1))
        assert instance_fingerprint(instance) != instance_fingerprint(shuffled)
        renamed = instance.with_order(instance.arrival_order, name="other")
        assert instance_fingerprint(instance) != instance_fingerprint(renamed)
        rebuilt = instance.with_order(instance.arrival_order)
        assert instance_fingerprint(instance) == instance_fingerprint(rebuilt)


_WRITER_SCRIPT = """
import sys
from repro.experiments.store import SolutionStore

path, key, value = sys.argv[1], sys.argv[2], sys.argv[3]
store = SolutionStore(path)
for _ in range(200):
    store.put_opt(key, value)
print(store.get_opt(key))
"""


class TestConcurrency:
    def test_concurrent_writers_converge_to_one_entry(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, path, "shared-key", f"value-{i}"],
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for i in range(4)
        ]
        outputs = [process.communicate(timeout=120) for process in processes]
        assert all(process.returncode == 0 for process in processes), outputs

        store = SolutionStore(path)
        assert store.stats()["opt_entries"] == 1
        winner = store.get_opt("shared-key")
        assert winner in {f"value-{i}" for i in range(4)}
        # Every process observed the same single entry once it was written.
        final_reads = {out.strip().splitlines()[-1] for out, _err in outputs}
        assert final_reads == {winner}

    def test_parallel_sweep_workers_share_one_store(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        _sweep(store=path, workers=4)
        store = store_for_path(path)
        stats = store.stats()
        assert stats["unit_entries"] == 4  # one entry per unit, no duplicates
        assert _sweep(store=path, workers=4).rows == _sweep(store=None).rows


class TestCorruptionHandling:
    def test_garbled_file_is_quarantined_with_warning(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_text("this is not a sqlite database, not even close")
        with pytest.warns(StoreCorruptionWarning, match="quarantined"):
            store = SolutionStore(str(path))
        # The damaged file was moved aside, and the fresh store works.
        assert (tmp_path / "s.sqlite.corrupt").exists()
        store.put_opt("k", "value")
        assert store.get_opt("k") == "value"

    def test_directory_at_store_path_is_never_quarantined(self, tmp_path):
        # A directory at the path is the user's data, not a corrupt store:
        # opening must fail loudly and leave the directory untouched.
        directory = tmp_path / "results"
        directory.mkdir()
        (directory / "precious.txt").write_text("user data")
        with pytest.raises(sqlite3.OperationalError):
            SolutionStore(str(directory))
        assert directory.is_dir()
        assert (directory / "precious.txt").read_text() == "user data"
        assert not (tmp_path / "results.corrupt").exists()

    def test_truncated_file_is_quarantined(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("k", "value")
        store.close()
        data = path.read_bytes()
        path.write_bytes(data[: max(16, len(data) // 8)])
        with pytest.warns(StoreCorruptionWarning):
            reopened = SolutionStore(str(path))
        assert reopened.get_opt("k") is None  # fresh store, not a crash
        reopened.put_opt("k", "value-2")
        assert reopened.get_opt("k") == "value-2"

    def test_wrong_format_version_is_quarantined(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("k", "value")
        store.close()
        connection = sqlite3.connect(str(path))
        connection.execute("UPDATE meta SET value = '999' WHERE key = 'format_version'")
        connection.commit()
        connection.close()
        with pytest.warns(StoreCorruptionWarning, match="format version"):
            reopened = SolutionStore(str(path))
        assert reopened.get_opt("k") is None

    def test_garbled_row_is_dropped_not_served(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("k", {"value": 1.5})
        store.close()
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE opt SET payload = ? WHERE key = 'k'",
            (b"garbage-bytes-not-a-pickle",),
        )
        connection.commit()
        connection.close()
        reopened = SolutionStore(str(path))
        with pytest.warns(StoreCorruptionWarning, match="checksum"):
            assert reopened.get_opt("k") is None
        assert reopened.integrity_failures == 1
        assert reopened.stats()["opt_entries"] == 0  # the bad row was dropped

    def test_row_with_forged_checksum_fails_deserialization_safely(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("k", "value")
        store.close()
        import hashlib

        garbage = b"\x80\x05garbage-that-is-not-a-valid-pickle"
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE opt SET payload = ?, checksum = ? WHERE key = 'k'",
            (garbage, hashlib.sha256(garbage).hexdigest()),
        )
        connection.commit()
        connection.close()
        reopened = SolutionStore(str(path))
        with pytest.warns(StoreCorruptionWarning, match="deserialize"):
            assert reopened.get_opt("k") is None

    def test_integrity_report_checks_every_row(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("a", 1)
        store.put_unit("b", 2)
        assert store.integrity_report() == {"checked": 2, "dropped": 0}

    def test_concurrent_opens_of_a_corrupt_file_never_crash(self, tmp_path):
        # Workers racing on a corrupt store must all end up with a working
        # store (one quarantines, the rest retry onto the rebuilt file) —
        # never a crashed sweep.
        path = str(tmp_path / "s.sqlite")
        (tmp_path / "s.sqlite").write_text("definitely not a sqlite database")
        script = (
            "import sys, warnings\n"
            "from repro.experiments.store import SolutionStore\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('ignore')\n"
            "    store = SolutionStore(sys.argv[1])\n"
            "store.put_opt('k', 'v')\n"
            "assert store.get_opt('k') == 'v'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, path],
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        outputs = [process.communicate(timeout=120) for process in processes]
        assert all(process.returncode == 0 for process in processes), outputs

    def test_sweep_survives_a_corrupt_store_file(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.write_text("garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            sweep = _sweep(store=str(path))
        assert sweep.rows == _sweep(store=None).rows


class TestFormatStabilityAcrossEngineRewrites:
    """The store format must survive engine-internal rewrites.

    The batch engine's randomized-priority path was rewritten onto the
    vectorized RNG bridge (``repro.engine.rng``) with a bit-identity
    guarantee, so stored results remain valid and
    ``STORE_FORMAT_VERSION`` must *not* be bumped: a store written before
    the rewrite keeps yielding warm hits after it.  These pins make both
    halves of that contract loud: the version constant itself, and warm
    hits across the two priority-path implementations that coexist in the
    codebase (the reference simulator's scalar draws vs. the bridge).
    """

    def test_store_format_version_is_pinned(self):
        # Bump this pin ONLY together with a deliberate
        # ``STORE_FORMAT_VERSION`` bump (which quarantines all old stores).
        # An engine rewrite that keeps results bit-identical — like the RNG
        # bridge — must leave both untouched.  History: 1 → 2 when the key
        # composition gained the non-exact engine tag (``engine="fast"``
        # results enter the store under their own keys).
        from repro.experiments.store import STORE_FORMAT_VERSION

        assert STORE_FORMAT_VERSION == 2

    def test_store_written_by_reference_engine_warms_bridge_engine(self, tmp_path):
        """Unit keys exclude the engine, and the engines agree bit for bit:
        rows stored by the scalar reference path must be warm hits for the
        bridge-backed batch path (the in-repo proxy for "a store written
        before the rewrite yields warm hits after it")."""
        path = str(tmp_path / "cross-engine.sqlite")
        algorithms = [RandPrAlgorithm(), GreedyWeightAlgorithm()]

        def sweep(engine):
            return run_sweep(
                "store-test",
                _points(),
                algorithms,
                instances_per_point=2,
                trials_per_instance=10,
                seed=5,
                engine=engine,
                store=path,
            )

        cold_reference = sweep("reference")
        store = store_for_path(path)
        assert store.stats()["unit_entries"] == 4
        hits_before = store.unit_hits
        warm_bridge = sweep("auto")
        assert store.unit_hits == hits_before + 4  # every unit answered warm
        assert warm_bridge.rows == cold_reference.rows


class TestNonExactEngineKeys:
    """``engine="fast"`` results enter the store under their own keys.

    The fast engine computes *different bits* (statistically equivalent,
    not bit-identical), so it is the one engine that must NOT share keys
    with the others: a fast row warm-hitting an exact sweep — or vice
    versa — would silently change that sweep's numbers.  Exact engines
    keep sharing keys exactly as before (the pin above).  The format
    version was bumped 1 → 2 with this key-composition change, so every
    pre-fast store file is quarantined wholesale rather than mixing key
    vocabularies.
    """

    @staticmethod
    def _unit_key(engine="auto", **overrides):
        instance = random_online_instance(
            8, 12, (2, 3), random.Random(0), weight_range=(1.0, 4.0), name="k"
        )
        arguments = dict(
            instance=instance,
            measure_seed=5,
            algorithms=[RandPrAlgorithm()],
            trials=10,
            opt_method="auto",
            exact_set_limit=18,
            engine=engine,
        )
        arguments.update(overrides)
        return unit_key(**arguments)

    def test_fast_unit_key_is_isolated_and_exact_keys_shared(self):
        base = self._unit_key()
        assert base == self._unit_key(engine="reference")
        assert base == self._unit_key(engine="batch")
        fast = self._unit_key(engine="fast")
        assert fast is not None and fast != base

    def test_every_payload_knob_moves_the_unit_key(self):
        """Tripwire: each input that can change a unit's payload must change
        its key.  A new payload-affecting knob added to the unit without a
        key part shows up here as a missing entry — extend ``variations``
        in the same commit that adds the knob."""
        other_instance = random_online_instance(
            8, 12, (2, 3), random.Random(1), weight_range=(1.0, 4.0), name="k"
        )
        variations = {
            "instance": dict(instance=other_instance),
            "measure_seed": dict(measure_seed=6),
            "algorithms": dict(algorithms=[GreedyWeightAlgorithm()]),
            "trials": dict(trials=11),
            "opt_method": dict(opt_method="lp"),
            "exact_set_limit": dict(exact_set_limit=19),
            "engine": dict(engine="fast"),
        }
        import inspect

        payload_parameters = set(inspect.signature(unit_key).parameters)
        assert payload_parameters == set(variations) | {"instance"}, (
            "unit_key grew a parameter without a tripwire variation — add it "
            "here and decide whether it belongs in the hash"
        )
        base = self._unit_key()
        for name, override in variations.items():
            assert self._unit_key(**override) != base, (
                f"varying {name!r} did not change the unit key — stored "
                "results would silently shadow different computations"
            )

    def test_fast_battle_key_is_isolated_and_exact_keys_shared(self):
        from repro.battles.battle import battle_key
        from repro.battles.escalators import GadgetEscalator

        base = battle_key(RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8, "auto")
        assert base == battle_key(
            RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8, "auto", engine="batch"
        )
        fast = battle_key(
            RandPrAlgorithm(), GadgetEscalator(), 0, 0, 8, "auto", engine="fast"
        )
        assert fast is not None and fast != base

    def test_fast_sweep_never_warm_hits_exact_rows(self, tmp_path):
        """End to end through the orchestrator: an exact sweep's stored
        units must all be cold misses for the same sweep under
        ``engine="fast"`` (and the fast rows then warm later fast runs)."""
        path = str(tmp_path / "fast-isolation.sqlite")

        def sweep(engine):
            return run_sweep(
                "store-test",
                _points(),
                [RandPrAlgorithm()],
                instances_per_point=2,
                trials_per_instance=10,
                seed=5,
                engine=engine,
                store=path,
            )

        exact = sweep("auto")
        store = store_for_path(path)
        assert store.stats()["unit_entries"] == 4
        hits_before = store.unit_hits
        fast_cold = sweep("fast")
        assert store.unit_hits == hits_before  # zero warm hits across contracts
        assert store.stats()["unit_entries"] == 8  # fast rows stored separately
        assert fast_cold.rows != exact.rows  # different sampler, different rows
        hits_before = store.unit_hits
        fast_warm = sweep("fast")
        assert store.unit_hits == hits_before + 4  # fast warms fast
        assert fast_warm.rows == fast_cold.rows

    def test_version_1_store_is_quarantined_wholesale(self, tmp_path):
        """A pre-fast (format 1) file must be quarantined on open — its keys
        were composed without the engine tag, so *none* of its rows may be
        served, not even the ones whose keys happen to coincide."""
        path = tmp_path / "old.sqlite"
        store = SolutionStore(str(path))
        store.put_unit("some-v1-key", {"rows": [1]})
        store.close()
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE meta SET value = '1' WHERE key = 'format_version'"
        )
        connection.commit()
        connection.close()
        with pytest.warns(StoreCorruptionWarning, match="format version"):
            reopened = SolutionStore(str(path))
        assert reopened.get_unit("some-v1-key") is None  # fresh, empty store
        assert reopened.stats()["unit_entries"] == 0
        reopened.close()


class TestStoreCli:
    """The ``python -m repro.experiments.store`` maintenance verbs."""

    @staticmethod
    def _populated(path):
        store = SolutionStore(str(path))
        store.put_opt("opt-a", 1.5)
        store.put_opt("opt-b", 2.5)
        store.put_unit("unit-a", {"rows": [1, 2]})
        store.close()

    def test_inspect_reports_counts(self, tmp_path, capsys):
        from repro.experiments.store import STORE_FORMAT_VERSION, main

        path = tmp_path / "s.sqlite"
        self._populated(path)
        assert main(["inspect", str(path)]) == 0
        output = capsys.readouterr().out
        assert "opt entries:    2" in output
        assert "unit entries:   1" in output
        assert f"format version: {STORE_FORMAT_VERSION}" in output

    def test_inspect_check_flags_garbled_rows(self, tmp_path, capsys):
        from repro.experiments.store import main

        path = tmp_path / "s.sqlite"
        self._populated(path)
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE opt SET payload = ? WHERE key = 'opt-a'", (b"garbage",)
        )
        connection.commit()
        connection.close()
        assert main(["inspect", "--check", str(path)]) == 1
        assert "2/3 rows valid" in capsys.readouterr().out
        # Read-only: the garbled row was reported, not repaired.
        store = SolutionStore(str(path))
        assert len(store) == 3
        store.close()

    def test_inspect_refuses_missing_and_foreign_files(self, tmp_path):
        from repro.experiments.store import main

        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "nope.sqlite")])
        foreign = tmp_path / "foreign.sqlite"
        foreign.write_text("not a database")
        with pytest.raises(SystemExit):
            main(["inspect", str(foreign)])
        assert foreign.read_text() == "not a database"  # never quarantined

    def test_vacuum_drops_garbled_rows_and_shrinks(self, tmp_path, capsys):
        from repro.experiments.store import main

        path = tmp_path / "s.sqlite"
        self._populated(path)
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE units SET payload = ? WHERE key = 'unit-a'", (b"garbage",)
        )
        connection.commit()
        connection.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            assert main(["vacuum", str(path)]) == 0
        assert "dropped 1 garbled" in capsys.readouterr().out
        store = SolutionStore(str(path))
        assert store.get_unit("unit-a") is None
        assert store.get_opt("opt-a") == 1.5
        store.close()

    def test_merge_combines_and_skips_garbled(self, tmp_path, capsys):
        from repro.experiments.store import main

        first = tmp_path / "a.sqlite"
        second = tmp_path / "b.sqlite"
        self._populated(first)
        store = SolutionStore(str(second))
        store.put_opt("opt-b", 2.5)  # duplicate key: destination keeps one
        store.put_opt("opt-c", 9.0)
        store.close()
        connection = sqlite3.connect(str(second))
        connection.execute(
            "UPDATE opt SET payload = ? WHERE key = 'opt-c'", (b"garbage",)
        )
        connection.commit()
        connection.close()
        destination = tmp_path / "merged.sqlite"
        assert main(["merge", str(destination), str(first), str(second)]) == 0
        output = capsys.readouterr().out
        assert "skipped 1 garbled" in output
        merged = SolutionStore(str(destination))
        assert merged.get_opt("opt-a") == 1.5
        assert merged.get_opt("opt-b") == 2.5
        assert merged.get_opt("opt-c") is None  # garbled source row skipped
        assert merged.get_unit("unit-a") == {"rows": [1, 2]}
        merged.close()

    def test_merge_refuses_destination_as_source(self, tmp_path):
        from repro.experiments.store import main

        path = tmp_path / "s.sqlite"
        self._populated(path)
        with pytest.raises(SystemExit):
            main(["merge", str(path), str(path)])

    def test_merge_creates_destination_parent_directories(self, tmp_path, capsys):
        """Merging into a path whose parent directories do not exist yet must
        create them — fabric reducers point ``merge`` at per-run output
        directories that nothing else has created."""
        from repro.experiments.store import main

        source = tmp_path / "s.sqlite"
        self._populated(source)
        destination = tmp_path / "runs" / "2026-08" / "merged.sqlite"
        assert not destination.parent.exists()
        assert main(["merge", str(destination), str(source)]) == 0
        capsys.readouterr()
        assert destination.is_file()
        merged = SolutionStore(str(destination))
        assert merged.get_opt("opt-a") == 1.5
        assert merged.get_unit("unit-a") == {"rows": [1, 2]}
        merged.close()


class TestConstructionMemoization:
    """Store-backed memoization of the Lemma 9 construction (``constructions``
    table): a warm hit returns the stored sample without rebuilding, keys
    cover every input, and ``store=False`` forces the memoization off."""

    def test_lemma9_warm_hit_skips_the_rebuild(self, tmp_path, monkeypatch):
        import repro.lowerbounds.randomized_construction as construction_module
        from repro.lowerbounds import build_lemma9_instance, stored_lemma9_instance

        path = str(tmp_path / "constructions.sqlite")
        cold = stored_lemma9_instance(2, seed=7, store=path)
        direct = build_lemma9_instance(2, random.Random(7))
        assert instance_fingerprint(cold.instance) == instance_fingerprint(
            direct.instance
        )
        assert cold.planted_solution == direct.planted_solution

        def exploding_build(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("warm hit must not rebuild the construction")

        monkeypatch.setattr(
            construction_module, "build_lemma9_instance", exploding_build
        )
        warm = stored_lemma9_instance(2, seed=7, store=path)
        assert instance_fingerprint(warm.instance) == instance_fingerprint(
            cold.instance
        )
        assert warm.planted_solution == cold.planted_solution
        assert warm.stage_element_counts == cold.stage_element_counts
        store = store_for_path(path)
        assert store.stats()["construction_hits"] == 1
        assert store.stats()["construction_entries"] == 1
        store.close()

    def test_key_covers_ell_and_seed(self, tmp_path):
        from repro.lowerbounds import build_lemma9_instance, stored_lemma9_instance

        store = SolutionStore(str(tmp_path / "keys.sqlite"))
        first = stored_lemma9_instance(2, seed=0, store=store)
        other_seed = stored_lemma9_instance(2, seed=1, store=store)
        assert instance_fingerprint(first.instance) != instance_fingerprint(
            other_seed.instance
        )
        assert store.stats()["construction_entries"] == 2
        assert store.construction_hits == 0  # distinct keys: no reuse
        # A non-int seed is normalized BEFORE both keying and construction,
        # so the (2, 1) entry serves exactly build(2, Random(1))'s sample.
        normalized = stored_lemma9_instance(2, seed=1.0, store=store)
        assert store.construction_hits == 1
        assert normalized.planted_solution == (
            build_lemma9_instance(2, random.Random(1)).planted_solution
        )
        store.close()

    def test_store_false_forces_memoization_off(self, tmp_path, monkeypatch):
        from repro.lowerbounds import build_lemma9_instance, stored_lemma9_instance

        env_path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, env_path)
        sample = stored_lemma9_instance(2, seed=4, store=False)
        reference = build_lemma9_instance(2, random.Random(4))
        assert sample.planted_solution == reference.planted_solution
        assert not os.path.exists(env_path)  # nothing opened, nothing written

    def test_none_uses_the_env_default_store(self, tmp_path, monkeypatch):
        from repro.lowerbounds import stored_lemma9_instance

        env_path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, env_path)
        stored_lemma9_instance(2, seed=9, store=None)
        store = store_for_path(env_path)
        assert store.stats()["construction_entries"] == 1
        store.close()

    def test_garbled_construction_row_is_dropped_and_recomputed(self, tmp_path):
        from repro.lowerbounds import stored_lemma9_instance

        path = str(tmp_path / "garbled.sqlite")
        cold = stored_lemma9_instance(2, seed=3, store=path)
        store_for_path(path).close()
        connection = sqlite3.connect(path)
        connection.execute("UPDATE constructions SET payload = ?", (b"garbage",))
        connection.commit()
        connection.close()
        store = SolutionStore(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            recomputed = stored_lemma9_instance(2, seed=3, store=store)
        assert recomputed.planted_solution == cold.planted_solution
        assert store.integrity_failures == 1
        store.close()

    def test_cli_inspect_and_merge_carry_constructions(self, tmp_path, capsys):
        from repro.experiments.store import main
        from repro.lowerbounds import stored_lemma9_instance

        source = tmp_path / "with-constructions.sqlite"
        sample = stored_lemma9_instance(2, seed=7, store=str(source))
        store_for_path(str(source)).close()
        assert main(["inspect", str(source)]) == 0
        assert "construction entries: 1" in capsys.readouterr().out

        destination = tmp_path / "merged.sqlite"
        assert main(["merge", str(destination), str(source)]) == 0
        assert "1 construction" in capsys.readouterr().out
        merged = SolutionStore(str(destination))
        carried = merged.get_construction("lemma9|ell=2|seed=7")
        assert carried.planted_solution == sample.planted_solution
        merged.close()


class TestDefaultCacheEnvDetachment:
    """Clearing OSP_STORE must detach an env-derived default-cache store."""

    def test_env_cleared_detaches_default_cache_store(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, path)
        cache = default_opt_cache()
        assert cache.store is store_for_path(path)
        set_default_store_path(None)
        assert default_opt_cache().store is None
        # Re-exporting the variable re-attaches.
        monkeypatch.setenv(STORE_ENV_VAR, path)
        assert default_opt_cache().store is store_for_path(path)

    def test_env_repointing_moves_the_attachment(self, tmp_path, monkeypatch):
        first = str(tmp_path / "first.sqlite")
        second = str(tmp_path / "second.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, first)
        assert default_opt_cache().store is store_for_path(first)
        monkeypatch.setenv(STORE_ENV_VAR, second)
        assert default_opt_cache().store is store_for_path(second)

    def test_explicit_attachment_survives_env_clearing(self, tmp_path, monkeypatch):
        env_path = str(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, env_path)
        cache = default_opt_cache()
        explicit = SolutionStore(str(tmp_path / "explicit.sqlite"))
        cache.store = explicit
        set_default_store_path(None)
        # An explicitly attached store is the caller's choice, not an
        # environment default: clearing the env must leave it alone.
        assert default_opt_cache().store is explicit
        explicit.close()


class TestCliRefusesRatherThanQuarantines:
    """vacuum / merge must refuse invalid user files, never rename them away."""

    def test_vacuum_refuses_a_version_mismatched_store(self, tmp_path):
        from repro.experiments.store import main

        path = tmp_path / "old.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("k", 1.0)
        store.close()
        connection = sqlite3.connect(str(path))
        connection.execute("UPDATE meta SET value = '0' WHERE key = 'format_version'")
        connection.commit()
        connection.close()
        with pytest.raises(SystemExit):
            main(["vacuum", str(path)])
        # The file is untouched at its path — not quarantined, not emptied.
        assert path.exists() and not (tmp_path / "old.sqlite.corrupt").exists()

    def test_vacuum_refuses_a_garbled_file(self, tmp_path):
        from repro.experiments.store import main

        path = tmp_path / "garbled.sqlite"
        path.write_text("this is not a database")
        with pytest.raises(SystemExit):
            main(["vacuum", str(path)])
        assert path.read_text() == "this is not a database"

    def test_merge_refuses_an_invalid_existing_destination(self, tmp_path):
        from repro.experiments.store import main

        source = tmp_path / "src.sqlite"
        store = SolutionStore(str(source))
        store.put_opt("k", 1.0)
        store.close()
        destination = tmp_path / "dest.sqlite"
        destination.write_text("user data, not a store")
        with pytest.raises(SystemExit):
            main(["merge", str(destination), str(source)])
        assert destination.read_text() == "user data, not a store"

    def test_merge_abort_leaves_no_destination_behind(self, tmp_path):
        from repro.experiments.store import main

        destination = tmp_path / "fresh.sqlite"
        with pytest.raises(SystemExit):
            main(["merge", str(destination), str(tmp_path / "missing.sqlite")])
        assert not destination.exists()
        with pytest.raises(SystemExit):
            main(["merge", str(destination), str(destination)])
        assert not destination.exists()


class TestQuarantineRaceRetry:
    def test_moved_inode_readonly_error_is_retried(self, tmp_path, monkeypatch):
        """A sibling quarantining the file mid-open surfaces as
        SQLITE_READONLY_DBMOVED ("attempt to write a readonly database") on
        the loser's connection; _open must retry, not crash."""
        attempts = []

        original = SolutionStore._connect_and_validate

        def flaky(self):
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("attempt to write a readonly database")
            return original(self)

        monkeypatch.setattr(SolutionStore, "_connect_and_validate", flaky)
        store = SolutionStore(str(tmp_path / "raced.sqlite"))
        assert len(attempts) == 3
        store.put_opt("k", 1.0)
        assert store.get_opt("k") == 1.0
        store.close()

    def test_environment_errors_surface_after_retries_without_quarantine(self, tmp_path):
        directory = tmp_path / "iam-a-directory"
        directory.mkdir()
        with pytest.raises(sqlite3.OperationalError):
            SolutionStore(str(directory))
        assert directory.is_dir()  # surfaced, never renamed away


class TestFrontierTable:
    """The ``frontiers`` payload table backing the battle harness."""

    def test_round_trip_and_counters(self, tmp_path):
        store = SolutionStore(str(tmp_path / "frontiers.sqlite"))
        assert store.get_frontier("missing") is None
        assert store.frontier_misses == 1
        store.put_frontier("battle-key", {"ratio": 2.0, "level": 0})
        assert store.get_frontier("battle-key") == {"ratio": 2.0, "level": 0}
        stats = store.stats()
        assert stats["frontier_hits"] == 1
        assert stats["frontier_misses"] == 1
        assert stats["frontier_entries"] == 1
        store.close()

    def test_first_writer_wins(self, tmp_path):
        store = SolutionStore(str(tmp_path / "frontiers.sqlite"))
        store.put_frontier("key", "first")
        store.put_frontier("key", "second")   # INSERT OR IGNORE: no overwrite
        assert store.get_frontier("key") == "first"
        store.close()

    def test_garbled_frontier_row_is_dropped(self, tmp_path):
        path = str(tmp_path / "frontiers.sqlite")
        store = SolutionStore(path)
        store.put_frontier("key", "value")
        store.close()
        connection = sqlite3.connect(path)
        connection.execute("UPDATE frontiers SET payload = ?", (b"garbage",))
        connection.commit()
        connection.close()
        reopened = SolutionStore(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StoreCorruptionWarning)
            assert reopened.get_frontier("key") is None
        assert reopened.integrity_failures == 1
        reopened.close()

    def test_cli_inspect_and_merge_carry_frontiers(self, tmp_path, capsys):
        from repro.experiments.store import main

        source = tmp_path / "with-frontiers.sqlite"
        store = SolutionStore(str(source))
        store.put_frontier("battle-key", {"ratio": 1.5})
        store.close()
        assert main(["inspect", str(source)]) == 0
        assert "frontier entries: 1" in capsys.readouterr().out

        destination = tmp_path / "merged.sqlite"
        assert main(["merge", str(destination), str(source)]) == 0
        assert "1 frontier entries" in capsys.readouterr().out
        merged = SolutionStore(str(destination))
        assert merged.get_frontier("battle-key") == {"ratio": 1.5}
        merged.close()


class TestLeases:
    """The advisory work-unit lease table (runtime metadata, never payload).

    Leases coordinate *who computes*; they must never influence *what is
    computed* — results stay first-writer-wins and bit-identical whether
    leases are used, stolen, expired or unavailable.
    """

    def test_claim_contend_renew_release(self, tmp_path):
        store = SolutionStore(str(tmp_path / "l.sqlite"))
        assert store.claim_lease("k", "alice", ttl=60.0)
        assert not store.claim_lease("k", "bob", ttl=60.0)
        # Claiming one's own active lease renews it rather than failing.
        assert store.claim_lease("k", "alice", ttl=60.0)
        store.release_lease("k", "alice")
        assert store.get_lease("k") is None
        assert store.claim_lease("k", "bob", ttl=60.0)
        store.close()

    def test_release_requires_ownership(self, tmp_path):
        store = SolutionStore(str(tmp_path / "l.sqlite"))
        store.claim_lease("k", "alice", ttl=60.0)
        store.release_lease("k", "bob")  # not the owner: a no-op
        lease = store.get_lease("k")
        assert lease is not None and lease.owner == "alice"
        store.close()

    def test_expired_lease_is_stolen_exactly_once(self, tmp_path):
        import time as _time

        store = SolutionStore(str(tmp_path / "l.sqlite"))
        assert store.claim_lease("k", "alice", ttl=0.05)
        _time.sleep(0.1)
        assert store.get_lease("k").expired()
        # First contender steals the expired lease; the second must wait.
        assert store.claim_lease("k", "bob", ttl=60.0)
        assert not store.claim_lease("k", "carol", ttl=60.0)
        lease = store.get_lease("k")
        assert lease.owner == "bob" and not lease.expired()
        store.close()

    def test_counts_and_prune(self, tmp_path):
        import time as _time

        store = SolutionStore(str(tmp_path / "l.sqlite"))
        store.claim_lease("a", "x", ttl=0.01)
        store.claim_lease("b", "x", ttl=0.01)
        store.claim_lease("c", "x", ttl=60.0)
        _time.sleep(0.05)
        assert store.lease_counts() == (3, 1)
        assert store.prune_leases() == 2
        assert store.lease_counts() == (1, 1)
        store.close()

    def test_leases_are_not_payload(self, tmp_path, capsys):
        """Leases never count as entries, never merge, never bump the format."""
        from repro.experiments.store import STORE_FORMAT_VERSION, main

        path = tmp_path / "l.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("opt-a", 1.5)
        store.claim_lease("k", "alice", ttl=60.0)
        assert store.stats()["lease_entries"] == 1
        assert len(store) == 1  # the opt row only
        store.close()
        # Claiming a lease never bumps the persisted format version.
        connection = sqlite3.connect(str(path))
        (persisted,) = connection.execute(
            "SELECT value FROM meta WHERE key = 'format_version'"
        ).fetchone()
        connection.close()
        assert persisted == str(STORE_FORMAT_VERSION)

        assert main(["inspect", str(path)]) == 0
        output = capsys.readouterr().out
        assert "lease entries:  1 (1 active)" in output

        destination = tmp_path / "merged.sqlite"
        assert main(["merge", str(destination), str(path)]) == 0
        capsys.readouterr()
        merged = SolutionStore(str(destination))
        assert merged.get_opt("opt-a") == 1.5
        assert merged.lease_counts() == (0, 0)  # advisory state never merges
        merged.close()

    def test_vacuum_prunes_expired_leases(self, tmp_path, capsys):
        import time as _time

        from repro.experiments.store import main

        path = tmp_path / "l.sqlite"
        store = SolutionStore(str(path))
        store.put_opt("opt-a", 1.5)
        store.claim_lease("gone", "x", ttl=0.01)
        store.close()
        _time.sleep(0.05)
        assert main(["vacuum", str(path)]) == 0
        assert "pruned 1 expired lease(s)" in capsys.readouterr().out

    def test_lease_failure_is_fail_open(self, tmp_path):
        """A broken lease table must never stall work: claims succeed."""
        path = str(tmp_path / "l.sqlite")
        store = SolutionStore(path)
        store._connection.execute("DROP TABLE leases")
        store._connection.commit()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert store.claim_lease("k", "alice", ttl=60.0)
        assert caught  # the degradation is reported, not silent
        store.close()

    def test_sweep_with_leases_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "leased.sqlite")
        baseline = _sweep()
        leased = _sweep(store=path)
        assert leased.rows == baseline.rows
        # Only the fabric claims units: a plain sweep leaves no lease rows.
        store = store_for_path(path)
        assert store.lease_counts() == (0, 0)
        store.close()

    @hyp_settings(deadline=None, max_examples=50)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("advance"),
                    st.floats(min_value=0.5, max_value=25.0),
                ),
                st.tuples(
                    st.just("claim"), st.sampled_from(["alice", "bob", "carol"])
                ),
                st.tuples(
                    st.just("release"), st.sampled_from(["alice", "bob", "carol"])
                ),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_lease_state_machine_property(self, steps):
        """Property test of the lease state machine under a virtual clock.

        Any interleaving of claim / release / clock-advance must match the
        reference model: a claim succeeds iff the key is free, the standing
        lease has expired (steal-after-TTL), or the claimant already owns it
        (which renews it); release is ownership-gated.  Derived invariants —
        at most one live owner, an expired lease is stolen exactly once —
        fall out of the model comparison and are also asserted directly.
        """
        import tempfile

        import repro.experiments.store as store_module

        ttl = 10.0

        class _VirtualClock:
            """Stands in for the ``time`` module inside the store."""

            def __init__(self):
                self.now = 1_000.0

            def time(self):
                return self.now

        clock = _VirtualClock()
        real_time = store_module.time
        store_module.time = clock
        try:
            with tempfile.TemporaryDirectory() as base:
                store = SolutionStore(os.path.join(base, "leases.sqlite"))
                model = None  # None or (owner, expires_at)

                def live():
                    return model is not None and model[1] > clock.now

                for op, operand in steps:
                    if op == "advance":
                        clock.now += operand
                        continue
                    owner = operand
                    if op == "claim":
                        expect = (
                            model is None
                            or model[1] <= clock.now
                            or model[0] == owner
                        )
                        stealing = (
                            model is not None
                            and model[1] <= clock.now
                            and model[0] != owner
                        )
                        assert store.claim_lease("k", owner, ttl=ttl) == expect
                        if expect:
                            model = (owner, clock.now + ttl)
                        if stealing:
                            # Steal-exactly-once: an expired lease that was
                            # just stolen is live again, so every other
                            # contender's immediate claim must fail.
                            for contender in ("alice", "bob", "carol"):
                                if contender != owner:
                                    assert not store.claim_lease(
                                        "k", contender, ttl=ttl
                                    )
                    else:  # release
                        store.release_lease("k", owner)
                        if model is not None and model[0] == owner:
                            model = None
                    # The store's lease row mirrors the model bit for bit.
                    lease = store.get_lease("k")
                    if model is None:
                        assert lease is None
                    else:
                        assert lease is not None
                        assert (lease.owner, lease.expires_at) == model
                        assert lease.expired() == (not live())
                    # At most one live owner, by direct probe: with a live
                    # lease, every foreign claim fails and changes nothing.
                    if live():
                        holder = model[0]
                        for contender in ("alice", "bob", "carol"):
                            if contender != holder:
                                assert not store.claim_lease(
                                    "k", contender, ttl=ttl
                                )
                        assert store.get_lease("k").owner == holder
                    assert store.lease_counts() == (
                        (0, 0) if model is None else (1, 1 if live() else 0)
                    )

                # Coda: leases fail open on database errors — a dropped
                # table makes every claim succeed (duplicate work possible,
                # results unaffected) instead of stalling the sweep.
                store._connection.execute("DROP TABLE leases")
                store._connection.commit()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", StoreCorruptionWarning)
                    for owner in ("alice", "bob", "carol"):
                        assert store.claim_lease("k", owner, ttl=ttl)
                store.close()
        finally:
            store_module.time = real_time


class TestMergeEngineDifferential:
    """``store merge`` over shards holding overlapping fast/exact rows.

    The fabric reducer merges worker shards that may each contain rows for
    *both* engine contracts (``fast`` keys carry an engine tag, exact keys
    do not — see :class:`TestNonExactEngineKeys`).  The merged store must
    preserve that isolation: each engine warm-hits only its own rows, and a
    garbled row in one shard is skipped without poisoning the destination.
    """

    def test_merged_shards_keep_engine_isolation(self, tmp_path):
        from repro.experiments.store import main

        shard_exact = str(tmp_path / "shard-exact.sqlite")
        shard_fast = str(tmp_path / "shard-fast.sqlite")

        def sweep(engine, store):
            return run_sweep(
                "store-test",
                _points(),
                [RandPrAlgorithm()],
                instances_per_point=2,
                trials_per_instance=10,
                seed=5,
                engine=engine,
                store=store,
            )

        exact = sweep("auto", shard_exact)
        fast = sweep("fast", shard_fast)
        assert fast.rows != exact.rows  # different sampler, different bits

        destination = str(tmp_path / "merged.sqlite")
        assert main(["merge", destination, shard_exact, shard_fast]) == 0
        merged = store_for_path(destination)
        assert merged.stats()["unit_entries"] == 8  # 4 exact + 4 fast

        # Warm exact sweep: hits exactly the 4 exact rows, bit-identical.
        hits_before = merged.unit_hits
        assert sweep("auto", destination).rows == exact.rows
        assert merged.unit_hits == hits_before + 4
        # Warm fast sweep: hits exactly the 4 fast-tagged rows.
        hits_before = merged.unit_hits
        assert sweep("fast", destination).rows == fast.rows
        assert merged.unit_hits == hits_before + 4
        assert merged.stats()["unit_entries"] == 8  # nothing recomputed

    def test_garbled_shard_row_is_skipped_not_poisoning(self, tmp_path, capsys):
        from repro.experiments.store import main

        shard_exact = str(tmp_path / "shard-exact.sqlite")
        shard_fast = str(tmp_path / "shard-fast.sqlite")

        def sweep(engine, store):
            return run_sweep(
                "store-test",
                _points(),
                [RandPrAlgorithm()],
                instances_per_point=2,
                trials_per_instance=10,
                seed=5,
                engine=engine,
                store=store,
            )

        exact = sweep("auto", shard_exact)
        fast = sweep("fast", shard_fast)
        # Garble one fast row in its shard: flipped bits on disk.
        connection = sqlite3.connect(shard_fast)
        connection.execute(
            "UPDATE units SET payload = ? WHERE key = "
            "(SELECT key FROM units ORDER BY key LIMIT 1)",
            (b"garbage",),
        )
        connection.commit()
        connection.close()

        destination = str(tmp_path / "merged.sqlite")
        assert main(["merge", destination, shard_exact, shard_fast]) == 0
        assert "skipped 1 garbled" in capsys.readouterr().out
        merged = store_for_path(destination)
        assert merged.stats()["unit_entries"] == 7  # the garbled row never lands
        # The destination is clean: every surviving row passes the audit.
        assert main(["inspect", "--check", destination]) == 0
        capsys.readouterr()
        # Both engines still reproduce their rows bit-identically — the one
        # missing fast unit is a cold miss recomputed deterministically.
        assert sweep("auto", destination).rows == exact.rows
        hits_before = merged.unit_hits
        assert sweep("fast", destination).rows == fast.rows
        assert merged.unit_hits == hits_before + 3  # 3 warm, 1 recomputed
        assert merged.stats()["unit_entries"] == 8  # recomputed row stored
