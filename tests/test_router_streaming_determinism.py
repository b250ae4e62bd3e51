"""Seed-determinism and persistence pins for the streaming trace engine.

``simulate_trace_batch(trace, algo, trials, seed)`` must be a pure function
of its arguments: identical results across repeated calls, immune to the
global RNG and hash randomization, reproducible in a fresh interpreter.
The suite also freezes golden literals for a fixed adversarial trace (the
pattern of ``test_engine_determinism.py``: CPython guarantees
``random.Random``'s sequence, so these only move if the engine breaks), and
pins the store contract: a sweep unit computed by the reference engine is a
**warm hit** for the same sweep under the streaming engine, because
``unit_key`` hashes the unit's content, never the engine that ran it.
"""

import random
import subprocess
import sys

import pytest

from repro.algorithms import GreedyWeightAlgorithm, RandPrAlgorithm
from repro.engine import clear_compile_cache
from repro.engine.streaming import simulate_trace_batch
from repro.experiments import run_sweep, store_for_path
from repro.experiments.opt_cache import default_opt_cache
from repro.experiments.store import STORE_ENV_VAR
from repro.network.router import run_router_batch
from repro.network.traffic import AdversarialBurstGenerator, PoissonBurstGenerator


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


def _frozen_trace():
    """Deterministically constructed: no RNG touches the generator."""
    return AdversarialBurstGenerator(
        burst_size=3, packets_per_frame=2, gap_slots=1
    ).generate(num_waves=3)


def test_streaming_is_deterministic_within_process():
    trace = _frozen_trace()
    first = simulate_trace_batch(trace, "randPr", trials=6, seed=99)
    second = simulate_trace_batch(trace, "randPr", trials=6, seed=99)
    assert first.equals(second)
    # The global RNG must play no role: perturb it and run again.
    random.seed(31337)
    third = simulate_trace_batch(trace, "randPr", trials=6, seed=99)
    assert first.equals(third)
    # Chunking must play no role either.
    fourth = simulate_trace_batch(trace, "randPr", trials=6, seed=99, window_slots=2)
    assert first.equals(fourth)


def test_router_batch_is_deterministic_and_seed_sensitive():
    trace = _frozen_trace()
    first = run_router_batch(trace, RandPrAlgorithm(), trials=8, seed=5)
    second = run_router_batch(trace, RandPrAlgorithm(), trials=8, seed=5)
    assert first.batch.equals(second.batch)
    other = run_router_batch(trace, RandPrAlgorithm(), trials=8, seed=6)
    assert not first.batch.equals(other.batch)  # the agreement is not vacuous


def test_streaming_frozen_values():
    """Golden pins on the frozen trace.  These literals only change if the
    engine (or CPython's ``random.Random`` stability guarantee) breaks —
    either deserves a loud failure."""
    trace = _frozen_trace()
    batch = simulate_trace_batch(trace, "randPr", trials=4, seed=2026)
    assert [float(b) for b in batch.benefits] == [6.0, 6.0, 6.0, 6.0]
    assert [int(c) for c in batch.completed_counts] == [3, 3, 3, 3]
    assert sorted(map(str, batch.completed_sets(0))) == ["w0.m2", "w1.m0", "w2.m2"]

    uniform = simulate_trace_batch(trace, "uniform-random", trials=4, seed=2026)
    assert [float(b) for b in uniform.benefits] == [2.0, 2.0, 0.0, 4.0]  # the fixed-draw contract

    greedy = simulate_trace_batch(trace, GreedyWeightAlgorithm(), trials=2, seed=0)
    assert [float(b) for b in greedy.benefits] == [6.0, 6.0]
    assert sorted(map(str, greedy.completed_sets(0))) == ["w0.m0", "w1.m0", "w2.m0"]


_SUBPROCESS_SCRIPT = """
from repro.engine.streaming import simulate_trace_batch
from repro.network.traffic import AdversarialBurstGenerator

trace = AdversarialBurstGenerator(
    burst_size=3, packets_per_frame=2, gap_slots=1
).generate(num_waves=3)
batch = simulate_trace_batch(trace, "randPr", trials=6, seed=99)
print(repr([float(b) for b in batch.benefits]))
print(repr([int(c) for c in batch.completed_counts]))
print(repr(sorted(map(str, batch.completed_sets(0)))))
uniform = simulate_trace_batch(trace, "uniform-random", trials=6, seed=99)
print(repr([float(b) for b in uniform.benefits]))
"""


def test_streaming_is_reproducible_across_processes():
    """A fresh interpreter (fresh hash seed, fresh global RNG) agrees exactly."""
    trace = _frozen_trace()
    batch = simulate_trace_batch(trace, "randPr", trials=6, seed=99)
    uniform = simulate_trace_batch(trace, "uniform-random", trials=6, seed=99)

    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines[0] == repr([float(b) for b in batch.benefits])
    assert lines[1] == repr([int(c) for c in batch.completed_counts])
    assert lines[2] == repr(sorted(map(str, batch.completed_sets(0))))
    assert lines[3] == repr([float(b) for b in uniform.benefits])


def _trace_points():
    """Sweep points whose factories return router traces, not instances."""
    points = []
    for slots in (10, 14):

        def factory(rng, slots=slots):
            return PoissonBurstGenerator(arrival_rate=0.9).generate(slots, rng)

        points.append((f"slots={slots}", factory))
    return points


def _trace_sweep(engine, store):
    return run_sweep(
        "router-store",
        _trace_points(),
        [RandPrAlgorithm(), GreedyWeightAlgorithm()],
        instances_per_point=2,
        trials_per_instance=6,
        seed=9,
        engine=engine,
        store=store,
    )


def test_streaming_and_reference_share_store_unit_keys(tmp_path):
    """``unit_key`` hashes the unit's *content* — instance, algorithms,
    trials, seed — never the engine, so units persisted by a reference run
    answer a streaming run warm.  This is the streaming sibling of the
    batch-engine warm-hit pin in ``test_store.py``."""
    path = str(tmp_path / "router.sqlite")
    reference = _trace_sweep("reference", path)
    store = store_for_path(path)
    assert store.stats()["unit_entries"] == 4
    hits_before = store.unit_hits
    streamed = _trace_sweep("auto", path)
    assert store.unit_hits == hits_before + 4  # every unit answered warm
    assert store.stats()["unit_entries"] == 4  # nothing re-stored
    assert streamed.rows == reference.rows


def test_trace_sweep_rows_identical_across_engines(tmp_path):
    """Without a store in the way: reference and auto sweeps over trace
    factories produce bit-identical rows."""
    reference = _trace_sweep("reference", None)
    streamed = _trace_sweep("auto", None)
    assert streamed.rows == reference.rows
