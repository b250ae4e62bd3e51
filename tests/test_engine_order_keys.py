"""randPr's approximate order keys and the near-tie guard that keeps them exact.

Both exact engines build randPr's replay keys with numpy's SIMD ``pow``
(``batch._randpr_keys``) instead of the bit-exact scalar
:func:`~repro.engine.rng.exact_pow`.  A replay reads the keys only through
their order inside each contest, so this is exact as long as every contest
the approximate keys could misorder is replayed from the reference draws.
The static kernel flags a trial when a loser's key lies within
``batch._GUARD_ULPS`` ulps of the winner's (for capacity ``c``, the ``c``-th
and ``(c+1)``-th keys); two values whose errors are at most ``E`` ulps each
and whose bit patterns differ by more than ``2E`` keep their exact order.

This suite pins each link of that argument:

* the ulp sweep measures ``E`` over 10^7 ``(u, 1/w)`` pairs, the corners
  included (tiny and near-one draws, the zero-weight clamp, subnormal and
  zero results), against ``exact_pow``, the oracle;
* crafted near ties put two exact priorities within a few ulps, and both
  engines must replay those trials from the reference draws and match
  ``simulate`` at capacity 1 and 2;
* a guard wide enough to flag every trial must not change a single row;
* zero-weight sets, whose priorities underflow to 0.0 ties, match the
  reference in both engines.
"""

import math
import random

import numpy as np
import pytest

from repro.algorithms import RandPrAlgorithm
from repro.core import OnlineInstance, SetSystem
from repro.core.simulation import simulate, simulate_many
from repro.engine import batch
from repro.engine import rng as rng_bridge
from repro.engine.batch import batch_from_results, simulate_batch
from repro.engine.compile import ZERO_WEIGHT_CLAMP
from repro.engine.streaming import simulate_trace_batch
from repro.network.packet import Frame
from repro.network.traffic import PoissonBurstGenerator, Trace
from repro.workloads import random_variable_capacity_instance, random_weighted_instance

SEED = 41

#: The ulp sweep: this many chunks of CHUNK x CHUNK (u, 1/w) pairs.
SWEEP_CHUNKS = 10
CHUNK = 1000


def _bit_gap(a, b):
    """Elementwise distance in ulps of two non-negative float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _sweep_chunk(generator):
    """One ``(CHUNK, CHUNK)`` block of draws and ``CHUNK`` exponents.

    Rows mix plain uniform draws, draws at most 1e-300 (subnormal ones
    included) and draws within 1e-15 of 1; columns take ``1/w`` for ``w``
    log-uniform between the zero-weight clamp and 1e6, plus the end points
    and ``w = 1``.
    """
    third = CHUNK // 3
    rows = np.concatenate(
        [
            generator.random(third),
            10.0 ** generator.uniform(-323.0, -300.0, third),
            1.0 - generator.uniform(0.0, 1e-15, CHUNK - 2 * third),
        ]
    )
    base = np.repeat(rows[:, np.newaxis], CHUNK, axis=1)
    base = np.ascontiguousarray(generator.permuted(base, axis=0))
    weights = 10.0 ** generator.uniform(math.log10(ZERO_WEIGHT_CLAMP), 6.0, CHUNK)
    weights[:3] = [ZERO_WEIGHT_CLAMP, 1.0, 1e6]
    return base, 1.0 / weights


def test_numpy_pow_stays_within_half_the_guard_of_libm():
    generator = np.random.default_rng(SEED)
    worst = pairs = subnormal = zero = 0
    for _ in range(SWEEP_CHUNKS):
        base, exponents = _sweep_chunk(generator)
        exact = rng_bridge.exact_pow(base, exponents)
        approximate = np.power(base, exponents)
        worst = max(worst, int(_bit_gap(approximate, exact).max()))
        pairs += base.size
        subnormal += int(((exact > 0.0) & (exact < np.finfo(np.float64).tiny)).sum())
        zero += int((exact == 0.0).sum())
    print(f"numpy pow vs libm pow: max {worst} ulp over {pairs} pairs")
    assert pairs >= 10**7
    assert subnormal and zero, "the sweep must reach subnormal and zero results"
    assert worst <= batch._GUARD_ULPS // 2


def _replayed_seeds(monkeypatch):
    """Record the seed of every trial replayed from the reference draws."""
    seeds = []
    real = batch.reference_priority_row

    def recording(compiled, seed):
        seeds.append(seed)
        return real(compiled, seed)

    monkeypatch.setattr(batch, "reference_priority_row", recording)
    return seeds


def _frame(frame_id, weight):
    return Frame(frame_id, flow_id="tie", size_bytes=1500, weight=weight)


def _near_tie_trace(seed, trial, trials, capacity):
    """Frames contesting one slot, whose trial ``trial`` priorities nearly tie.

    ``A`` has weight 1, so its priority is its draw ``u_A``; ``B`` gets
    ``w_B = log(u_B) / log(u_A)``, so ``u_B ** (1/w_B)`` lands within a few
    ulps of ``u_A``.  At capacity 2 a heavy third frame ``C`` takes the first
    place, leaving ``A`` and ``B`` to contest the second.
    """
    names = ["A", "B", "C"][: capacity + 1]
    uniforms = rng_bridge.uniform_matrix(seed, trials, len(names))[trial]
    u_a, u_b = float(uniforms[0]), float(uniforms[1])
    weights = {"A": 1.0, "B": math.log(u_b) / math.log(u_a), "C": 1e6}
    trace = Trace(link_capacity=capacity)
    for name in names:
        trace.add_frame(_frame(name, weights[name]), [0])
    return trace, u_b ** (1.0 / weights["B"]), u_a


@pytest.mark.parametrize("capacity", [1, 2])
def test_crafted_near_ties_are_replayed_and_match_the_reference(capacity, monkeypatch):
    replayed = _replayed_seeds(monkeypatch)
    trials, crafted = 6, 3
    for seed in range(SEED, SEED + 40):
        trace, p_b, p_a = _near_tie_trace(seed, crafted, trials, capacity)
        assert _bit_gap(np.float64(p_b), np.float64(p_a)) <= 4
        instance = trace.to_instance()
        reference = simulate(instance, RandPrAlgorithm(), rng=random.Random(seed + crafted))
        for run in (
            lambda: simulate_batch(instance, "randPr", trials, seed),
            lambda: simulate_trace_batch(trace, "randPr", trials, seed, window_slots=1),
        ):
            replayed.clear()
            result = run()
            assert seed + crafted in replayed
            assert result.completed_sets(crafted) == reference.completed_sets
            assert float(result.benefits[crafted]) == reference.benefit


def _contested_workloads():
    instance = random_weighted_instance(
        20, 26, (2, 4), random.Random(SEED), weight_range=(0.5, 6.0)
    )
    wide = random_variable_capacity_instance(16, 20, (2, 4), (1, 3), random.Random(SEED))
    trace = PoissonBurstGenerator(arrival_rate=1.5).generate(80, random.Random(SEED))
    return instance, wide, trace


def test_a_guard_that_flags_every_trial_changes_no_row(monkeypatch):
    """With the guard wide open every trial takes the reference replay, and
    the rows must equal the vectorized path's, in both engines."""
    instance, wide, trace = _contested_workloads()
    trials = 24
    runs = [
        lambda: simulate_batch(instance, "randPr", trials, SEED),
        lambda: simulate_batch(wide, "randPr", trials, SEED),
        lambda: simulate_trace_batch(trace, "randPr", trials, SEED, window_slots=5),
    ]
    normal = [run() for run in runs]
    replayed = _replayed_seeds(monkeypatch)
    monkeypatch.setattr(batch, "_GUARD_ULPS", np.iinfo(np.int64).max)
    for run, expected in zip(runs, normal):
        replayed.clear()
        forced = run()
        assert sorted(replayed) == [SEED + trial for trial in range(trials)]
        assert forced.equals(expected)


def test_zero_weight_ties_match_the_reference_in_both_engines():
    """Exponent 1e12 underflows almost every priority to 0.0, so the
    zero-weight sets tie exactly wherever they meet; the reference breaks
    those ties by ``repr``, and so must both engines."""
    system = SetSystem(
        {"Z1": ["u", "v"], "Z2": ["u", "w"], "Z3": ["w"], "A": ["v", "x"], "B": ["x"]},
        weights={"Z1": 0.0, "Z2": 0.0, "Z3": 0.0, "A": 1.0, "B": 2.0},
    )
    instance = OnlineInstance(system, name="zero-weight")
    trials = 40
    reference = simulate_many(instance, RandPrAlgorithm(), trials=trials, seed=SEED)
    assert simulate_batch(instance, "randPr", trials, SEED).equals(
        batch_from_results(instance, reference, seed=SEED)
    )

    # A trace frame of weight 0 counts as weight 1 (``weight or 1.0``), so
    # the trace uses the clamp itself: the same 1e12 exponent.
    trace = Trace(link_capacity=1)
    weights = {"Z1": ZERO_WEIGHT_CLAMP, "Z2": ZERO_WEIGHT_CLAMP, "A": 1.0, "B": 2.0}
    slots = {"Z1": [0, 1], "Z2": [0, 2], "A": [1, 3], "B": [3, 4]}
    for name, packet_slots in slots.items():
        trace.add_frame(
            Frame(name, "zero", 1500 * len(packet_slots), weight=weights[name]),
            packet_slots,
        )
    streamed = simulate_trace_batch(trace, "randPr", trials, SEED, window_slots=2)
    traced = simulate_many(trace.to_instance(), RandPrAlgorithm(), trials=trials, seed=SEED)
    assert streamed.equals(batch_from_results(trace.to_instance(), traced, seed=SEED))
