"""``batch.sum_benefits`` against the reference engine's per-trial ``sum``.

The reference engine's benefit is ``sum(...)`` over the completed sets'
weights in column order.  Where builtin ``sum`` adds left to right (CPython
before 3.12), the batch engine replaces the per-row ``sum`` with one
``np.add.accumulate`` per block of rows; where it compensates, each row
keeps its builtin ``sum``.  Both branches run on every interpreter here by
forcing the probe flag; the vectorized one is held to a plain sequential
fold, which *is* builtin ``sum`` on the interpreters that select it.  The
weights span six decades, so a pairwise ``np.sum`` misses on most rows.
"""

import operator
import random
import sys
from functools import reduce

import numpy as np
import pytest

from repro.engine import batch as batch_module
from repro.engine.compile import compile_instance
from repro.workloads import random_weighted_instance


def _weights(rng, m):
    return rng.random(m) * 10.0 ** rng.uniform(-3, 3, m)


def _sequential_sum(values):
    return reduce(operator.add, values, 0)


def _expected(weights, mask, sequential):
    add = _sequential_sum if sequential else sum
    return np.array([add(weights[row].tolist()) for row in mask], dtype=np.float64)


def _cases():
    rng = np.random.default_rng(2010)
    cases = {
        "25k x 200": (_weights(rng, 200), rng.random((25_000, 200)) < 0.5),
        "200 x 12k": (_weights(rng, 12_000), rng.random((200, 12_000)) < 0.3),
        "one row": (_weights(rng, 40), rng.random((1, 40)) < 0.5),
        "zero sets": (np.empty(0), np.zeros((7, 0), dtype=bool)),
        "all-false rows": (_weights(rng, 30), np.zeros((5, 30), dtype=bool)),
        "zero weights": (np.zeros(30), rng.random((9, 30)) < 0.5),
        "signed zero weights": (
            np.array([-0.0, -0.0]),
            np.array([[True, True], [True, False], [False, True]]),
        ),
    }
    compiled = compile_instance(random_weighted_instance(60, 90, (2, 4), random.Random(99)))
    cases["compiled weights"] = (compiled.weights, rng.random((300, 60)) < 0.6)
    return cases


CASES = _cases()


def test_the_probe_reads_the_interpreter():
    assert batch_module._SEQUENTIAL_SUM == (sys.version_info < (3, 12))
    if batch_module._SEQUENTIAL_SUM:
        values = [0.1, 1e16, 0.3, -1e16, 2.5]
        assert sum(values) == _sequential_sum(values)


@pytest.mark.parametrize("sequential", [True, False], ids=["vectorized", "per-row"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_are_bit_equal_to_the_reference_sum(monkeypatch, sequential, case):
    monkeypatch.setattr(batch_module, "_SEQUENTIAL_SUM", sequential)
    weights, mask = CASES[case]
    got = batch_module.sum_benefits(weights, mask)
    expected = _expected(weights, mask, sequential)
    assert got.dtype == np.float64 and got.shape == (mask.shape[0],)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64)), case


def test_the_pairwise_sum_is_not_sequential():
    """The guard the cases above rely on: ``np.sum`` pairs, and misses."""
    weights, mask = CASES["25k x 200"]
    pairwise = np.where(mask, weights, 0.0).sum(axis=1)
    assert (pairwise != _expected(weights, mask, True)).mean() > 0.5


def test_blocks_are_invisible(monkeypatch):
    weights, mask = CASES["25k x 200"]
    whole = batch_module.sum_benefits(weights, mask)
    monkeypatch.setattr(batch_module, "_SUM_BLOCK_CELLS", 1000)
    assert np.array_equal(batch_module.sum_benefits(weights, mask), whole)
