"""A pool map reaps its worker processes before it returns.

Callers account pool work through the reaped-children CPU counters
(``resource.getrusage(RUSAGE_CHILDREN)``), and a worker left running after
the map returned would still be writing to a store the caller has moved on
from.  So a finished ``map_ordered`` has joined every worker it started,
fail-fast or supervised.
"""

import os

import pytest

from repro.experiments.resilience import RetryPolicy, map_ordered


def _worker_pid(_item):
    return os.getpid()


def _was_reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize(
    "policy", (None, RetryPolicy()), ids=("fail-fast", "supervised")
)
def test_workers_are_reaped_when_the_map_returns(policy):
    # Repeated because an unjoined worker usually exits just in time anyway.
    for _ in range(10):
        outcome = map_ordered(_worker_pid, range(4), workers=2, policy=policy)
        pids = set(outcome.results)
        assert os.getpid() not in pids
        assert all(_was_reaped(pid) for pid in pids)
