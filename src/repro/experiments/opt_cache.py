"""Caching of offline-optimum estimates, keyed by set-system *content*.

A sweep measures many algorithms against the same instances, and benchmark
suites re-solve structurally identical systems across parameter points and
invocations.  The offline solve (branch and bound or LP) dominates that cost,
and its result depends only on the set system — not on which algorithm asked,
and not on which ``SetSystem`` *object* happens to hold the data.  The cache
therefore keys on a canonical fingerprint of the system's content (sets,
weights, capacities) plus the estimation parameters, so two equal systems
built independently — e.g. regenerated from the same seed in another worker
process — share one solve.

The cache is a plain LRU with hit/miss counters (pinned by
``tests/test_orchestrator.py``).  Each worker process owns one
:func:`default_opt_cache` instance; cached values are immutable
``OptEstimate`` records, so sharing them between callers is safe.

Below the in-memory LRU sits an optional *persistent* tier: a
:class:`~repro.experiments.store.SolutionStore` attached via the ``store``
parameter (or automatically from the ``OSP_STORE`` environment variable for
the default cache).  A memory miss then consults the store before computing,
and every computed value is written back to both tiers — so repeated
benchmark invocations, and all worker processes of a pool, share one durable
set of OPT solves.  The store never changes a value, only where it comes
from; ``store_hits`` counts the middle-tier answers.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional, TypeVar

from repro.core.set_system import SetSystem

__all__ = ["OptCache", "attached_store", "default_opt_cache", "system_fingerprint"]

V = TypeVar("V")


def system_fingerprint(system: SetSystem) -> str:
    """A canonical content hash of a set system.

    Two systems with the same sets (ids and members), weights and capacities
    produce the same fingerprint regardless of construction order or object
    identity.  Identifiers are rendered with ``repr`` — the same rendering
    the package uses for deterministic ordering — and floats with ``repr``
    as well, which round-trips every distinct float64 to a distinct string.
    """
    digest = hashlib.sha256()
    for set_id in system.set_ids:
        digest.update(repr(set_id).encode("utf-8"))
        digest.update(b"\x1e")
        digest.update(repr(system.weight(set_id)).encode("utf-8"))
        digest.update(b"\x1e")
        for element in sorted(system.members(set_id), key=repr):
            digest.update(repr(element).encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1d")
    for element in system.element_ids:
        digest.update(repr(element).encode("utf-8"))
        digest.update(b"\x1e")
        digest.update(str(system.capacity(element)).encode("utf-8"))
        digest.update(b"\x1d")
    return digest.hexdigest()


class OptCache:
    """An LRU cache for offline-optimum estimates.

    ``maxsize`` bounds the entry count (least-recently-used eviction);
    ``hits`` / ``misses`` count lookups for tests and benchmark reports.
    The cache itself is value-agnostic — :func:`repro.experiments.competitive_ratio.estimate_opt`
    stores its ``OptEstimate`` records here under a key that includes the
    estimation method and the exact-solver set limit, so estimates computed
    under different policies never alias.

    ``store`` optionally attaches a persistent
    :class:`~repro.experiments.store.SolutionStore` as a read-through /
    write-back tier below the LRU: a memory miss consults the store before
    computing, and computed values are written to both.  ``store_hits``
    counts lookups the store answered (these still increment ``misses`` —
    the memory tier did miss).
    """

    def __init__(self, maxsize: int = 256, store=None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self.maxsize = maxsize
        self.store = store
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, system: SetSystem, method: str, exact_set_limit: int) -> str:
        """The cache key for one (system content, estimation policy) pair."""
        return f"{system_fingerprint(system)}|{method}|{exact_set_limit}"

    def get_or_compute(self, key: str, compute: Callable[[], V]) -> V:
        """Return the cached value for ``key``, computing and storing on miss.

        Lookup order: memory LRU, then the attached persistent store (if
        any), then ``compute()``.  Values found in the store are promoted to
        memory; computed values are written back to both tiers.
        """
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            stored = self.store.get_opt(key) if self.store is not None else None
            if stored is not None:
                self.store_hits += 1
                value = stored
            else:
                value = compute()
                if self.store is not None:
                    self.store.put_opt(key, value)
            self._entries[key] = value
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
            return value
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters.

        The persistent store (if attached) is left untouched — clearing the
        memory tier is what simulates a fresh process in tests/benchmarks.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    def __repr__(self) -> str:
        return (
            f"OptCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, maxsize={self.maxsize})"
        )


@contextmanager
def attached_store(cache: OptCache, store):
    """Temporarily attach ``store`` (or ``None``) as ``cache``'s durable tier.

    For the duration of the ``with`` block the caller's store choice — or its
    explicit absence — wins over whatever the cache had attached; the previous
    attachment (e.g. the ``OSP_STORE`` default) is restored afterwards, so one
    caller's explicit store never shadows the environment store for later
    callers in the same process.  Both the sweep orchestrator and the battle
    harness scope their per-unit store attachments through this.

    >>> cache = OptCache()
    >>> with attached_store(cache, None):
    ...     cache.store is None
    True
    >>> cache.store is None     # the previous attachment is restored
    True
    """
    previous = cache.store
    cache.store = store
    try:
        yield cache
    finally:
        cache.store = previous


#: The per-process shared cache (one per worker; created lazily), with the
#: PID it was configured in — a fork-started worker must re-attach its own
#: store connection rather than reuse the parent's.
_DEFAULT_CACHE: Optional[OptCache] = None
_DEFAULT_CACHE_PID: Optional[int] = None
#: The OSP_STORE path behind the cache's current store attachment, or ``None``
#: when the attachment is explicit (or absent).  Tracked so that *clearing*
#: the environment default detaches the store again — without it, OPT solves
#: would keep flowing into a store file the caller already disabled.
_DEFAULT_CACHE_ENV_ATTACHMENT: Optional[str] = None


def default_opt_cache() -> OptCache:
    """The process-wide shared :class:`OptCache`.

    Worker processes each materialize their own copy on first use, so a
    parallel sweep gets per-worker OPT reuse without any cross-process
    synchronization (cache contents never influence results, only runtime).

    When the ``OSP_STORE`` environment variable names a store file, the
    per-process :class:`~repro.experiments.store.SolutionStore` for that
    path is attached as the cache's persistent tier — the environment is
    inherited by pool workers, so one exported variable gives *every*
    process of a sweep the same durable OPT store.
    """
    global _DEFAULT_CACHE, _DEFAULT_CACHE_PID, _DEFAULT_CACHE_ENV_ATTACHMENT
    pid = os.getpid()
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = OptCache()
        _DEFAULT_CACHE_PID = pid
    elif _DEFAULT_CACHE_PID != pid:
        # Fork-started worker: the in-memory entries are plain immutable
        # values and stay valid, but an attached store wraps the *parent's*
        # SQLite connection, which must not be used across fork() — detach
        # so this process re-attaches its own connection below.
        _DEFAULT_CACHE.store = None
        _DEFAULT_CACHE_ENV_ATTACHMENT = None
        _DEFAULT_CACHE_PID = pid
    # Imported lazily: repro.experiments.store fingerprints instances
    # through this module, so a top-level import would be circular.
    from repro.experiments.store import resolve_store, store_path_from_env

    if _DEFAULT_CACHE_ENV_ATTACHMENT is not None:
        expected = os.path.abspath(_DEFAULT_CACHE_ENV_ATTACHMENT)
        current = _DEFAULT_CACHE.store
        if current is None or current.path != expected:
            # The attachment changed hands (an explicit store was set, or
            # the store was detached): the environment bookkeeping is stale
            # and the explicit choice is left alone.
            _DEFAULT_CACHE_ENV_ATTACHMENT = None
        elif store_path_from_env() != _DEFAULT_CACHE_ENV_ATTACHMENT:
            # The environment default was cleared (or repointed) after this
            # cache attached it: detach, so the new default applies below
            # and a disabled OSP_STORE really stops persisting.
            _DEFAULT_CACHE.store = None
            _DEFAULT_CACHE_ENV_ATTACHMENT = None
    if _DEFAULT_CACHE.store is None:
        _DEFAULT_CACHE.store = resolve_store(None)
        if _DEFAULT_CACHE.store is not None:
            _DEFAULT_CACHE_ENV_ATTACHMENT = store_path_from_env()
    return _DEFAULT_CACHE
