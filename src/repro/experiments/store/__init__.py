"""A persistent, cross-process store for OPT solutions and sweep results.

The in-memory :class:`~repro.experiments.opt_cache.OptCache` dies with its
process, so every benchmark invocation — and every worker process inside one
— re-solves the same branch-and-bound OPT instances from scratch.  This
module adds the missing durable tier: a content-addressed, file-backed
:class:`SolutionStore` shared by all worker processes, layered *under* the
in-memory cache as a read-through/write-back tier.  The lookup order is

    memory ``OptCache``  →  ``SolutionStore`` (SQLite file)  →  compute

and every computed value is written back to both tiers, so a warm second
invocation answers the dominant offline solves (and, for full sweeps, whole
``(point, instance, algorithms)`` work units) from disk.

**Keys are content hashes, not identities.**  An OPT entry is keyed by the
set system's content fingerprint plus the estimation policy
(``sha256(system)|method|exact_set_limit`` — see
:func:`~repro.experiments.opt_cache.system_fingerprint`); a sweep-unit entry
by :func:`unit_key`, a SHA-256 over the instance fingerprint (system content
+ arrival order + name), the measurement seed, the trial count, the OPT
policy, the ordered algorithm identities and — for non-exact engines only
(:data:`NONEXACT_ENGINES`) — an engine tag.  A changed instance therefore
*misses* — it can never silently reuse a stale solution — and every stored
row carries a SHA-256 checksum of its payload, so a garbled row is detected,
warned about and dropped instead of being deserialized.

**Crash safety.**  The store is a single SQLite file: writers go through
SQLite's journal (``synchronous=FULL``, the fsync-on-commit default), and
concurrent writers of the same key converge to one entry via
``INSERT OR IGNORE`` under SQLite's file locking (``busy_timeout`` retries).
A store file that cannot be opened — truncated, overwritten, or from an
incompatible format version — is *quarantined*: renamed to
``<path>.corrupt[-N]`` with a warning, and a fresh store takes its place.
Results are never affected; the store changes wall-clock only.

**Determinism contract.**  Stored payloads are pickled result records
(plain dataclasses of Python floats), so a warm read returns bit-identical
values to the cold compute it replaced.  ``benchmarks/bench_store_warm.py``
and ``tests/test_store.py`` assert sweep rows are bit-identical across
{store on, off} × {cold, warm} × worker counts.

**Command line.**  ``python -m repro.experiments.store`` ships the three
maintenance verbs (see :func:`main` and the README's "Store maintenance"
section): ``inspect`` (read-only summary + optional checksum audit),
``vacuum`` (drop garbled rows, reclaim file space) and ``merge`` (combine
store files, e.g. per-machine stores after a fleet run).

The two module constants are part of the on-disk contract:

>>> STORE_FORMAT_VERSION
2
>>> STORE_ENV_VAR
'OSP_STORE'
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import sqlite3
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.instance import OnlineInstance
from repro.exceptions import StoreFileError

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_ENV_VAR",
    "NONEXACT_ENGINES",
    "LEASE_DEFAULT_TTL",
    "Lease",
    "SolutionStore",
    "StoreCorruptionWarning",
    "StoreFileError",
    "merge_stores",
    "algorithm_identity",
    "instance_fingerprint",
    "unit_key",
    "store_for_path",
    "store_path_from_env",
    "resolve_store_path",
    "resolve_store",
    "set_default_store_path",
    "main",
]

#: Bumped whenever the meaning of stored values changes (simulation
#: semantics, key composition, payload encoding).  A store written under a
#: different version is quarantined wholesale rather than partially reused.
#: History: 1 → 2 when the key composition gained the non-exact engine tag
#: (``engine="fast"`` results differ from exact-engine results, so the two
#: may never share a row).
STORE_FORMAT_VERSION = 2

#: Engines whose results are *statistically* equivalent to — but not
#: bit-identical with — the exact engines.  These contribute an engine tag
#: to :func:`unit_key` (and :func:`repro.battles.battle_key`) so their rows
#: never warm-hit exact rows; every exact engine stays untagged and keeps
#: sharing one key.  Adding an engine here is a cache-key semantic change:
#: bump :data:`STORE_FORMAT_VERSION` with it.
NONEXACT_ENGINES = frozenset({"fast"})

#: Environment variable naming the default store file.  Set in the parent
#: process (e.g. by ``runner --store`` or the benchmark suite) it is
#: inherited by pool workers, so every process shares one file.
STORE_ENV_VAR = "OSP_STORE"


#: Default time-to-live (seconds) of an advisory work-unit lease.  Sized for
#: sweep units that take seconds, not minutes: long enough that a healthy
#: claimant finishes well inside it, short enough that a dead claimant's
#: unit is stolen quickly.
LEASE_DEFAULT_TTL = 60.0


@dataclass(frozen=True)
class Lease:
    """An advisory claim on one work unit: who is computing it, until when.

    Leases are **runtime metadata, not results**: they partition a unit
    manifest between concurrent processes so the same unit is rarely
    computed twice, but they never gate correctness — a process that loses
    (or ignores) a lease and computes anyway produces the identical bits,
    and ``INSERT OR IGNORE`` first-writer-wins on the result row remains
    the convergence rule.  That is why the ``leases`` table is excluded
    from the payload tables (``__len__``/``stats`` payload counts, checksum
    audits, ``merge``) and why adding it did **not** bump
    ``STORE_FORMAT_VERSION``.

    >>> lease = Lease(owner="host:123", expires_at=0.0)
    >>> lease.expired(now=1.0)
    True
    """

    owner: str
    expires_at: float

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the lease's TTL has passed (and the unit may be stolen)."""
        return self.expires_at <= (time.time() if now is None else now)


class StoreCorruptionWarning(UserWarning):
    """Warns that a store file or row failed validation and was quarantined.

    Corruption never fails a run — results are recomputed and only warm-start
    time is lost — so the signal is an ordinary :class:`UserWarning`:

    >>> issubclass(StoreCorruptionWarning, UserWarning)
    True
    """


def algorithm_identity(algorithm) -> Optional[str]:
    """A stable identity string for an algorithm, or ``None`` if uncacheable.

    The identity is the algorithm's type (module-qualified) plus its
    ``name``, extended by the algorithm's ``cache_identity`` attribute —
    the explicit opt-in declaring that the attribute (possibly empty)
    captures *all* behaviour-affecting constructor state.  Every library
    algorithm opts in (``RandPrAlgorithm`` exposes its tie-break flag,
    ``HedgingAlgorithm`` its epsilon, the salted algorithms their salt);
    ``cache_identity = None`` — or no attribute at all, the default for
    unknown user algorithms — declares the algorithm **uncacheable**, and
    units measuring it bypass the store entirely.  Defaulting unknown
    algorithms to uncacheable is deliberate: two differently-configured
    instances of the same class must never silently share stored results.

    >>> from repro.algorithms import RandPrAlgorithm
    >>> algorithm_identity(RandPrAlgorithm())
    'repro.algorithms.randpr.RandPrAlgorithm|randPr|tie_break_by_id=True'
    >>> class CustomAlgorithm(RandPrAlgorithm):
    ...     pass                        # no explicit opt-in of its own…
    >>> CustomAlgorithm.cache_identity = None
    >>> algorithm_identity(CustomAlgorithm()) is None     # …is uncacheable
    True
    """
    extra = getattr(algorithm, "cache_identity", None)
    if extra is None:
        return None
    base = (
        f"{type(algorithm).__module__}.{type(algorithm).__qualname__}"
        f"|{algorithm.name}"
    )
    return f"{base}|{extra}" if extra else base


def instance_fingerprint(instance: OnlineInstance) -> str:
    """A content hash of an online instance: system + arrival order + name.

    Extends :func:`~repro.experiments.opt_cache.system_fingerprint` (sets,
    weights, capacities) with the arrival order — simulation results depend
    on it — and the instance name, which is embedded in stored measurement
    records.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"]}, weights={"A": 2.0})
    >>> first = instance_fingerprint(OnlineInstance(system, name="demo"))
    >>> len(first)                       # a SHA-256 hex digest
    64
    >>> first == instance_fingerprint(OnlineInstance(system, name="demo"))
    True
    >>> first == instance_fingerprint(OnlineInstance(system, name="renamed"))
    False
    """
    # Imported here: opt_cache imports this module lazily for the default
    # store attachment, so a top-level import would be circular.
    from repro.experiments.opt_cache import system_fingerprint

    digest = hashlib.sha256()
    digest.update(system_fingerprint(instance.system).encode("ascii"))
    digest.update(b"\x1d")
    digest.update(repr(instance.name).encode("utf-8"))
    digest.update(b"\x1d")
    for element in instance.arrival_order:
        digest.update(repr(element).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def unit_key(
    instance: OnlineInstance,
    measure_seed: int,
    algorithms: Sequence,
    trials: int,
    opt_method: str,
    exact_set_limit: int,
    engine: str = "auto",
) -> Optional[str]:
    """The store key of one sweep work unit, or ``None`` if uncacheable.

    The key is a SHA-256 over every input that determines the unit's result:
    the instance content fingerprint, the shared measurement seed, the trial
    count, the OPT estimation policy and the *ordered* algorithm identities.
    The worker count is deliberately excluded — parallelism is a wall-clock
    knob — and so is the engine *when it is exact*: the exact engines agree
    trial for trial, so keying on them would only split the cache between
    equal results.  A non-exact engine (:data:`NONEXACT_ENGINES`, i.e.
    ``"fast"``) computes *different* bits under a statistical contract, so
    it contributes an explicit engine tag: its rows live under their own
    keys and can never warm-hit — or be warm-hit by — exact rows.

    ``None`` (any algorithm without a stable identity) marks the unit as
    uncacheable; callers must compute it and must not consult the store.

    >>> from repro.algorithms import RandPrAlgorithm, UniformRandomAlgorithm
    >>> from repro.core import OnlineInstance, SetSystem
    >>> system = SetSystem(sets={"A": ["u", "v"]}, weights={"A": 2.0})
    >>> instance = OnlineInstance(system, name="demo")
    >>> key = unit_key(instance, 5, [RandPrAlgorithm()], 10, "auto", 18)
    >>> len(key)
    64
    >>> key == unit_key(instance, 6, [RandPrAlgorithm()], 10, "auto", 18)
    False
    >>> exact_engines_share = unit_key(instance, 5, [RandPrAlgorithm()], 10,
    ...                                "auto", 18, engine="batch")
    >>> exact_engines_share == key
    True
    >>> fast = unit_key(instance, 5, [RandPrAlgorithm()], 10, "auto", 18,
    ...                 engine="fast")
    >>> fast == key                      # statistical engine: own key
    False
    >>> class OpaqueAlgorithm(UniformRandomAlgorithm):
    ...     cache_identity = None        # uncacheable: no stable identity
    >>> unit_key(instance, 5, [OpaqueAlgorithm()], 10, "auto", 18) is None
    True
    """
    identities = []
    for algorithm in algorithms:
        identity = algorithm_identity(algorithm)
        if identity is None:
            return None
        identities.append(identity)
    engine_tag = (f"engine={engine}",) if engine in NONEXACT_ENGINES else ()
    digest = hashlib.sha256()
    for part in (
        f"osp-unit-v{STORE_FORMAT_VERSION}",
        instance_fingerprint(instance),
        str(measure_seed),
        str(trials),
        opt_method,
        str(exact_set_limit),
        *engine_tag,
        *identities,
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _quarantine_path(path: str) -> str:
    """The first free ``<path>.corrupt[-N]`` name."""
    candidate = f"{path}.corrupt"
    counter = 1
    while os.path.exists(candidate):
        candidate = f"{path}.corrupt-{counter}"
        counter += 1
    return candidate


#: Every payload table of the store file, in display order.  ``constructions``
#: and ``frontiers`` were added after the first release of format version 1;
#: the verbs that read *foreign* files (CLI inspect/merge sources) therefore
#: tolerate their absence (see :func:`_existing_payload_tables`), while every
#: file this code opens for writing gets all four created on connect.
_PAYLOAD_TABLES = ("opt", "units", "constructions", "frontiers")


class SolutionStore:
    """A file-backed, content-addressed store of computed experiment results.

    One SQLite file holds four payload tables — ``opt`` (offline-optimum
    estimates, keyed by :meth:`~repro.experiments.opt_cache.OptCache.key`),
    ``units`` (whole sweep-unit results, keyed by :func:`unit_key`),
    ``constructions`` (deterministic-per-key instance constructions, e.g.
    the Lemma 9 samples of
    :func:`repro.lowerbounds.stored_lemma9_instance`) and ``frontiers``
    (battle-round outcomes of :mod:`repro.battles`, keyed by
    :func:`repro.battles.battle_key`) — each row a
    pickled payload with a SHA-256 checksum.  The store is safe to share
    between concurrent worker processes: writes use ``INSERT OR IGNORE``
    (first writer wins; every writer computed the identical value) under
    SQLite's locking, and reads that hit a garbled row warn, drop the row and
    report a miss instead of crashing.

    A fifth table, ``leases``, holds *advisory* work-unit claims
    (:meth:`claim_lease` / :meth:`release_lease`, steal-after-TTL) through
    which the fabric's ``work`` processes partition a unit manifest without
    duplicate work.  It is runtime metadata, not a payload table: excluded
    from payload counts, checksum audits and ``merge``, and its addition did
    not bump ``STORE_FORMAT_VERSION`` (see :class:`Lease`).

    Counters (``opt_hits``/``opt_misses``/``unit_hits``/``unit_misses``/
    ``construction_hits``/``construction_misses``/``frontier_hits``/
    ``frontier_misses``/``integrity_failures``) are per-process and exposed
    via :meth:`stats`.

    >>> import os, tempfile
    >>> path = os.path.join(tempfile.mkdtemp(), "demo.sqlite")
    >>> store = SolutionStore(path)
    >>> store.put_opt("some-content-key", 3.5)
    >>> store.get_opt("some-content-key")
    3.5
    >>> store.get_opt("never-stored") is None
    True
    >>> store                                    # doctest: +ELLIPSIS
    SolutionStore('...demo.sqlite', opt_hits=1, unit_hits=0)
    >>> store.close()
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.opt_hits = 0
        self.opt_misses = 0
        self.unit_hits = 0
        self.unit_misses = 0
        self.construction_hits = 0
        self.construction_misses = 0
        self.frontier_hits = 0
        self.frontier_misses = 0
        self.integrity_failures = 0
        self._connection = self._open()

    # ------------------------------------------------------------------
    # Connection management and quarantine
    # ------------------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        """Open (and validate) the store file, quarantining it on corruption.

        Opening retries a few times because concurrent workers may race on a
        corrupt file: the first worker quarantines it and rebuilds a fresh
        store, and a sibling whose open also failed must then *retry the
        connect* (the file it failed on is gone) rather than crash.  In the
        worst interleaving a sibling can quarantine a just-rebuilt (valid)
        store — that costs warm-start entries, never correctness, since
        every open connection keeps operating on its own (possibly renamed)
        file and results never depend on the store.
        """
        last_error: Optional[sqlite3.DatabaseError] = None
        for _attempt in range(3):
            try:
                return self._connect_and_validate()
            except sqlite3.OperationalError as exc:
                # Cannot-open errors (the path is a directory, permissions,
                # a held lock) are environment problems, not corruption:
                # they are never quarantined — but they *are* retried,
                # because a sibling quarantining the file between this
                # connect and its validation surfaces exactly here, with a
                # flavor that depends on the interleaving ("attempt to
                # write a readonly database" / "disk I/O error" against
                # the renamed-away inode).  The race resolves on the next
                # connect; a genuine environment problem fails every retry
                # and surfaces unchanged, with the user's file untouched.
                last_error = exc
            except sqlite3.DatabaseError as exc:
                last_error = exc
                if os.path.isfile(self.path):
                    # Corrupt content (truncated/garbled file): move it aside.
                    self._quarantine(f"unreadable store file ({exc})")
                # else: a sibling process already quarantined it — retry the
                # connect, which will build (or join) the fresh store.
        raise last_error

    def _connect_and_validate(self) -> sqlite3.Connection:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        connection = sqlite3.connect(self.path, timeout=30.0)
        try:
            connection.execute("PRAGMA busy_timeout = 30000")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS opt "
                "(key TEXT PRIMARY KEY, payload BLOB NOT NULL, checksum TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS units "
                "(key TEXT PRIMARY KEY, payload BLOB NOT NULL, checksum TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS constructions "
                "(key TEXT PRIMARY KEY, payload BLOB NOT NULL, checksum TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS frontiers "
                "(key TEXT PRIMARY KEY, payload BLOB NOT NULL, checksum TEXT NOT NULL)"
            )
            # Advisory work-unit leases: runtime coordination metadata, not a
            # payload table (excluded from _PAYLOAD_TABLES, so from payload
            # counts, checksum audits and merges — see the Lease docstring
            # for why this never bumps STORE_FORMAT_VERSION).
            connection.execute(
                "CREATE TABLE IF NOT EXISTS leases "
                "(key TEXT PRIMARY KEY, owner TEXT NOT NULL, expires_at REAL NOT NULL)"
            )
            connection.execute(
                "INSERT OR IGNORE INTO meta VALUES ('format_version', ?)",
                (str(STORE_FORMAT_VERSION),),
            )
            connection.commit()
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'format_version'"
            ).fetchone()
        except sqlite3.DatabaseError:
            connection.close()
            raise
        if row is None or row[0] != str(STORE_FORMAT_VERSION):
            connection.close()
            found = None if row is None else row[0]
            self._quarantine(
                f"format version {found!r} != {STORE_FORMAT_VERSION} "
                "(written by an incompatible repo revision)"
            )
            return self._connect_and_validate()
        return connection

    def _quarantine(self, reason: str) -> Optional[str]:
        """Move the store file aside with a warning; ``None`` if nothing moved.

        Only regular files are ever quarantined — a directory (or anything
        else) at the path is the user's data, not a corrupt store, and must
        be left untouched.
        """
        self.integrity_failures += 1
        if not os.path.isfile(self.path):
            return None
        destination = _quarantine_path(self.path)
        os.replace(self.path, destination)
        warnings.warn(
            f"quarantined solution store {self.path!r} -> {destination!r}: "
            f"{reason}; starting a fresh store (results are unaffected — "
            "only warm-start time is lost)",
            StoreCorruptionWarning,
            stacklevel=3,
        )
        return destination

    def close(self) -> None:
        """Close the connection and evict this store from the path registry.

        Eviction matters: without it a later :func:`store_for_path` call
        would hand out this dead instance, whose reads silently miss and
        whose counters raise — a fresh open must get a fresh connection.
        """
        self._connection.close()
        if _OPEN_STORES.get(self.path) is self:
            del _OPEN_STORES[self.path]

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def _get(self, table: str, key: str):
        try:
            row = self._connection.execute(
                f"SELECT payload, checksum FROM {table} WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self.integrity_failures += 1
            warnings.warn(
                f"solution store read failed for {table}[{key[:12]}…]: {exc}; "
                "treating as a miss",
                StoreCorruptionWarning,
                stacklevel=4,
            )
            return None
        if row is None:
            return None
        payload, checksum = row
        if _checksum(payload) != checksum:
            self.integrity_failures += 1
            self._delete(table, key)
            warnings.warn(
                f"solution store row {table}[{key[:12]}…] failed its checksum; "
                "dropped the garbled row and recomputing",
                StoreCorruptionWarning,
                stacklevel=4,
            )
            return None
        try:
            return pickle.loads(payload)
        except Exception as exc:  # unpicklable despite a valid checksum
            self.integrity_failures += 1
            self._delete(table, key)
            warnings.warn(
                f"solution store row {table}[{key[:12]}…] failed to deserialize "
                f"({exc}); dropped the row and recomputing",
                StoreCorruptionWarning,
                stacklevel=4,
            )
            return None

    def _delete(self, table: str, key: str) -> None:
        try:
            self._connection.execute(f"DELETE FROM {table} WHERE key = ?", (key,))
            self._connection.commit()
        except sqlite3.DatabaseError:
            pass

    def _put(self, table: str, key: str, value) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            # First writer wins: concurrent writers of one key computed the
            # same value (keys are content hashes over every input), so
            # ignoring the later insert converges to a single entry.
            self._connection.execute(
                f"INSERT OR IGNORE INTO {table} VALUES (?, ?, ?)",
                (key, payload, _checksum(payload)),
            )
            self._connection.commit()
        except sqlite3.DatabaseError as exc:
            warnings.warn(
                f"solution store write failed for {table}[{key[:12]}…]: {exc}; "
                "continuing without persisting",
                StoreCorruptionWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def get_opt(self, key: str):
        """The stored OPT estimate under ``key``, or ``None`` on miss."""
        value = self._get("opt", key)
        if value is None:
            self.opt_misses += 1
        else:
            self.opt_hits += 1
        return value

    def put_opt(self, key: str, value) -> None:
        """Persist an OPT estimate under its content-addressed key."""
        self._put("opt", key, value)

    def get_unit(self, key: str):
        """The stored sweep-unit result under ``key``, or ``None`` on miss."""
        value = self._get("units", key)
        if value is None:
            self.unit_misses += 1
        else:
            self.unit_hits += 1
        return value

    def put_unit(self, key: str, value) -> None:
        """Persist a completed sweep-unit result under its :func:`unit_key`."""
        self._put("units", key, value)

    def get_construction(self, key: str):
        """The stored instance construction under ``key``, or ``None`` on miss.

        Construction keys are caller-chosen strings that must encode every
        input of the (deterministic) construction — e.g.
        ``"lemma9|ell=2|seed=7"`` for
        :func:`repro.lowerbounds.stored_lemma9_instance`.
        """
        value = self._get("constructions", key)
        if value is None:
            self.construction_misses += 1
        else:
            self.construction_hits += 1
        return value

    def put_construction(self, key: str, value) -> None:
        """Persist a deterministic instance construction under its key."""
        self._put("constructions", key, value)

    def get_frontier(self, key: str):
        """The stored battle-round outcome under ``key``, or ``None`` on miss.

        Frontier keys come from :func:`repro.battles.battle_key`: a SHA-256
        over every input that determines the round's outcome (escalator
        identity, algorithm identity, level, seed, trials, OPT policy), with
        the same ``STORE_FORMAT_VERSION`` discipline as :func:`unit_key`.
        """
        value = self._get("frontiers", key)
        if value is None:
            self.frontier_misses += 1
        else:
            self.frontier_hits += 1
        return value

    def put_frontier(self, key: str, value) -> None:
        """Persist a completed battle round under its content-addressed key."""
        self._put("frontiers", key, value)

    # ------------------------------------------------------------------
    # Advisory work-unit leases (claim / release / steal-after-TTL)
    # ------------------------------------------------------------------
    def claim_lease(
        self, key: str, owner: str, ttl: float = LEASE_DEFAULT_TTL
    ) -> bool:
        """Try to claim the unit ``key`` for ``owner``; ``True`` on success.

        A claim succeeds when the key is unleased, the existing lease has
        **expired** (steal-after-TTL: the previous claimant is presumed
        dead) or ``owner`` already holds it (re-claiming extends the TTL,
        so claim doubles as renew).  An unexpired foreign lease makes the
        claim fail — the caller should poll the store for the claimant's
        result instead of duplicating the work.

        Leases are advisory: on any database error the method *fails open*
        (returns ``True``) so a broken store can cost duplicate work but
        never stall a sweep.

        >>> import os, tempfile
        >>> store = SolutionStore(os.path.join(tempfile.mkdtemp(), "l.sqlite"))
        >>> store.claim_lease("unit-key", owner="a", ttl=60.0)
        True
        >>> store.claim_lease("unit-key", owner="b", ttl=60.0)   # held by a
        False
        >>> store.claim_lease("unit-key", owner="a", ttl=60.0)   # a renews
        True
        >>> store.release_lease("unit-key", owner="a")
        >>> store.claim_lease("unit-key", owner="b", ttl=60.0)   # now free
        True
        >>> store.close()
        """
        now = time.time()
        try:
            self._connection.execute(
                "INSERT INTO leases VALUES (?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET "
                "owner = excluded.owner, expires_at = excluded.expires_at "
                "WHERE leases.expires_at <= ? OR leases.owner = excluded.owner",
                (key, owner, now + ttl, now),
            )
            self._connection.commit()
            lease = self.get_lease(key)
            return lease is None or lease.owner == owner
        except sqlite3.DatabaseError as exc:
            warnings.warn(
                f"lease claim failed for [{key[:12]}…]: {exc}; proceeding "
                "without the lease (duplicate work possible, results "
                "unaffected)",
                StoreCorruptionWarning,
                stacklevel=2,
            )
            return True

    def release_lease(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (no-op if not held)."""
        try:
            self._connection.execute(
                "DELETE FROM leases WHERE key = ? AND owner = ?", (key, owner)
            )
            self._connection.commit()
        except sqlite3.DatabaseError:
            pass

    def get_lease(self, key: str) -> Optional[Lease]:
        """The current :class:`Lease` on ``key`` (possibly expired), or ``None``."""
        try:
            row = self._connection.execute(
                "SELECT owner, expires_at FROM leases WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            return None
        if row is None:
            return None
        return Lease(owner=row[0], expires_at=float(row[1]))

    def lease_counts(self) -> Tuple[int, int]:
        """``(total, active)`` lease rows — ``inspect`` shows both."""
        try:
            return _lease_counts(self._connection)
        except sqlite3.DatabaseError:
            return 0, 0

    def prune_leases(self) -> int:
        """Delete expired lease rows, returning how many were dropped."""
        try:
            cursor = self._connection.execute(
                "DELETE FROM leases WHERE expires_at <= ?", (time.time(),)
            )
            self._connection.commit()
            return cursor.rowcount
        except sqlite3.DatabaseError:
            return 0

    def __len__(self) -> int:
        counts = 0
        for table in _PAYLOAD_TABLES:
            counts += self._connection.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
        return counts

    def stats(self) -> Dict[str, int]:
        """Per-process hit/miss/integrity counters plus stored-entry counts."""
        counts = {
            table: self._connection.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
            for table in _PAYLOAD_TABLES
        }
        return {
            "opt_hits": self.opt_hits,
            "opt_misses": self.opt_misses,
            "unit_hits": self.unit_hits,
            "unit_misses": self.unit_misses,
            "construction_hits": self.construction_hits,
            "construction_misses": self.construction_misses,
            "frontier_hits": self.frontier_hits,
            "frontier_misses": self.frontier_misses,
            "integrity_failures": self.integrity_failures,
            "opt_entries": int(counts["opt"]),
            "unit_entries": int(counts["units"]),
            "construction_entries": int(counts["constructions"]),
            "frontier_entries": int(counts["frontiers"]),
            "lease_entries": self.lease_counts()[0],
        }

    def integrity_report(self) -> Dict[str, int]:
        """Re-checksum every stored row, dropping (and counting) garbled ones."""
        report = {"checked": 0, "dropped": 0}
        for table in _PAYLOAD_TABLES:
            rows = self._connection.execute(
                f"SELECT key, payload, checksum FROM {table}"
            ).fetchall()
            for key, payload, checksum in rows:
                report["checked"] += 1
                if _checksum(payload) != checksum:
                    report["dropped"] += 1
                    self.integrity_failures += 1
                    self._delete(table, key)
        if report["dropped"]:
            warnings.warn(
                f"solution store {self.path!r}: dropped {report['dropped']} "
                "garbled row(s) during the integrity sweep",
                StoreCorruptionWarning,
                stacklevel=2,
            )
        return report

    def __repr__(self) -> str:
        return (
            f"SolutionStore({self.path!r}, opt_hits={self.opt_hits}, "
            f"unit_hits={self.unit_hits})"
        )


# ----------------------------------------------------------------------
# Per-process store registry and the process-wide default
# ----------------------------------------------------------------------

#: One open store per path per process (SQLite connections are not picklable;
#: worker processes receive the *path* and open their own connection here).
#: The registry is PID-stamped: a fork-started pool worker inherits the dict
#: but must never reuse the parent's connections (SQLite forbids carrying a
#: connection across ``fork()``), so a PID mismatch drops the inherited
#: references — without closing them, they belong to the parent — and the
#: child reopens its own.
_OPEN_STORES: Dict[str, SolutionStore] = {}
_OPEN_STORES_PID = os.getpid()


def store_for_path(path) -> SolutionStore:
    """The per-process :class:`SolutionStore` for ``path`` (opened once).

    >>> import os, tempfile
    >>> path = os.path.join(tempfile.mkdtemp(), "shared.sqlite")
    >>> store_for_path(path) is store_for_path(path)    # one connection/path
    True
    >>> store_for_path(path).close()    # eviction: next call reopens fresh
    """
    global _OPEN_STORES_PID
    if os.getpid() != _OPEN_STORES_PID:
        _OPEN_STORES.clear()
        _OPEN_STORES_PID = os.getpid()
    key = os.path.abspath(str(path))
    store = _OPEN_STORES.get(key)
    if store is None:
        store = SolutionStore(key)
        _OPEN_STORES[key] = store
    return store


def store_path_from_env() -> Optional[str]:
    """The store path named by ``OSP_STORE``, or ``None`` (empty counts as unset).

    >>> import os
    >>> previous = os.environ.get(STORE_ENV_VAR)
    >>> os.environ[STORE_ENV_VAR] = ""
    >>> store_path_from_env() is None       # empty string counts as unset
    True
    >>> os.environ[STORE_ENV_VAR] = "/tmp/example.sqlite"
    >>> store_path_from_env()
    '/tmp/example.sqlite'
    >>> _ = (os.environ.pop(STORE_ENV_VAR, None) if previous is None
    ...      else os.environ.update({STORE_ENV_VAR: previous}))
    """
    raw = os.environ.get(STORE_ENV_VAR)
    return raw if raw else None


def resolve_store_path(store) -> Optional[str]:
    """The store file a ``store=`` argument names, or ``None`` for no store.

    The one reading of the ``store=`` convention of sweeps, matches, battles
    and stored constructions: ``None`` means the ``OSP_STORE`` default,
    ``False`` turns the store off, a path names that file and a
    :class:`SolutionStore` names its own.  Pool fan-out ships this path and
    each worker opens its own connection; in-process callers use
    :func:`resolve_store`.  Any other value, ``True`` included, is an error.

    >>> import pathlib, tempfile
    >>> previous = store_path_from_env()
    >>> set_default_store_path("/tmp/env.sqlite")
    >>> resolve_store_path(None), resolve_store_path(False)  # default; off
    ('/tmp/env.sqlite', None)
    >>> set_default_store_path(previous)
    >>> resolve_store_path("/tmp/a"), resolve_store_path(pathlib.Path("/tmp/b"))
    ('/tmp/a', '/tmp/b')
    >>> store = SolutionStore(os.path.join(tempfile.mkdtemp(), "c.sqlite"))
    >>> resolve_store_path(store) == store.path
    True
    >>> store.close()
    >>> resolve_store_path(True)                # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: store=True is not a store; pass a path, a SolutionStore, ...
    """
    if store is None:
        return store_path_from_env()
    if store is False:
        return None
    if isinstance(store, SolutionStore):
        return store.path
    if isinstance(store, (str, os.PathLike)):
        return os.fspath(store)
    raise ValueError(
        f"store={store!r} is not a store; pass a path, a SolutionStore, "
        "None (OSP_STORE default) or False (off)"
    )


def resolve_store(store) -> Optional[SolutionStore]:
    """The live store a ``store=`` argument names, or ``None`` for no store.

    Reads the :func:`resolve_store_path` vocabulary for in-process callers:
    a passed :class:`SolutionStore` is returned itself, and a path opens (or
    reuses) the per-process store for that file.

    >>> import tempfile
    >>> resolve_store(False) is None
    True
    >>> store = SolutionStore(os.path.join(tempfile.mkdtemp(), "d.sqlite"))
    >>> resolve_store(store) is store
    True
    >>> store.close()
    """
    if isinstance(store, SolutionStore):
        return store
    path = resolve_store_path(store)
    return None if path is None else store_for_path(path)


def set_default_store_path(path: Optional[str]) -> None:
    """Set (or clear, with ``None``) the process-wide default store path.

    The path is published through the ``OSP_STORE`` environment variable so
    that worker processes forked or spawned afterwards inherit it — that is
    what makes one ``--store`` flag cover a whole process pool.

    >>> import os
    >>> previous = os.environ.get(STORE_ENV_VAR)
    >>> set_default_store_path("/tmp/example.sqlite")
    >>> store_path_from_env()
    '/tmp/example.sqlite'
    >>> set_default_store_path(None)
    >>> store_path_from_env() is None
    True
    >>> set_default_store_path(previous)    # leave the session as it was
    """
    if path is None:
        os.environ.pop(STORE_ENV_VAR, None)
    else:
        os.environ[STORE_ENV_VAR] = str(path)


# ----------------------------------------------------------------------
# Command-line maintenance: python -m repro.experiments.store
# ----------------------------------------------------------------------


def _open_readonly(path: str) -> sqlite3.Connection:
    """Open an *existing* store file read-only, refusing rather than repairing.

    The maintenance verbs that only look at a store (``inspect``, ``merge``
    sources) must never create an empty store at a mistyped path, and must
    never quarantine a file the user pointed them at — a version mismatch or
    unreadable file is reported as an error, not "fixed".
    """
    if not os.path.isfile(path):
        raise StoreFileError(f"{path!r} is not a store file")
    connection = sqlite3.connect(f"file:{os.path.abspath(path)}?mode=ro", uri=True)
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'format_version'"
        ).fetchone()
    except sqlite3.DatabaseError as exc:
        connection.close()
        raise StoreFileError(f"{path!r} is not a readable solution store ({exc})")
    if row is None or row[0] != str(STORE_FORMAT_VERSION):
        connection.close()
        found = None if row is None else row[0]
        raise StoreFileError(
            f"{path!r} has store format version {found!r}, this repo "
            f"reads version {STORE_FORMAT_VERSION}"
        )
    return connection


def _existing_payload_tables(connection: sqlite3.Connection):
    """The payload tables present in a (possibly older) store file.

    Format version 1 files written before the ``constructions`` table
    existed are still valid stores; read-only verbs must not assume it.
    """
    present = {
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    return tuple(table for table in _PAYLOAD_TABLES if table in present)


def _lease_counts(connection: sqlite3.Connection) -> Tuple[int, int]:
    """``(total, active)`` leases in a (possibly pre-lease) store file.

    The ``leases`` table was added after the first release of format
    version 1 — like ``constructions``, its absence in a foreign file is
    not an error, just zero leases.
    """
    present = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' AND name = 'leases'"
    ).fetchone()
    if present is None:
        return 0, 0
    total = connection.execute("SELECT COUNT(*) FROM leases").fetchone()[0]
    active = connection.execute(
        "SELECT COUNT(*) FROM leases WHERE expires_at > ?", (time.time(),)
    ).fetchone()[0]
    return int(total), int(active)


def _audit_rows(connection: sqlite3.Connection):
    """Yield ``(table, key, payload, checksum, ok)`` for every stored row."""
    for table in _existing_payload_tables(connection):
        for key, payload, checksum in connection.execute(
            f"SELECT key, payload, checksum FROM {table}"
        ):
            yield table, key, payload, checksum, _checksum(payload) == checksum


def _cli_inspect(args) -> int:
    connection = _open_readonly(args.path)
    try:
        tables = _existing_payload_tables(connection)
        counts = {
            table: connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in tables
        }
        print(f"solution store {os.path.abspath(args.path)}")
        print(f"  format version: {STORE_FORMAT_VERSION}")
        print(f"  opt entries:    {counts.get('opt', 0)}")
        print(f"  unit entries:   {counts.get('units', 0)}")
        print(f"  construction entries: {counts.get('constructions', 0)}")
        print(f"  frontier entries: {counts.get('frontiers', 0)}")
        total_leases, active_leases = _lease_counts(connection)
        print(f"  lease entries:  {total_leases} ({active_leases} active)")
        print(f"  file size:      {os.path.getsize(args.path)} bytes")
        if args.check:
            garbled = sum(1 for *_ignored, ok in _audit_rows(connection) if not ok)
            total = sum(counts.values())
            print(f"  checksum audit: {total - garbled}/{total} rows valid")
            if garbled:
                print(f"  ({garbled} garbled row(s); run vacuum to drop them)")
                return 1
    finally:
        connection.close()
    return 0


def _cli_vacuum(args) -> int:
    size_before = os.path.getsize(args.path) if os.path.isfile(args.path) else None
    if size_before is None:
        raise StoreFileError(f"{args.path!r} is not a store file")
    # Pre-validate read-only: a version-mismatched or unreadable file must be
    # *refused* here — opening it through SolutionStore directly would
    # quarantine (rename away) the user's file and then report success.
    _open_readonly(args.path).close()
    store = SolutionStore(args.path)
    try:
        report = store.integrity_report()
        pruned_leases = store.prune_leases()
        store._connection.execute("VACUUM")
        store._connection.commit()
    finally:
        store.close()
    size_after = os.path.getsize(args.path)
    print(
        f"vacuumed {os.path.abspath(args.path)}: checked {report['checked']} "
        f"row(s), dropped {report['dropped']} garbled, "
        f"pruned {pruned_leases} expired lease(s), "
        f"{size_before} -> {size_after} bytes"
    )
    return 0


def merge_stores(destination: str, sources: Sequence[str]) -> Dict[str, int]:
    """Merge ``sources`` store files into ``destination``, first writer wins.

    The library form of the ``merge`` CLI verb, shared with the fabric
    reducer (:mod:`repro.experiments.fabric`).  Every source — and an
    *existing* destination — is validated read-only before the destination
    is touched, so an aborted merge (bad source path, source equals
    destination) never leaves a freshly created empty store behind; a bad
    file raises :class:`~repro.exceptions.StoreFileError`.  A fresh
    destination is created on demand, parent directories included (the
    same ``os.makedirs`` path :class:`SolutionStore` uses for any new
    store), so reducers can target output paths that do not exist yet.
    Rows whose payload fails its SHA-256 checksum are skipped — a garbled
    row in one shard never poisons the destination — and duplicate keys
    keep the destination's copy (``INSERT OR IGNORE``), preserving the
    content-addressed first-writer-wins contract.

    Returns a flat report: ``examined``/``skipped`` row counts plus one
    ``added_<table>`` count per payload table.

    >>> import os, tempfile
    >>> base = tempfile.mkdtemp()
    >>> for name in ("a", "b"):
    ...     s = SolutionStore(os.path.join(base, name + ".sqlite"))
    ...     s.put_opt("shared", 1.0); s.put_opt(name, 2.0); s.close()
    >>> report = merge_stores(os.path.join(base, "new", "merged.sqlite"),
    ...                       [os.path.join(base, "a.sqlite"),
    ...                        os.path.join(base, "b.sqlite")])
    >>> (report["examined"], report["added_opt"], report["skipped"])
    (4, 3, 0)
    """
    for source_path in sources:
        if os.path.abspath(source_path) == os.path.abspath(destination):
            raise StoreFileError("a merge source equals the destination")
        _open_readonly(source_path).close()
    # A *fresh* destination is created on demand, but an existing file must
    # be a valid same-version store — refuse rather than quarantine it.
    if os.path.exists(destination):
        _open_readonly(destination).close()
    destination_store = SolutionStore(destination)
    inserted = {table: 0 for table in _PAYLOAD_TABLES}
    examined = skipped = 0
    try:
        for source_path in sources:
            source = _open_readonly(source_path)
            try:
                for table, key, payload, checksum, ok in _audit_rows(source):
                    examined += 1
                    if not ok:
                        skipped += 1
                        continue
                    cursor = destination_store._connection.execute(
                        f"INSERT OR IGNORE INTO {table} VALUES (?, ?, ?)",
                        (key, payload, checksum),
                    )
                    inserted[table] += cursor.rowcount
            finally:
                source.close()
        destination_store._connection.commit()
    finally:
        destination_store.close()
    report = {"examined": examined, "skipped": skipped}
    for table, count in inserted.items():
        report[f"added_{table}"] = count
    return report


def _cli_merge(args) -> int:
    report = merge_stores(args.destination, args.sources)
    print(
        f"merged {len(args.sources)} store(s) into "
        f"{os.path.abspath(args.destination)}: examined "
        f"{report['examined']} row(s), "
        f"added {report['added_opt']} opt + {report['added_units']} unit + "
        f"{report['added_constructions']} construction + "
        f"{report['added_frontiers']} frontier entries, "
        f"skipped {report['skipped']} garbled"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``python -m repro.experiments.store`` maintenance CLI.

    Three verbs: ``inspect`` (read-only summary, ``--check`` audits every
    row's checksum), ``vacuum`` (drop garbled rows and reclaim file space)
    and ``merge`` (combine store files; garbled source rows are skipped,
    duplicate keys keep the destination's copy).

    >>> import os, tempfile
    >>> path = os.path.join(tempfile.mkdtemp(), "demo.sqlite")
    >>> store = SolutionStore(path)
    >>> store.put_opt("content-key", 2.5)
    >>> store.close()
    >>> main(["inspect", path])                  # doctest: +ELLIPSIS
    solution store ...demo.sqlite
      format version: 2
      opt entries:    1
      unit entries:   0
      construction entries: 0
      frontier entries: 0
      lease entries:  0 (0 active)
      file size:      ... bytes
    0
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.store",
        description="Inspect and maintain persistent OSP solution stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    inspect_parser = commands.add_parser(
        "inspect", help="print a read-only summary of a store file"
    )
    inspect_parser.add_argument("path", help="store file to inspect")
    inspect_parser.add_argument(
        "--check",
        action="store_true",
        help="additionally verify every row's SHA-256 checksum",
    )
    inspect_parser.set_defaults(handler=_cli_inspect)

    vacuum_parser = commands.add_parser(
        "vacuum", help="drop garbled rows and reclaim file space"
    )
    vacuum_parser.add_argument("path", help="store file to vacuum (modified in place)")
    vacuum_parser.set_defaults(handler=_cli_vacuum)

    merge_parser = commands.add_parser(
        "merge", help="merge source stores into a destination store"
    )
    merge_parser.add_argument("destination", help="store file to merge into (created if missing)")
    merge_parser.add_argument("sources", nargs="+", help="store files to merge from")
    merge_parser.set_defaults(handler=_cli_merge)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StoreFileError as exc:
        raise SystemExit(f"error: {exc}")

