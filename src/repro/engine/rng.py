"""Bit-exact numpy replay of CPython ``random.Random`` streams (the RNG bridge).

The batch engine's exactness contract says trial ``b`` of a batch reproduces
``simulate(instance, algorithm, rng=random.Random(seed + b))`` bit for bit.
Until this module existed, that forced :func:`~repro.engine.specs.priority_matrix`
to *draw* its priorities through per-trial Python loops — the last serial
Python stage on the batch hot path.  This module removes it by replaying
CPython's Mersenne Twister in numpy:

* CPython's ``random.Random`` and ``numpy.random.RandomState`` wrap the very
  same MT19937 generator: a 624-word ``uint32`` state vector, the same twist,
  the same tempering, and the same 53-bit double construction
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over consecutive output pairs.
  Only the *seeding* differs.  :func:`transplant_rng` therefore moves a
  ``random.Random``'s ``getstate()`` vector into a ``RandomState`` verbatim
  (same 624 words, same position), after which ``random_sample`` replays
  ``random()`` bit for bit.
* Per-trial transplanting is exact but slow (``getstate`` materializes 625
  Python ints per trial), so the batch path goes further:
  :func:`state_matrix` re-implements CPython's ``init_by_array`` seeding
  *vectorized across the trials axis*, and :class:`WordStreams` — the one
  stream type — runs the MT19937 twist + tempering on the whole
  ``(624, trials)`` state matrix.  Every consumer reads its words:
  :func:`uniform_matrix` (the cached ``(trials, draws)`` table of
  ``random.Random(seed + b).random()`` values, also read in trial blocks
  through :func:`uniform_blocks`), :meth:`WordStreams.random` (the same
  values in chunks, for the streaming engine's static draws and for
  uniform-random's fixed per-arrival draws) and :func:`getrandbits64` (the
  hashed variant's salts).
* :func:`exact_pow` applies the inverse-CDF transform ``u ** (1/w)`` with the
  same C-library ``pow`` the reference algorithms call.  numpy's vectorized
  ``**`` uses a SIMD polynomial that is *not* bit-identical to libm ``pow``
  (off by one ulp on a few percent of inputs on this stack), so the transform
  stays on scalar ``math.pow`` per element wherever the exact values matter.

``docs/INTERNALS-rng.md`` documents the trick, why ``getstate`` →
``set_state`` is exact, and the draw-order contract a new vectorizable
algorithm kind must satisfy.  ``tests/test_engine_rng.py`` pins every piece
against the CPython originals.

>>> import random
>>> rng = random.Random(7)
>>> bridged = transplant_rng(random.Random(7))
>>> [rng.random() for _ in range(3)] == list(bridged.random_sample(3))
True
"""

from __future__ import annotations

import copy
import math
import random
from collections import OrderedDict
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "transplant_rng",
    "state_matrix",
    "uniform_matrix",
    "cached_uniform_matrix",
    "uniform_blocks",
    "WordStreams",
    "getrandbits64",
    "exact_pow",
    "clear_uniform_cache",
    "uniform_cache_stats",
]

#: MT19937 state size in 32-bit words.
MT_N = 624

_UPPER = np.uint32(0x80000000)  # most significant w-r bits
_LOWER = np.uint32(0x7FFFFFFF)  # least significant r bits
_MATRIX_A = np.uint32(0x9908B0DF)
_MIX1 = np.uint32(1664525)
_MIX2 = np.uint32(1566083941)
_TEMPER_B = np.uint32(0x9D2C5680)
_TEMPER_C = np.uint32(0xEFC60000)

#: Trials are seeded in blocks of this many streams (:func:`_trial_blocks`),
#: wide enough to amortize :func:`_seed_group`'s ~7.5k ufunc calls per block.
_TRIAL_BLOCK = 4096

#: A block's streams are twisted, tempered, paired and replayed this many
#: lanes at a time, so every per-chunk temporary is a lane chunk wide.
_LANE_CHUNK = 1024

#: Rows per twist segment: word ``i`` reads word ``i + 397`` (mod 624), which
#: the twist has already regenerated from ``i = 227`` on (see :func:`_twist`).
_SEGMENT = MT_N - 397

#: ``i`` as a wrapping ``uint32`` scalar, precomputed for the seeding loops.
_U32_INDEX: Tuple[np.uint32, ...] = tuple(np.uint32(i) for i in range(MT_N))

_base_state_cache: List[np.ndarray] = []


def _base_state() -> np.ndarray:
    """The fixed ``init_genrand(19650218)`` state ``init_by_array`` starts from."""
    if not _base_state_cache:
        mt = np.empty(MT_N, dtype=np.uint64)
        mt[0] = 19650218
        for i in range(1, MT_N):
            mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
        _base_state_cache.append(mt.astype(np.uint32))
    return _base_state_cache[0]


def transplant_rng(source: random.Random) -> np.random.RandomState:
    """A ``numpy.random.RandomState`` continuing ``source``'s exact stream.

    Copies the 624-word MT19937 state vector *and* the stream position from
    ``source.getstate()`` into the ``RandomState``, so every subsequent
    ``random_sample`` value equals the ``random()`` value ``source`` would
    have produced — the same words in the same order through the same
    ``(a >> 5) * 2**26 + (b >> 6)`` pairing.  The two generators share no
    state afterwards: advancing one does not advance the other.

    This is the general-purpose (any seedable object, any seed type) form of
    the bridge; the batch hot path uses the vectorized :func:`state_matrix`
    seeding instead, which is an order of magnitude faster per trial.

    >>> import random
    >>> source = random.Random("any hashable seed")
    >>> mirror = transplant_rng(random.Random("any hashable seed"))
    >>> all(source.random() == value for value in mirror.random_sample(1000))
    True
    """
    _version, state, _gauss = source.getstate()
    key, position = state[:-1], state[-1]
    mirror = np.random.RandomState()
    mirror.set_state(("MT19937", np.asarray(key, dtype=np.uint32), position))
    return mirror


def _seed_digits(seed: int) -> Tuple[int, ...]:
    """``abs(seed)`` as little-endian 32-bit digits (CPython's seeding key)."""
    value = abs(int(seed))
    if value == 0:
        return (0,)
    digits = []
    while value:
        digits.append(value & 0xFFFFFFFF)
        value >>= 32
    return tuple(digits)


def _seed_group(key_matrix: np.ndarray) -> np.ndarray:
    """``init_by_array`` for same-length keys, vectorized across the batch.

    ``key_matrix`` is the ``(key_length, batch)`` uint32 matrix of seeding
    keys, one key per column.  Returns the ``(MT_N, batch)`` state matrix
    (trials are *columns* so each scalar mixing step touches one contiguous
    row).  This is a literal transcription of CPython's ``init_by_array``:
    the loop over the 1247 mixing steps stays in Python, but each step is
    one vectorized update of all trials, so the per-trial cost is a handful
    of C operations.
    """
    key_length, batch = key_matrix.shape
    # init_key[j] + j, wrapped to uint32, hoisted out of the mixing loop.
    key_plus_j = [key_matrix[j] + np.uint32(j) for j in range(key_length)]

    mt = np.empty((MT_N, batch), dtype=np.uint32)
    mt[:] = _base_state()[:, np.newaxis]
    tmp = np.empty(batch, dtype=np.uint32)

    # ~6000 small ufunc calls follow; locals keep the dispatch overhead down.
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    add, sub = np.add, np.subtract
    i, j = 1, 0
    for _ in range(max(MT_N, key_length)):
        previous = mt[i - 1]
        shift(previous, 30, out=tmp)
        xor(tmp, previous, out=tmp)
        mul(tmp, _MIX1, out=tmp)
        row = mt[i]
        xor(row, tmp, out=row)
        add(row, key_plus_j[j], out=row)
        i += 1
        j += 1
        if i >= MT_N:
            mt[0] = mt[MT_N - 1]
            i = 1
        if j >= key_length:
            j = 0
    for _ in range(MT_N - 1):
        previous = mt[i - 1]
        shift(previous, 30, out=tmp)
        xor(tmp, previous, out=tmp)
        mul(tmp, _MIX2, out=tmp)
        row = mt[i]
        xor(row, tmp, out=row)
        sub(row, _U32_INDEX[i], out=row)
        i += 1
        if i >= MT_N:
            mt[0] = mt[MT_N - 1]
            i = 1
    mt[0] = _UPPER
    return mt


#: Seeds strictly inside ``(-2**32, 2**32)`` have one-digit seeding keys.
_ONE_DIGIT_BOUND = 1 << 32


def _state_matrix_T(seeds: Sequence[int]) -> np.ndarray:
    """``(MT_N, len(seeds))`` state matrix, trials as columns (internal layout).

    A ``range`` of seeds inside ``(-2**32, 2**32)`` — every batch's trial
    seeds, in practice — has one-digit keys, so its key row is one numpy
    ``abs`` over the range; any other seeds go through per-seed digits.
    """
    if not seeds:
        return np.empty((MT_N, 0), dtype=np.uint32)
    if isinstance(seeds, range) and max(abs(seeds[0]), abs(seeds[-1])) < _ONE_DIGIT_BOUND:
        keys = np.abs(np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.int64))
        return _seed_group(keys.astype(np.uint32)[np.newaxis])
    digit_keys = [_seed_digits(seed) for seed in seeds]
    lengths = {len(key) for key in digit_keys}
    if len(lengths) == 1:
        return _seed_group(np.array(digit_keys, dtype=np.uint32).T)
    # Mixed digit counts (a trial range straddling a 2**32 boundary): seed
    # each same-length group vectorized, then scatter the columns back.
    mt = np.empty((MT_N, len(seeds)), dtype=np.uint32)
    groups: Dict[int, List[int]] = {}
    for index, key in enumerate(digit_keys):
        groups.setdefault(len(key), []).append(index)
    for _length, indices in groups.items():
        group_keys = [digit_keys[index] for index in indices]
        mt[:, indices] = _seed_group(np.array(group_keys, dtype=np.uint32).T)
    return mt


def state_matrix(seeds: Iterable[int]) -> np.ndarray:
    """The MT19937 state vectors of ``random.Random(seed)`` for each seed.

    Row ``t`` equals the 624 words of ``random.Random(seeds[t]).getstate()``
    (at stream position 624, i.e. freshly seeded, not a single value drawn):
    the vectorized re-implementation of CPython's ``init_by_array`` produces
    the same states as the C original, word for word.  Accepts any mix of
    int seeds — zero, negative (CPython seeds by absolute value) and
    arbitrarily large values included.

    >>> import random
    >>> reference = random.Random(2024).getstate()[1][:-1]
    >>> tuple(int(w) for w in state_matrix([2024])[0]) == reference
    True
    """
    seed_list = seeds if isinstance(seeds, range) else [int(seed) for seed in seeds]
    return np.ascontiguousarray(_state_matrix_T(seed_list).T)


def _twist(mt: np.ndarray, y_rows: np.ndarray, tmp_rows: np.ndarray) -> None:
    """One in-place MT19937 state regeneration over the ``(MT_N, batch)`` matrix.

    The scalar twist updates word ``i`` from words ``i+1`` and ``i+397``
    (mod 624) *sequentially*, so later words read already-regenerated values.
    The vectorized version runs three row segments, ``[0, 227)``, ``[227,
    454)`` and ``[454, 623)``, in turn, so each reads what the scalar loop
    reads: ``y`` from old words, the back-reference from the old ``[397,
    624)`` or from rows an earlier segment regenerated.  The two scratch
    arrays are reusable ``(_SEGMENT, batch)`` buffers.
    """
    for start, source in ((0, 397), (_SEGMENT, 0), (2 * _SEGMENT, _SEGMENT)):
        stop = min(start + _SEGMENT, MT_N - 1)
        y, tmp = y_rows[: stop - start], tmp_rows[: stop - start]
        # y <- (y_i >> 1) ^ mag01[y_i & 1] for y_i = hi(mt[i]) | lo(mt[i+1])
        np.bitwise_and(mt[start + 1 : stop + 1], _LOWER, out=y)
        np.bitwise_and(mt[start:stop], _UPPER, out=tmp)
        np.bitwise_or(y, tmp, out=y)
        np.right_shift(y, 1, out=tmp)
        np.bitwise_and(y, np.uint32(1), out=y)
        np.multiply(y, _MATRIX_A, out=y)
        np.bitwise_xor(tmp, y, out=y)
        np.bitwise_xor(mt[source : source + stop - start], y, out=mt[start:stop])
    y_last = (mt[MT_N - 1] & _UPPER) | (mt[0] & _LOWER)
    mt[623] = mt[396] ^ (y_last >> 1) ^ ((y_last & np.uint32(1)) * _MATRIX_A)


def _temper(words: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """MT19937 output tempering into ``out`` (elementwise, shape-matched)."""
    scratch = scratch[: len(out)]
    np.right_shift(words, 11, out=out)
    np.bitwise_xor(out, words, out=out)
    np.left_shift(out, 7, out=scratch)
    np.bitwise_and(scratch, _TEMPER_B, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.left_shift(out, 15, out=scratch)
    np.bitwise_and(scratch, _TEMPER_C, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.right_shift(out, 18, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    return out


class WordStreams:
    """Per-trial MT19937 streams, generated in lockstep.

    Stream ``b`` replays the tempered 32-bit outputs of
    ``random.Random(seed + b)`` (the batch engine's trial seeding) from one
    lockstep generator, the bridge's only twist/temper loop.  Every trial
    reads the same number of words, so no per-trial position is kept:
    :meth:`random` hands out the next ``random()`` values of every trial,
    and :func:`uniform_matrix` and :func:`getrandbits64` read raw words.
    Twist, tempering and pairing run :data:`_LANE_CHUNK` lanes at a time on
    ``(227, _LANE_CHUNK)`` scratch; :meth:`chunks` hands out column views.
    """

    def __init__(self, seed: int, trials: int) -> None:
        if trials < 0:
            raise ValueError(f"trials must be non-negative, got {trials}")
        self._seed(seed, trials)
        lanes = min(trials, _LANE_CHUNK)
        self._scratch_a = np.empty((_SEGMENT, lanes), dtype=np.uint32)
        self._scratch_b = np.empty((_SEGMENT, lanes), dtype=np.uint32)

    def _seed(self, seed: int, trials: int) -> None:
        """Seed at ``seed``, releasing any old state first (keeps the scratch)."""
        self._mt = None
        self.trials = trials
        self._mt = _state_matrix_T(range(int(seed), int(seed) + trials))
        # Rows of the current twist block already handed out; a freshly
        # seeded generator (CPython's position 624) twists on its first word.
        self._block_used = MT_N

    def chunks(self) -> Iterator[Tuple[int, "WordStreams"]]:
        """``(first lane, view)`` per :data:`_LANE_CHUNK` lanes of these streams.

        A view shares these state columns and scratch but keeps its own
        stream position (this generator's then no longer holds for its
        lanes).  It is valid only until the next one is drawn.
        """
        for first in range(0, self.trials, _LANE_CHUNK):
            view = copy.copy(self)
            view._mt = self._mt[:, first : first + _LANE_CHUNK]
            view.trials = view._mt.shape[1]
            yield first, view
            view._mt = None

    def _generate(self, out: np.ndarray) -> np.ndarray:
        """Fill the ``(count, trials)`` array ``out`` with the next words
        (uint32) or ``random()`` values (float64, each pairing two words).

        A block is twisted only once the previous one is used up, and only
        the rows handed out are tempered, at most one scratch's rows at a
        time; the untempered rest of the block stays in the generator state.
        """
        paired = out.dtype == np.float64
        if paired:
            words = np.empty((2 * len(out), min(self.trials, _LANE_CHUNK)), dtype=np.uint32)
        used = position = self._block_used  # every chunk starts at one position
        for first in range(0, self.trials, _LANE_CHUNK):
            lanes = min(_LANE_CHUNK, self.trials - first)
            target = words[:, :lanes] if paired else out[:, first : first + lanes]
            mt, scratch = self._mt[:, first : first + lanes], self._scratch_a[:, :lanes]
            used, filled = position, 0
            while filled < len(target):
                if used == MT_N:
                    _twist(mt, scratch, self._scratch_b[:, :lanes])
                    used = 0
                take = min(MT_N - used, len(target) - filled, _SEGMENT)
                _temper(mt[used : used + take], target[filled : filled + take], scratch)
                used, filled = used + take, filled + take
            if paired:
                _res53(target, out[:, first : first + lanes])
        self._block_used = used
        return out

    def random(self, count: int) -> np.ndarray:
        """The next ``count`` ``random()`` values of every trial, in lockstep.

        Returns a writable ``(trials, count)`` float64 array (a transposed
        view of a C-contiguous ``(count, trials)`` one); chunks concatenate
        to :func:`uniform_matrix`.

        >>> import random
        >>> streams = WordStreams(seed=11, trials=2)
        >>> chunk = np.concatenate([streams.random(3), streams.random(2)], axis=1)
        >>> reference = random.Random(11 + 1)          # trial b=1
        >>> [reference.random() for _ in range(5)] == list(chunk[1])
        True
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._generate(np.empty((count, self.trials))).T


def _res53(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """CPython's ``genrand_res53`` over consecutive word pairs, into ``out``.

    ``a = next() >> 5`` (27 bits), ``b = next() >> 6`` (26 bits), value
    ``(a * 2**26 + b) / 2**53``.  Every step is exact in float64 (the
    integers stay below 2**53 and the scale is a power of two), so the
    result is bit-equal to CPython's regardless of FMA contraction.  The
    shifts run in place, so ``words`` is consumed.
    """
    first, second = words[0::2], words[1::2]
    np.right_shift(first, 5, out=first)
    np.multiply(first, 67108864.0, out=out)
    np.right_shift(second, 6, out=second)
    np.add(out, second, out=out)
    return np.multiply(out, 1.0 / 9007199254740992.0, out=out)


def _trial_blocks(seed: int, trials: int) -> Iterator[Tuple[int, WordStreams]]:
    """``(start, streams)`` per :data:`_TRIAL_BLOCK` trials, seeded at ``seed + start``.

    Seeding is wide, reading narrow (:meth:`WordStreams.chunks`).  One
    object is re-seeded block after block, so one block's state is alive at
    a time and a yielded block is valid only until the next one is drawn.
    """
    streams = WordStreams(seed, min(_TRIAL_BLOCK, trials))
    for start in range(0, trials, _TRIAL_BLOCK):
        if start:
            streams._seed(seed + start, min(_TRIAL_BLOCK, trials - start))
        yield start, streams


# ----------------------------------------------------------------------
# The cached uniform table
# ----------------------------------------------------------------------

#: LRU cache of finished uniform matrices, keyed by ``(seed, trials)``.  A
#: sweep measures several algorithms on one instance with one (seed, trials)
#: pair — randPr, the uniform-priority ablation and the uniform-random
#: baseline then read a single draw table instead of re-seeding and
#: re-twisting ``trials`` generators per kind.  An entry holds every draw of
#: the twist blocks its miss generated, so it serves any narrower request
#: at its key as a column prefix.
_UNIFORM_CACHE: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
_UNIFORM_CACHE_MAX_ENTRIES = 4
_UNIFORM_CACHE_MAX_BYTES = 32 << 20
_uniform_cache_hits = 0
_uniform_cache_misses = 0

#: ``random()`` values per twist block (each one pairs two of its words).
_DRAWS_PER_BLOCK = MT_N // 2


def clear_uniform_cache() -> None:
    """Drop every cached uniform matrix (used by benchmarks for cold timings)."""
    global _uniform_cache_hits, _uniform_cache_misses
    _UNIFORM_CACHE.clear()
    _uniform_cache_hits = 0
    _uniform_cache_misses = 0


def uniform_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the per-process uniform-matrix cache.

    >>> clear_uniform_cache()
    >>> _ = uniform_matrix(99, trials=4, draws=8)
    >>> _ = uniform_matrix(99, trials=4, draws=8)
    >>> stats = uniform_cache_stats()
    >>> stats["hits"], stats["misses"], stats["entries"]
    (1, 1, 1)
    """
    return {
        "hits": _uniform_cache_hits,
        "misses": _uniform_cache_misses,
        "entries": len(_UNIFORM_CACHE),
    }


def cached_uniform_matrix(seed: int, trials: int, draws: int) -> Optional[np.ndarray]:
    """:func:`uniform_matrix`'s table if the cache already covers it, else ``None``.

    A lookup: a hit is counted and refreshes the entry's LRU position, but
    nothing is ever generated or cached (so no miss is counted).
    uniform-random's replay reads its fixed per-arrival draws from here when
    an earlier kind of the same sweep unit drew the table, and streams them
    otherwise, which keeps its own memory bounded.

    >>> clear_uniform_cache()
    >>> cached_uniform_matrix(3, trials=2, draws=4) is None
    True
    >>> _ = uniform_matrix(3, trials=2, draws=4)  # pairs its whole twist block
    >>> cached_uniform_matrix(3, trials=2, draws=312).shape
    (2, 312)
    >>> cached_uniform_matrix(3, trials=2, draws=313) is None
    True
    """
    global _uniform_cache_hits
    key = (int(seed), int(trials))
    cached = _UNIFORM_CACHE.get(key)
    if cached is None or cached.shape[1] < draws:
        return None
    _uniform_cache_hits += 1
    _UNIFORM_CACHE.move_to_end(key)
    return cached[:, :draws]  # F-ordered, so the prefix is F-contiguous


def uniform_matrix(seed: int, trials: int, draws: int) -> np.ndarray:
    """The exact ``(trials, draws)`` table of per-trial ``random()`` values.

    Entry ``[b, k]`` is bit-equal to the ``k``-th ``random.Random(seed + b)
    .random()`` call — the batch engine's seeding convention — produced
    entirely by vectorized numpy operations (see the module docstring for the
    pipeline).  The returned array is **read-only** and F-contiguous: a view
    of the cached table within the cache's byte cap, else a fresh table
    cached nowhere (:func:`uniform_blocks` never builds that one whole).

    A miss whose table fits the cache's byte cap pairs every word of the
    twist blocks it generates — ``draws`` rounded up to a multiple of
    :data:`_DRAWS_PER_BLOCK`, clamped to the cap — and caches that wider
    table, so any request at the same ``(seed, trials)`` for as many draws
    or fewer is a hit.  A wider request regenerates and replaces the entry.

    >>> import random
    >>> table = uniform_matrix(123, trials=3, draws=5)
    >>> bool(table.flags.writeable)
    False
    >>> reference = random.Random(123 + 1)          # trial b=1
    >>> [reference.random() for _ in range(5)] == list(table[1])
    True
    """
    if trials < 0 or draws < 0:
        raise ValueError(f"trials and draws must be non-negative, got {trials}, {draws}")
    global _uniform_cache_misses
    cached = cached_uniform_matrix(seed, trials, draws)
    if cached is not None:
        return cached
    _uniform_cache_misses += 1

    cacheable = 0 < trials * draws * 8 <= _UNIFORM_CACHE_MAX_BYTES
    width = draws
    if cacheable:
        whole_blocks = -(-draws // _DRAWS_PER_BLOCK) * _DRAWS_PER_BLOCK
        width = min(whole_blocks, _UNIFORM_CACHE_MAX_BYTES // (8 * trials))
    # Fortran order: the generator pipeline is (draws, trials)-major, so an
    # F-ordered table makes every transpose below a zero-copy view.  Callers
    # only ever index and compare, which is layout-agnostic.
    out = np.empty((trials, width), dtype=np.float64, order="F")
    for start, streams in _trial_blocks(seed, trials):
        streams._generate(out[start : start + streams.trials].T)  # C-contiguous
    out.setflags(write=False)
    if cacheable:
        key = (int(seed), int(trials))
        _UNIFORM_CACHE[key] = out
        _UNIFORM_CACHE.move_to_end(key)  # a wider table replacing a narrower one
        while len(_UNIFORM_CACHE) > _UNIFORM_CACHE_MAX_ENTRIES:
            _UNIFORM_CACHE.popitem(last=False)
    return out[:, :draws]


def uniform_blocks(seed: int, trials: int, draws: int) -> Iterator[Tuple[int, np.ndarray]]:
    """:func:`uniform_matrix`'s rows as ``(start, rows)`` blocks of trials.

    Within the cache's byte cap: one block, the shared cached table.  Over
    it: each :data:`_TRIAL_BLOCK` trials are seeded once (:func:`_trial_blocks`)
    and yield fresh rows :data:`_LANE_CHUNK` lanes at a time, cached nowhere.

    >>> [(start, rows.shape) for start, rows in uniform_blocks(8, 3, 4)]
    [(0, (3, 4))]
    """
    if trials * draws * 8 <= _UNIFORM_CACHE_MAX_BYTES:
        yield 0, uniform_matrix(seed, trials, draws)
        return
    for start, streams in _trial_blocks(seed, trials):
        for first, lanes in streams.chunks():
            yield start + first, lanes.random(draws)


def getrandbits64(seed: int, trials: int) -> List[int]:
    """Per-trial replay of ``random.Random(seed + b).getrandbits(64)``.

    ``getrandbits(64)`` consumes two 32-bit outputs little-endian (the first
    word is the low half), which is exactly the first generator pair — so the
    salted hashed-randPr variant can draw its per-trial salts from the same
    vectorized stream the priority draws come from.  The streams are seeded
    :data:`_TRIAL_BLOCK` trials at a time (:func:`_trial_blocks`), which
    bounds their state.

    >>> import random
    >>> getrandbits64(5, trials=2) == [random.Random(5 + b).getrandbits(64)
    ...                                for b in range(2)]
    True
    """
    salts: List[int] = []
    for _start, streams in _trial_blocks(seed, trials):
        words = streams._generate(np.empty((2, streams.trials), dtype=np.uint32))
        low, high = words.astype(np.uint64)
        salts += (low | (high << np.uint64(32))).tolist()
    return salts


def exact_pow(base: np.ndarray, exponents: Sequence[float]) -> np.ndarray:
    """Columnwise ``base ** exponents``, bit-equal to CPython's scalar ``**``.

    ``base`` is ``(trials, m)`` with entries in ``[0, 1]`` and ``exponents``
    one positive finite float per column.  numpy's vectorized ``**`` is *not*
    used: its SIMD kernel disagrees with the C library ``pow`` that
    ``float.__pow__`` calls by one ulp on a small fraction of inputs, which
    would silently break the engine's bit-exactness contract.  Instead each
    column runs ``math.pow`` (the identical libm call) in a tight scalar
    loop; columns with exponent exactly 1.0 are copied outright, which C99
    Annex F guarantees is what ``pow`` returns (``pow(x, 1) == x``) — the
    common unweighted-workload case costs nothing.

    >>> import numpy as np
    >>> table = np.array([[0.25, 0.5], [0.81, 0.9]])
    >>> exact_pow(table, [0.5, 1.0]).tolist() == [[0.25 ** 0.5, 0.5],
    ...                                           [0.81 ** 0.5, 0.9]]
    True
    """
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2:
        raise ValueError(f"expected a (trials, m) matrix, got shape {base.shape}")
    exponent_list = [float(exponent) for exponent in exponents]
    if len(exponent_list) != base.shape[1]:
        raise ValueError(
            f"{base.shape[1]} columns but {len(exponent_list)} exponents"
        )
    trials = base.shape[0]
    # Column-major throughout: a bridge table arrives F-ordered, so both
    # transposes here are zero-copy views; the result is returned F-ordered
    # (callers index and compare, which is layout-agnostic).
    columns = np.ascontiguousarray(base.T)
    out_T = np.empty_like(columns)
    pow_ = math.pow
    for j, exponent in enumerate(exponent_list):
        if exponent == 1.0:
            out_T[j] = columns[j]
        else:
            out_T[j] = np.fromiter(
                map(pow_, columns[j].tolist(), repeat(exponent)),
                np.float64,
                count=trials,
            )
    return out_T.T
