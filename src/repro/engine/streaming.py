"""Streaming batch simulation straight from a router :class:`Trace`.

The batch engine of :mod:`repro.engine.batch` runs on a compiled
:class:`~repro.core.instance.OnlineInstance`; pushing a router trace through
it means first materializing the instance *and* a ``(trials, frames)``
priority draw table.  For the mega-trace regime of the bottleneck-router
scenario (millions of packets across tens of thousands of frames) that table
is the dominant allocation — and it is unnecessary: a frame's priority row
is only ever consulted between the arrival of its first packet and the
departure of its last.

This module compiles a :class:`~repro.network.traffic.Trace` directly into a
:class:`CompiledTrace` (the streaming sibling of
:class:`~repro.engine.compile.CompiledInstance`) and replays trials in
chunked **time windows**:

* arrivals are processed in slot order, window by window;
* a frame's ``(trials,)`` priority row is drawn when the window containing
  its first packet-slot opens and freed once its last packet-slot has
  passed, so the resident ``(trials, active_frames)`` pool tracks the
  *admission spread* of the trace — not its length;
* the draws come from :meth:`WordStreams.random
  <repro.engine.rng.WordStreams.random>`, the bridge's lockstep
  ``random()`` replay in chunks: only the generator state is held between
  windows, never a draw table.

**Exactness contract** (the repo's standard one, enforced by
``tests/test_router_streaming_differential.py``): trial ``b`` of
:func:`simulate_trace_batch` is bit-identical to
``simulate(trace.to_instance(), algorithm, rng=random.Random(seed + b))`` —
same completed frames, same benefit floats, for every window size.  Window
boundaries are invisible in the results.

**The draw-order caveat.**  The reference algorithms draw static priorities
in the ``repr`` order of the frame identifiers (``docs/INTERNALS-rng.md``'s
draw-order contract), while the stream processes packets in *time* order.
A frame's row must therefore be drawn no later than the first window that
needs **any later-ordered frame** — the admission sweep advances through the
columns sequentially and the pool's true bound is the spread between frame
*identifier order* and *arrival order* (``CompiledTrace.admission_slot``
makes the bound explicit, :meth:`CompiledTrace.peak_active_frames` computes
it exactly).  The stock generators' unpadded decimal identifiers
(``"f0.10" < "f0.2"``) scramble the two orders; for mega traces, generate
with ``id_pad`` set (see :mod:`repro.network.traffic`) so identifier order
tracks arrival order and the pool stays small.  Results are bit-exact either
way — only the memory bound changes.  ``docs/INTERNALS-streaming.md``
documents the dataflow, the frame lifecycle and this caveat in detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.algorithm import OnlineAlgorithm
from repro.core.set_system import InvalidSetSystemError
from repro.engine import rng as rng_bridge
from repro.engine.batch import (
    BatchResult,
    _batch_result,
    _contested_groups,
    _drop_losers,
    _randpr_keys,
    _replay_reference,
    _run_greedy,
    _run_uniform_random,
)
from repro.engine.compile import CompiledInstance
from repro.engine.specs import (
    GREEDY_KINDS,
    PER_STEP_RANDOM_KINDS,
    UNIFORM_DRAW_KINDS,
    AlgorithmSpec,
    priority_columns,
    resolve_spec,
    zero_draw_trials,
)
from repro.exceptions import OspError

__all__ = [
    "CompiledTrace",
    "compile_trace",
    "simulate_trace_batch",
    "DEFAULT_WINDOW_SLOTS",
]

#: Default time-window width (in slots) of the streaming replay.  Purely a
#: batching knob: results are bit-identical for every window size, only the
#: admission granularity (and so the transient pool occupancy) changes.
DEFAULT_WINDOW_SLOTS = 1024


@dataclass(frozen=True)
class CompiledTrace(CompiledInstance):
    """A router :class:`~repro.network.traffic.Trace` flattened for streaming.

    A :class:`~repro.engine.compile.CompiledInstance` whose arrays are
    exactly those of ``compile_instance(trace.to_instance())`` — columns are
    the frame identifiers in ``repr`` order, steps are the non-empty slots in
    time order with their parent columns ascending — so every replay kernel
    of :mod:`repro.engine.batch` runs on it unchanged (and
    :func:`~repro.engine.batch.simulate_batch` accepts it whole).  On top of
    that, the trace-specific arrays pin each frame's **lifecycle**:

    ``step_slots``
        ``(n,)`` int64 — the time slot of each arrival step (strictly
        increasing; empty slots produce no step, exactly as
        ``Trace.to_instance`` skips them).
    ``first_slot`` / ``last_slot``
        ``(m,)`` int64 — the first/last slot containing a packet of each
        frame (``-1`` for a frame with no packets in the trace).
    ``admission_slot``
        ``(m,)`` int64 — the slot at which the streaming engine must have
        drawn column ``j``'s priority row: the draw-order contract forces a
        sequential column sweep, so this is the suffix minimum of
        ``first_slot`` over columns ``>= j``.  The gap between
        ``admission_slot`` and ``last_slot`` is each frame's pool residency.

    >>> from repro.network.traffic import AdversarialBurstGenerator
    >>> trace = AdversarialBurstGenerator(burst_size=2, packets_per_frame=2,
    ...                                   gap_slots=1).generate(num_waves=3)
    >>> compiled = compile_trace(trace)
    >>> compiled
    CompiledTrace('trace', frames=6, steps=6, packets=12)
    >>> compiled.set_ids[:2]
    ('w0.m0', 'w0.m1')
    >>> compiled.peak_active_frames()      # one wave resident at a time
    2
    """

    step_slots: np.ndarray = field(repr=False)
    first_slot: np.ndarray = field(repr=False)
    last_slot: np.ndarray = field(repr=False)
    admission_slot: np.ndarray = field(repr=False)
    num_slots: int = 0
    num_packets: int = 0
    link_capacity: int = 1

    def peak_active_frames(self, window_slots: Optional[int] = None) -> int:
        """The exact peak of the streaming priority pool, in rows.

        The deterministic memory model of the engine: with windows of
        ``window_slots`` slots (``None``: slot-at-a-time, the tightest
        bound), column ``j`` is admitted at the start of the window
        containing ``admission_slot[j]`` and retired at the end of the
        window containing ``last_slot[j]``; this returns the maximum number
        of simultaneously resident columns.  Multiplied by the trial count
        and 8 bytes it bounds the pool allocation — the benchmark's
        memory-boundedness assertion checks this number stays flat as the
        trace grows, rather than trusting noisy RSS readings alone.
        """
        window = 1 if window_slots is None else int(window_slots)
        if window < 1:
            raise ValueError(f"window_slots must be positive, got {window}")
        pooled = self.last_slot >= 0
        if not pooled.any():
            return 0
        admit = self.admission_slot[pooled] // window
        retire = self.last_slot[pooled] // window
        windows = int(retire.max()) + 2
        delta = np.bincount(admit, minlength=windows)
        delta -= np.bincount(retire + 1, minlength=windows)
        return int(np.cumsum(delta).max())

    def __repr__(self) -> str:
        return (
            f"CompiledTrace({self.name!r}, frames={self.num_sets}, "
            f"steps={self.num_steps}, packets={self.num_packets})"
        )


def compile_trace(trace: "Trace", name: str = "") -> CompiledTrace:
    """Flatten a :class:`~repro.network.traffic.Trace` for the streaming engine.

    Produces exactly the column order, step sequence and per-set constants
    that ``compile_instance(trace.to_instance(name))`` would — without
    building the intermediate :class:`~repro.core.instance.OnlineInstance`
    object graph — plus the lifecycle arrays described on
    :class:`CompiledTrace`.  Validation mirrors the reduction path: a
    non-positive link capacity and packets of unregistered frames raise the
    same way the instance construction would.

    >>> from repro.network.traffic import PoissonBurstGenerator
    >>> import random
    >>> trace = PoissonBurstGenerator().generate(30, random.Random(0))
    >>> compiled = compile_trace(trace)
    >>> from repro.engine.compile import compile_instance
    >>> reference = compile_instance(trace.to_instance())
    >>> compiled.set_ids == reference.set_ids
    True
    >>> bool((compiled.step_parents == reference.step_parents).all())
    True
    """
    capacity = trace.link_capacity
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        # The same rejection Trace.to_instance hits inside SetSystem.
        raise InvalidSetSystemError(
            f"trace link capacity must be a positive integer, got {capacity!r}"
        )

    frame_ids = tuple(sorted(trace.frames, key=repr))
    set_index: Dict[str, int] = {fid: j for j, fid in enumerate(frame_ids)}
    m = len(frame_ids)

    weights = np.fromiter(
        (float(trace.frames[fid].weight or 1.0) for fid in frame_ids),
        dtype=np.float64,
        count=m,
    )
    # The one Python pass: each non-empty slot's de-duplicated columns
    # (simultaneous same-frame packets collapse), ascending — the repr order
    # of the frame ids.  Everything else is derived from these arrays.
    step_slots: List[int] = []
    indptr: List[int] = [0]
    parents_flat: List[int] = []
    num_packets = 0
    for slot, packets in enumerate(trace.slots):
        num_packets += len(packets)
        if not packets:
            continue
        try:
            columns = sorted({set_index[packet.frame_id] for packet in packets})
        except KeyError as missing:
            raise OspError(
                f"slot {slot} carries a packet of unregistered frame {missing.args[0]!r}"
            ) from None
        step_slots.append(slot)
        parents_flat.extend(columns)
        indptr.append(len(parents_flat))

    n = len(step_slots)
    parents = np.asarray(parents_flat, dtype=np.int64)
    steps = np.asarray(step_slots, dtype=np.int64)
    step_indptr = np.asarray(indptr, dtype=np.int64)
    parent_slots = np.repeat(steps, np.diff(step_indptr))
    sizes = np.bincount(parents, minlength=m).astype(np.int64, copy=False)
    # Unbuffered ``ufunc.at``: a plain fancy write leaves the order of
    # repeated indices unspecified.
    last_slot = np.full(m, -1, dtype=np.int64)
    np.maximum.at(last_slot, parents, parent_slots)
    unset = np.iinfo(np.int64).max
    first_slot = np.full(m, unset, dtype=np.int64)
    np.minimum.at(first_slot, parents, parent_slots)
    # Sequential-sweep admission bound: column j must be drawn when the
    # first packet of ANY column >= j arrives (suffix minimum; columns with
    # no packets inherit the bound of their successors and hold no row).
    admission = np.minimum.accumulate(first_slot[::-1])[::-1].copy()
    first_slot[first_slot == unset] = -1

    return CompiledTrace.from_columns(
        name=name or "trace",
        set_ids=frame_ids,
        set_index=set_index,
        weights=weights,
        sizes=sizes,
        step_indptr=step_indptr,
        step_parents=parents,
        step_capacities=np.full(n, capacity, dtype=np.int64),
        step_slots=steps,
        first_slot=first_slot,
        last_slot=last_slot,
        admission_slot=admission,
        num_slots=len(trace.slots),
        num_packets=num_packets,
        link_capacity=capacity,
    )


class _StaticKeySource:
    """Sequential column-chunk supplier of lower-wins static-priority keys.

    ``draw(start, count)`` returns the ``(rows, count)`` key block of columns
    ``start .. start+count-1`` — the batch engine's keys, column for column:
    randPr's approximate order keys (:func:`~repro.engine.batch._randpr_keys`)
    and every other kind's negated
    :func:`~repro.engine.specs.priority_columns`.  Randomized kinds consume
    the per-trial ``random()`` streams strictly in column order, which is
    what makes the chunked draws bit-equal to the whole-instance table;
    ``replay_trials`` collects the randPr trials whose uniforms hit exactly
    0.0 (the reference redraws those), for the replay from the reference
    draws at the end.
    """

    def __init__(
        self, spec: AlgorithmSpec, compiled: CompiledTrace, rows: int, seed: int
    ) -> None:
        self._spec = spec
        self._compiled = compiled
        self._uniforms = self._salts = None
        self.replay_trials: set = set()
        if spec.kind in UNIFORM_DRAW_KINDS:
            self._uniforms = rng_bridge.WordStreams(seed, rows)
        elif spec.kind == "randPr-hashed" and spec.salt is None:
            self._salts = rng_bridge.getrandbits64(seed, rows)

    def draw(self, start: int, count: int) -> np.ndarray:
        uniforms = None
        if self._uniforms is not None:
            uniforms = self._uniforms.random(count)
            if self._spec.kind == "randPr":
                self.replay_trials.update(zero_draw_trials(uniforms))
                exponents = self._compiled.priority_exponents[start : start + count]
                return _randpr_keys(uniforms, exponents, out=uniforms)
        return -priority_columns(
            self._spec, self._compiled, start, start + count, uniforms, self._salts
        )


class _RowPool:
    """The sliding key pool with slot recycling, stored ``(slots, rows)``.

    Column-major, as the static replay kernel reads it: admitting a frame
    writes one contiguous slot row, and ``keys_T.T`` is the kernel's
    zero-copy ``(rows, slots)`` key view.
    """

    def __init__(self, rows: int, num_columns: int) -> None:
        self._rows = rows
        self.keys_T = np.empty((0, rows), dtype=np.float64)
        self.slot_of = np.full(num_columns, -1, dtype=np.int64)
        self._free: List[int] = []
        self._occupied = 0
        self.peak_occupied = 0

    @property
    def capacity(self) -> int:
        return self.keys_T.shape[0]

    def admit(self, columns: np.ndarray, key_rows: np.ndarray) -> None:
        """Pool ``columns``, whose ``(len(columns), rows)`` keys are ``key_rows``."""
        need = len(columns) - len(self._free)
        if need > 0:
            grown = max(self.capacity * 2, self.capacity + need, 16)
            extra = np.empty((grown - self.capacity, self._rows), dtype=np.float64)
            self._free.extend(range(self.capacity, grown))
            self.keys_T = np.concatenate([self.keys_T, extra])
        slots = np.asarray(
            [self._free.pop() for _ in range(len(columns))], dtype=np.int64
        )
        self.slot_of[columns] = slots
        self.keys_T[slots] = key_rows
        self._occupied += len(columns)
        self.peak_occupied = max(self.peak_occupied, self._occupied)

    def retire(self, column: int) -> None:
        slot = int(self.slot_of[column])
        if slot >= 0:
            self._free.append(slot)
            self.slot_of[column] = -1
            self._occupied -= 1


def _stream_static(
    compiled: CompiledTrace,
    spec: AlgorithmSpec,
    trials: int,
    seed: int,
    window_slots: int,
    stats: Optional[dict],
) -> np.ndarray:
    """The windowed static-priority replay; returns the completed mask.

    Decisions of a static-priority kind are state-independent, so processing
    arrivals in time order is exact: a frame is completed iff it wins every
    contested step it appears in, and the drops of each window scatter
    straight into the ``(rows, m)`` completed mask — no per-frame alive
    state exists.  The only per-frame state is the pooled priority row,
    admitted by the sequential column sweep and retired after the frame's
    last slot.  randPr trials with a zero draw or a near tie between its
    approximate keys are replayed from the reference draws at the end.
    """
    m = compiled.num_sets
    rows = 1 if spec.is_deterministic else trials
    completed = np.ones((rows, m), dtype=bool, order="F")
    source = _StaticKeySource(spec, compiled, rows, seed)
    pool = _RowPool(rows, m)
    near = np.zeros(rows, dtype=bool) if spec.kind == "randPr" else None

    indptr = compiled.step_indptr
    parents = compiled.step_parents
    step_slots = compiled.step_slots
    last_slot = compiled.last_slot

    # Columns in retirement order (by last slot); pointer advances per window.
    pooled_columns = np.flatnonzero(last_slot >= 0)
    retire_order = pooled_columns[
        np.argsort(last_slot[pooled_columns], kind="stable")
    ]
    retire_ptr = 0
    next_col = 0
    windows = 0

    for window_start in range(0, compiled.num_slots, window_slots):
        windows += 1
        window_end = min(window_start + window_slots, compiled.num_slots)
        s0, s1 = np.searchsorted(step_slots, [window_start, window_end])
        if s0 < s1:
            window_parents = parents[indptr[s0] : indptr[s1]]
            max_needed = int(window_parents.max())
            if max_needed >= next_col:
                block = source.draw(next_col, max_needed + 1 - next_col)
                fresh = np.arange(next_col, max_needed + 1)
                holds_row = last_slot[fresh] >= 0  # packet-less frames: draw,
                pool.admit(fresh[holds_row], block.T[holds_row])  # never pool
                next_col = max_needed + 1
            groups = _contested_groups(compiled, int(s0), int(s1))
            _drop_losers(pool.keys_T.T, groups, completed, pool.slot_of, near)
        while retire_ptr < len(retire_order) and (
            last_slot[retire_order[retire_ptr]] < window_end
        ):
            pool.retire(int(retire_order[retire_ptr]))
            retire_ptr += 1

    if near is not None:
        source.replay_trials.update(np.flatnonzero(near).tolist())
        _replay_reference(compiled, seed, sorted(source.replay_trials), completed)

    if stats is not None:
        stats["windows"] = windows
        stats["priority_rows"] = rows
        stats["peak_pooled_rows"] = pool.peak_occupied
        stats["pool_capacity_rows"] = pool.capacity
    return np.ascontiguousarray(completed)


def simulate_trace_batch(
    trace: Union["Trace", CompiledTrace],
    algorithm: Union[str, AlgorithmSpec, OnlineAlgorithm],
    trials: int,
    seed: int = 0,
    window_slots: Optional[int] = None,
    stats: Optional[dict] = None,
) -> BatchResult:
    """Run ``trials`` trials of ``algorithm`` on a trace, streaming.

    The streaming counterpart of :func:`~repro.engine.batch.simulate_batch`:
    same trial seeding (``random.Random(seed + b)``), same result type, and
    the same exactness contract — trial ``b`` is bit-identical to
    ``simulate(trace.to_instance(), algorithm, rng=random.Random(seed + b))``.
    Accepts a :class:`~repro.network.traffic.Trace` (compiled here) or a
    pre-built :class:`CompiledTrace` (reused across algorithms/seeds).

    ``window_slots`` sets the time-window width (default
    :data:`DEFAULT_WINDOW_SLOTS`); it is a batching knob only — every window
    size produces identical results.  Static-priority kinds hold their
    ``(trials, active_frames)`` row pool only for frames inside the sliding
    admission window; greedy kinds keep a single ``(1, m)`` state pair (no
    trial axis); the per-arrival ``uniform-random`` kind runs the batch
    engine's replay over the whole trace (its draws are already
    time-ordered, one block of steps at a time).

    ``stats``, when a dict is passed, is filled with the run's memory model:
    ``windows``, ``priority_rows``, ``peak_pooled_rows`` (the high-water
    active-frame count) and ``pool_capacity_rows``.

    >>> import random
    >>> from repro.core.simulation import simulate
    >>> from repro.algorithms import RandPrAlgorithm
    >>> from repro.network.traffic import PoissonBurstGenerator
    >>> trace = PoissonBurstGenerator().generate(40, random.Random(3))
    >>> result = simulate_trace_batch(trace, "randPr", trials=2, seed=9)
    >>> reference = simulate(trace.to_instance(), RandPrAlgorithm(),
    ...                      rng=random.Random(9 + 1))
    >>> result.completed_sets(1) == reference.completed_sets
    True
    >>> float(result.benefits[1]) == reference.benefit
    True
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    compiled = trace if isinstance(trace, CompiledTrace) else compile_trace(trace)
    spec = resolve_spec(algorithm)
    window = DEFAULT_WINDOW_SLOTS if window_slots is None else int(window_slots)
    if window < 1:
        raise ValueError(f"window_slots must be positive, got {window}")

    if spec.kind in GREEDY_KINDS:
        completed = _run_greedy(compiled, spec.kind)
        if stats is not None:
            stats.update(windows=0, priority_rows=1, peak_pooled_rows=0,
                         pool_capacity_rows=0)
    elif spec.kind in PER_STEP_RANDOM_KINDS:
        completed = _run_uniform_random(compiled, trials, seed)
        if stats is not None:
            stats.update(windows=0, priority_rows=trials, peak_pooled_rows=0,
                         pool_capacity_rows=0)
    else:
        completed = _stream_static(compiled, spec, trials, seed, window, stats)
    return _batch_result(spec, compiled, completed, trials, seed)
