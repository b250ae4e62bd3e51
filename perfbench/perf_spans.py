"""Outside-in span tracing for the benchmark's traced run.

The benchmark changes no file under ``src/``.  Instead, the traced run
replaces the *call-site bindings* the program actually uses with thin timing
wrappers — for example ``repro.experiments.competitive_ratio.simulate_batch``
rather than the definition in ``repro.engine.batch``, because callers import
the name directly.  :func:`install` patches them and returns a callable that
restores every original.

Spans are kept in memory (name, parent name, start, end, self time, pid).  A
fork-started pool worker inherits the patched modules and this tracer; on
first use it drops the state copied from the parent, and after each sweep
unit it appends its spans and counters to ``<span_dir>/<pid>.jsonl``.  The
parent merges those files with its own buffer in :meth:`Tracer.drain`, so
worker time and worker-side counters survive the worker's exit.

A layer's *self time* is its span's duration minus the time covered by its
child spans.  Per-layer ``*_s`` metrics sum self time over every process (the
"work"); ``other_s`` is the parent's pass wall time not covered by any
top-level span (the unattributed part of the "span").
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Plain timing spans: (module, attribute, span name).  Each attribute is the
#: binding the caller looks up at call time.
SPANNED_BINDINGS = (
    ("perf_workloads", "random_online_instance", "workloads.generate"),
    ("repro.experiments.competitive_ratio", "lp_relaxation_bound", "offline.lp"),
    (
        "repro.experiments.competitive_ratio",
        "local_search_packing",
        "offline.local_search",
    ),
    ("repro.experiments.orchestrator", "compute_statistics", "core.statistics"),
    ("repro.experiments.orchestrator", "bound_report", "core.statistics"),
    ("repro.experiments.orchestrator", "map_ordered", "experiments.parallel.pool"),
    ("repro.engine.batch", "priority_matrix", "engine.priority"),
    ("repro.engine.cache", "compile_instance", "engine.compile"),
    ("repro.engine.streaming", "compile_trace", "engine.streaming.compile"),
    ("repro.engine.streaming", "_stream_static", "engine.streaming.static"),
    (
        "repro.engine.streaming",
        "_run_uniform_random",
        "engine.streaming.uniform_random",
    ),
    ("repro.engine.streaming", "_run_greedy", "engine.streaming.greedy"),
)

#: Bindings through which the batch engine is entered; the span is named by
#: the algorithm kind (``engine.batch.static|greedy|uniform_random``).
SIMULATE_BATCH_BINDINGS = (
    ("repro.experiments.competitive_ratio", "simulate_batch"),
    ("repro.engine.batch", "simulate_batch"),
)

UNIT_SPAN = "experiments.orchestrator.unit"
POOL_SPAN = "experiments.parallel.pool"


class Tracer:
    """An in-memory span and counter registry for one benchmark process."""

    def __init__(self, span_dir: str) -> None:
        self.span_dir = span_dir
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._reset()

    def _reset(self) -> None:
        self._stack: List[list] = []  # [name, start_ns, child_ns]
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:  # a forked pool worker: drop the parent's state
            self._pid = pid
            self._reset()

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def enter(self, name: str) -> None:
        self._own()
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append(
            (name, parent[0] if parent else None, start, end, duration - child_ns, self._pid)
        )

    def count(self, name: str, amount: float = 1) -> None:
        self._own()
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self._own()
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its own file, then clear."""
        record = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }
        path = os.path.join(self.span_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    def drain(self) -> Tuple[List[tuple], Dict[str, float], Dict[str, float]]:
        """Take every span and counter recorded since the last drain.

        Merges the parent's buffer with each worker file (deleting the files).
        """
        spans = list(self.spans)
        counters = defaultdict(float, self.counters)
        maxima = dict(self.maxima)
        self._reset()
        for entry in sorted(os.listdir(self.span_dir)):
            if not entry.endswith(".jsonl"):
                continue
            path = os.path.join(self.span_dir, entry)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    spans.extend(tuple(span) for span in record["spans"])
                    for name, value in record["counters"].items():
                        counters[name] += value
                    for name, value in record["maxima"].items():
                        if value > maxima.get(name, float("-inf")):
                            maxima[name] = value
            os.remove(path)
        return spans, dict(counters), maxima


def _span_wrapper(tracer: Tracer, function: Callable, name: str) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _simulate_batch_wrapper(tracer: Tracer, function: Callable) -> Callable:
    from repro.engine.specs import GREEDY_KINDS, PER_STEP_RANDOM_KINDS, resolve_spec

    @functools.wraps(function)
    def wrapper(instance, algorithm, *args, **kwargs):
        kind = resolve_spec(algorithm).kind
        if kind in GREEDY_KINDS:
            name = "engine.batch.greedy"
        elif kind in PER_STEP_RANDOM_KINDS:
            name = "engine.batch.uniform_random"
        else:
            name = "engine.batch.static"
        tracer.enter(name)
        try:
            return function(instance, algorithm, *args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _stats_delta_wrapper(
    tracer: Tracer, function: Callable, stats: Callable[[], dict], prefix: str
) -> Callable:
    """Count the hit/miss deltas a cache's own ``stats()`` shows per call."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        before = stats()
        try:
            return function(*args, **kwargs)
        finally:
            after = stats()
            tracer.count(f"{prefix}.hits", after["hits"] - before["hits"])
            tracer.count(f"{prefix}.misses", after["misses"] - before["misses"])

    return wrapper


def _uniform_matrix_wrapper(tracer: Tracer, function: Callable, stats) -> Callable:
    counted = _stats_delta_wrapper(tracer, function, stats, "engine.uniform_cache")

    @functools.wraps(function)
    def wrapper(seed, trials, draws):
        # The draw table is trials x draws float64 values (computed, not read).
        tracer.peak("engine.draw_table_mib", trials * draws * 8 / float(1 << 20))
        return counted(seed, trials, draws)

    return wrapper


def _opt_cache_wrapper(tracer: Tracer, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(self, key, compute):
        hits, misses = self.hits, self.misses
        try:
            return function(self, key, compute)
        finally:
            tracer.count("experiments.opt_cache.hits", self.hits - hits)
            tracer.count("experiments.opt_cache.misses", self.misses - misses)

    return wrapper


def _store_get_wrapper(tracer: Tracer, function: Callable, unit: bool) -> Callable:
    @functools.wraps(function)
    def wrapper(self, key):
        failures = self.integrity_failures
        tracer.enter("experiments.store.get")
        try:
            value = function(self, key)
        finally:
            tracer.exit()
        tracer.count(
            "experiments.store.integrity_failures",
            self.integrity_failures - failures,
        )
        if unit:
            outcome = "hits" if value is not None else "misses"
            tracer.count(f"experiments.store.worker_unit_{outcome}")
        return value

    return wrapper


def _store_put_wrapper(tracer: Tracer, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(self, key, value):
        tracer.enter("experiments.store.put")
        try:
            function(self, key, value)
        finally:
            tracer.exit()
        # The store pickles with the highest protocol; this is its payload.
        tracer.count(
            "experiments.store.bytes_written",
            len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)),
        )

    return wrapper


def _unit_wrapper(tracer: Tracer, function: Callable) -> Callable:
    # functools.wraps keeps __module__/__qualname__, so the pool pickles this
    # wrapper by reference to the patched orchestrator attribute.
    @functools.wraps(function)
    def wrapper(unit, *args, **kwargs):
        tracer.enter(UNIT_SPAN)
        try:
            result = function(unit, *args, **kwargs)
        finally:
            tracer.exit()
        if tracer.in_worker:
            tracer.count("experiments.parallel.unit_bytes", len(pickle.dumps(unit)))
            tracer.count("experiments.parallel.result_bytes", len(pickle.dumps(result)))
            tracer.flush_worker()
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every traced binding; return a function that restores them."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attribute: str, wrapper: Callable) -> None:
        patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    for module_name, attribute, name in SPANNED_BINDINGS:
        module = importlib.import_module(module_name)
        patch(module, attribute, _span_wrapper(tracer, getattr(module, attribute), name))
    for module_name, attribute in SIMULATE_BATCH_BINDINGS:
        module = importlib.import_module(module_name)
        patch(module, attribute, _simulate_batch_wrapper(tracer, getattr(module, attribute)))

    from repro.engine import batch, rng
    from repro.engine.cache import compile_cache_stats
    from repro.experiments import orchestrator
    from repro.experiments.opt_cache import OptCache
    from repro.experiments.store import SolutionStore

    patch(
        batch,
        "compiled_for",
        _stats_delta_wrapper(
            tracer, batch.compiled_for, compile_cache_stats, "engine.compile_cache"
        ),
    )
    patch(
        rng,
        "uniform_matrix",
        _uniform_matrix_wrapper(tracer, rng.uniform_matrix, rng.uniform_cache_stats),
    )
    patch(OptCache, "get_or_compute", _opt_cache_wrapper(tracer, OptCache.get_or_compute))
    patch(SolutionStore, "get_unit", _store_get_wrapper(tracer, SolutionStore.get_unit, True))
    patch(SolutionStore, "get_opt", _store_get_wrapper(tracer, SolutionStore.get_opt, False))
    patch(SolutionStore, "put_unit", _store_put_wrapper(tracer, SolutionStore.put_unit))
    patch(SolutionStore, "put_opt", _store_put_wrapper(tracer, SolutionStore.put_opt))
    patch(orchestrator, "_execute_unit", _unit_wrapper(tracer, orchestrator._execute_unit))

    def uninstall() -> None:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)

    return uninstall


#: Self-time layer metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "workloads.generate_s": ("workloads.generate",),
    "offline.lp_s": ("offline.lp",),
    "offline.local_search_s": ("offline.local_search",),
    "core.statistics_s": ("core.statistics",),
    "engine.compile_s": ("engine.compile",),
    "engine.priority_s": ("engine.priority",),
    "engine.batch.static_s": ("engine.batch.static",),
    "engine.batch.greedy_s": ("engine.batch.greedy",),
    "engine.batch.uniform_random_s": ("engine.batch.uniform_random",),
    "engine.streaming.compile_s": ("engine.streaming.compile",),
    "engine.streaming.static_s": ("engine.streaming.static",),
    "engine.streaming.uniform_random_s": ("engine.streaming.uniform_random",),
    "engine.streaming.greedy_s": ("engine.streaming.greedy",),
    "experiments.orchestrator.unit_s": (UNIT_SPAN,),
    "experiments.parallel.pool_s": (POOL_SPAN,),
    "experiments.store.get_s": ("experiments.store.get",),
    "experiments.store.put_s": ("experiments.store.put",),
}

#: Call-count layer metrics: metric name -> span name counted.
CALL_METRICS = {
    "offline.lp_calls": "offline.lp",
    "offline.local_search_calls": "offline.local_search",
}

#: Counter layer metrics read straight from the counters.
COUNTER_METRICS = (
    "experiments.opt_cache.hits",
    "experiments.opt_cache.misses",
    "engine.compile_cache.hits",
    "engine.compile_cache.misses",
    "engine.uniform_cache.hits",
    "engine.uniform_cache.misses",
    "experiments.parallel.unit_bytes",
    "experiments.parallel.result_bytes",
    "experiments.store.bytes_written",
    "experiments.store.integrity_failures",
)


def pass_layers(
    spans: List[tuple],
    counters: Dict[str, float],
    maxima: Dict[str, float],
    wall_s: float,
    owner_pid: int,
    workers: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    covered_ns = 0
    worker_busy_ns = 0
    pool_wall_ns = 0
    for name, parent, start, end, own_ns, pid in spans:
        self_ns[name] += own_ns
        calls[name] += 1
        if pid == owner_pid and parent is None:
            covered_ns += end - start
        if pid != owner_pid and name == UNIT_SPAN:
            worker_busy_ns += end - start
        if pid == owner_pid and name == POOL_SPAN:
            pool_wall_ns += end - start
    layers = {
        metric: sum(self_ns[name] for name in names) / 1e9
        for metric, names in SELF_TIME_METRICS.items()
    }
    layers.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    layers.update({metric: counters.get(metric, 0) for metric in COUNTER_METRICS})
    layers["engine.draw_table_mib"] = maxima.get("engine.draw_table_mib", 0.0)
    worker_busy_s = worker_busy_ns / 1e9
    layers["experiments.parallel.worker_busy_s"] = worker_busy_s
    pool_capacity_s = pool_wall_ns / 1e9 * workers if workers > 1 else 0.0
    layers["experiments.parallel.efficiency"] = (
        worker_busy_s / pool_capacity_s if pool_capacity_s else 0.0
    )
    layers["other_s"] = wall_s - covered_ns / 1e9
    return layers


def write_spans(path: str, spans: List[tuple]) -> None:
    """Write spans as JSON lines (name, parent, start_ns, end_ns, self_ns, pid)."""
    keys = ("name", "parent", "start_ns", "end_ns", "self_ns", "pid")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def worker_unit_counts(counters: Dict[str, float]) -> Optional[Tuple[int, int]]:
    """The (hits, misses) the workers' ``get_unit`` calls saw, if any ran."""
    hits = counters.get("experiments.store.worker_unit_hits", 0)
    misses = counters.get("experiments.store.worker_unit_misses", 0)
    if not hits and not misses:
        return None
    return int(hits), int(misses)
