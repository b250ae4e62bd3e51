"""The vectorized batch simulation engine.

This subsystem trades the reference simulator's per-element Python loop for
numpy array operations over a whole batch of Monte-Carlo trials:

* :mod:`repro.engine.compile` flattens an instance once into numpy arrays;
* :mod:`repro.engine.specs` describes which algorithms can be vectorized and
  replays their randomness bit-for-bit;
* :mod:`repro.engine.batch` runs the batch and returns a
  :class:`~repro.engine.batch.BatchResult`;
* :mod:`repro.engine.streaming` runs router :class:`~repro.network.traffic.Trace`
  workloads directly, in chunked time windows with bounded memory, skipping
  the intermediate instance and the full priority draw table;
* :mod:`repro.engine.fast` is the opt-in *statistical* backend
  (``engine="fast"``): counter-based PCG64 streams and float32 priorities
  for production trial counts, pinned to the exact engines by a
  KS/CI-overlap equivalence suite instead of bit-identity.

The default engines are *exact*, not approximate: trial ``b`` of a batch
reproduces ``simulate(instance, algorithm, rng=random.Random(seed + b))``
set-for-set.  ``tests/test_engine_differential.py`` enforces that contract
against the reference simulator across every workload generator.  The fast
engine alone trades that for a statistical contract
(``tests/test_engine_fast_equivalence.py``), which is why it — unlike every
other engine — participates in the persistent store under its own cache
key.

Randomized draws run through :mod:`repro.engine.rng` — a bit-exact numpy
replay of CPython's Mersenne Twister: static-priority kinds read a
vectorized ``random()`` draw table, and per-arrival kinds
(``uniform-random``) read a fixed number of ``random()`` values per arrival
from lockstep per-trial streams (``docs/INTERNALS-rng.md`` has the details).
"""

from repro.engine.batch import BatchResult, batch_from_results, simulate_batch
from repro.engine.cache import (
    clear_compile_cache,
    compile_cache_stats,
    compiled_for,
    fast_compiled_for,
)
from repro.engine.compile import (
    CompiledInstance,
    FastCompiledInstance,
    compile_instance,
    compile_instance_fast,
)
from repro.engine.fast import fast_uniforms, simulate_fast, trial_generator
from repro.engine.rng import (
    WordStreams,
    clear_uniform_cache,
    exact_pow,
    state_matrix,
    transplant_rng,
    uniform_cache_stats,
    uniform_matrix,
)
from repro.engine.specs import (
    FAST_PRIORITY_KINDS,
    GREEDY_KINDS,
    PER_STEP_RANDOM_KINDS,
    STATIC_PRIORITY_KINDS,
    SUPPORTED_KINDS,
    AlgorithmSpec,
    is_fast_vectorized,
    priority_matrix,
    resolve_spec,
    spec_for_algorithm,
)
from repro.engine.streaming import (
    DEFAULT_WINDOW_SLOTS,
    CompiledTrace,
    compile_trace,
    simulate_trace_batch,
)

__all__ = [
    "BatchResult",
    "batch_from_results",
    "simulate_batch",
    "CompiledInstance",
    "compile_instance",
    "FastCompiledInstance",
    "compile_instance_fast",
    "compiled_for",
    "fast_compiled_for",
    "compile_cache_stats",
    "clear_compile_cache",
    "simulate_fast",
    "trial_generator",
    "fast_uniforms",
    "AlgorithmSpec",
    "FAST_PRIORITY_KINDS",
    "GREEDY_KINDS",
    "PER_STEP_RANDOM_KINDS",
    "STATIC_PRIORITY_KINDS",
    "SUPPORTED_KINDS",
    "is_fast_vectorized",
    "priority_matrix",
    "resolve_spec",
    "spec_for_algorithm",
    "transplant_rng",
    "state_matrix",
    "uniform_matrix",
    "WordStreams",
    "exact_pow",
    "clear_uniform_cache",
    "uniform_cache_stats",
    "CompiledTrace",
    "compile_trace",
    "simulate_trace_batch",
    "DEFAULT_WINDOW_SLOTS",
]
