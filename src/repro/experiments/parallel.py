"""Worker-count and trial-partition helpers shared by the experiment layer.

This is a *leaf* module (it imports nothing from the rest of the package) so
that every experiment entry point — the sweep orchestrator, the measurement
helpers, the supervised pool, the runner CLI — can share one worker-count
vocabulary without import cycles.  The pool itself is
:func:`repro.experiments.resilience.map_ordered`; the seed mixer is
:func:`repro.core.seeding.stable_seed`.
"""

from __future__ import annotations

from typing import List, Tuple, Union

__all__ = ["resolve_workers", "partition_trials", "workers_from_env"]


def resolve_workers(workers: Union[int, str]) -> int:
    """Coerce a worker count: a positive int, or ``"auto"`` (≈ CPU count).

    ``"auto"`` resolves to ``os.cpu_count()`` (at least 1, and 1 on
    platforms where the count is unknown) — the headline multi-core
    configuration without hard-coding a number.  Anything else must be a
    positive integer, returned unchanged.  Every ``workers=`` parameter in
    the package funnels through here, so ``"auto"`` works uniformly in
    ``run_sweep``, ``measure_suite``, the runner CLI (``--workers auto``)
    and the ``OSP_BENCH_WORKERS`` benchmark knob.
    """
    if workers == "auto":
        import os

        return max(1, os.cpu_count() or 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    return workers


def workers_from_env(name: str = "OSP_BENCH_WORKERS", default: int = 1) -> int:
    """Read a worker count from an environment variable (benchmark knob).

    The value is an integer or the literal ``auto`` (≈ CPU count), the same
    vocabulary as every ``workers=`` parameter.
    """
    import os

    raw = os.environ.get(name)
    if raw is None:
        return resolve_workers(default)
    if raw.strip() == "auto":
        return resolve_workers("auto")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer or 'auto', got {raw!r}") from None
    return resolve_workers(value)


def partition_trials(trials: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``trials`` into contiguous ``(offset, count)`` chunks.

    The chunks cover ``0..trials-1`` in order, one chunk per worker (fewer if
    ``trials < workers``).  Because both engines seed trial ``b`` as
    ``seed + b``, a chunk ``(offset, count)`` simulated with ``seed + offset``
    reproduces exactly trials ``offset..offset+count-1`` of the serial run —
    concatenating the chunks in order is therefore *bit-identical* to the
    serial benefit sequence, not merely statistically equivalent.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    workers = resolve_workers(workers)
    chunks = min(workers, trials)
    base, extra = divmod(trials, chunks)
    partition: List[Tuple[int, int]] = []
    offset = 0
    for index in range(chunks):
        count = base + (1 if index < extra else 0)
        partition.append((offset, count))
        offset += count
    return partition
