"""A per-process cache of compiled instances.

Compiling an :class:`~repro.core.instance.OnlineInstance` to numpy arrays is
pure bookkeeping, but a sweep that measures ten algorithms on the same
instance used to pay it ten times — once per ``simulate_batch`` call.  The
cache keys on instance *identity* (instances are immutable after
construction) through a :class:`weakref.WeakKeyDictionary`, so a compiled
instance lives exactly as long as the instance it mirrors and a long-running
process never accumulates arrays for dead instances.

``stats()`` exposes hit/miss counters so tests (and the sweep benchmark) can
prove the single-compilation claim rather than assume it.
"""

from __future__ import annotations

import weakref
from typing import Dict, Union

from repro.core.instance import OnlineInstance
from repro.engine.compile import (
    CompiledInstance,
    FastCompiledInstance,
    compile_instance,
    compile_instance_fast,
)

__all__ = [
    "compiled_for",
    "fast_compiled_for",
    "compile_cache_stats",
    "clear_compile_cache",
]

_CACHE: "weakref.WeakKeyDictionary[OnlineInstance, CompiledInstance]" = (
    weakref.WeakKeyDictionary()
)
#: The float32/int32 variants, keyed by the instance like :data:`_CACHE`
#: (the fast view is derived from the exact compilation, so both caches
#: populate together on a fast-engine miss).
_FAST_CACHE: "weakref.WeakKeyDictionary[OnlineInstance, FastCompiledInstance]" = (
    weakref.WeakKeyDictionary()
)
_HITS = 0
_MISSES = 0


def compiled_for(
    instance: Union[OnlineInstance, CompiledInstance]
) -> CompiledInstance:
    """The compiled form of ``instance``, compiling at most once per object.

    A :class:`CompiledInstance` argument passes straight through, so callers
    that manage their own compilation are unaffected — except the fast
    engine's :class:`~repro.engine.compile.FastCompiledInstance`, which the
    exact engines refuse: its float32 exponents cannot reproduce the
    reference draws.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> clear_compile_cache()
    >>> instance = OnlineInstance(SetSystem(sets={"A": ["u"], "B": ["u"]}))
    >>> compiled_for(instance) is compiled_for(instance)   # one compilation
    True
    >>> compiled_for(compiled_for(instance)) is compiled_for(instance)
    True
    """
    global _HITS, _MISSES
    if isinstance(instance, FastCompiledInstance):
        raise TypeError(
            "the exact engines cannot replay a FastCompiledInstance; pass the "
            "instance or its exact compilation"
        )
    if isinstance(instance, CompiledInstance):
        return instance
    try:
        compiled = _CACHE[instance]
    except KeyError:
        _MISSES += 1
        compiled = compile_instance(instance)
        _CACHE[instance] = compiled
        return compiled
    _HITS += 1
    return compiled


def fast_compiled_for(
    instance: Union[OnlineInstance, CompiledInstance, FastCompiledInstance]
) -> FastCompiledInstance:
    """The float32/int32 compilation of ``instance``, derived at most once.

    Mirrors :func:`compiled_for` for the statistical fast engine: an
    :class:`~repro.engine.compile.FastCompiledInstance` passes straight
    through, a :class:`~repro.engine.compile.CompiledInstance` is narrowed
    uncached (callers managing their own compilation manage both views), and
    an :class:`~repro.core.instance.OnlineInstance` goes through the weak
    per-process cache.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> clear_compile_cache()
    >>> instance = OnlineInstance(SetSystem(sets={"A": ["u"], "B": ["u"]}))
    >>> fast_compiled_for(instance) is fast_compiled_for(instance)
    True
    >>> fast_compiled_for(fast_compiled_for(instance)) is fast_compiled_for(instance)
    True
    """
    if isinstance(instance, FastCompiledInstance):
        return instance
    if isinstance(instance, CompiledInstance):
        return compile_instance_fast(instance)
    try:
        return _FAST_CACHE[instance]
    except KeyError:
        fast = compile_instance_fast(compiled_for(instance))
        _FAST_CACHE[instance] = fast
        return fast


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the per-process compile cache.

    >>> from repro.core import OnlineInstance, SetSystem
    >>> clear_compile_cache()
    >>> instance = OnlineInstance(SetSystem(sets={"A": ["u"], "B": ["u"]}))
    >>> _ = compiled_for(instance); _ = compiled_for(instance)
    >>> compile_cache_stats()
    {'hits': 1, 'misses': 1, 'entries': 1}
    """
    return {"hits": _HITS, "misses": _MISSES, "entries": len(_CACHE)}


def clear_compile_cache() -> None:
    """Drop every cached compilation and reset the counters (test hook).

    >>> clear_compile_cache()
    >>> compile_cache_stats()
    {'hits': 0, 'misses': 0, 'entries': 0}
    """
    global _HITS, _MISSES
    _CACHE.clear()
    _FAST_CACHE.clear()
    _HITS = 0
    _MISSES = 0
