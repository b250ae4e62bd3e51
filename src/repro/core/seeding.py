"""Stable seed derivation: the one SHA-256 mixer every layer shares.

:func:`stable_seed` replaces the fragile ``tuple.__hash__() & 0x7FFFFFFF``
idiom: tuple hashing is an implementation detail of the interpreter (and is
randomized for strings), so seeds derived from it are not reproducible
across Python versions or ``PYTHONHASHSEED`` settings.  SHA-256 over a
canonical encoding is stable everywhere, which is also what lets a worker
process re-derive the exact RNG stream for a work unit from
``(base_seed, point_index, instance_index)`` alone.

It lives in the core layer because every layer above needs it: the fast
engine's counter-based PCG64 states, the distributed coordinator's element
placement, and the experiment layer's sweep seeds, retry jitter and fault
victims.  Importing it pulls in nothing beyond :mod:`repro.core`.
"""

from __future__ import annotations

import hashlib
from typing import List, Union

__all__ = ["stable_seed"]

#: Separator for the canonical :func:`stable_seed` encoding.  An ASCII unit
#: separator cannot appear in the decimal/str renderings being joined, so the
#: encoding of a component sequence is injective.
_SEED_SEPARATOR = "\x1f"

#: The mixed seed is truncated to 63 bits: positive, and small enough for any
#: consumer that stores seeds in an int64 column.
_SEED_MASK = (1 << 63) - 1


def stable_seed(*components: Union[int, str]) -> int:
    """Mix integers/strings into a deterministic 63-bit seed.

    The mixing is SHA-256 over a canonical, type-tagged encoding of the
    components, so it is stable across Python versions, interpreters,
    ``PYTHONHASHSEED`` values and processes — unlike ``hash(tuple)``, which
    this function replaces in the sweep harness.  Type tags keep ``1`` and
    ``"1"`` distinct; the pinned-value tests in
    ``tests/test_orchestrator.py`` freeze the function's outputs so any
    accidental change to the encoding fails loudly.
    """
    parts: List[str] = []
    for component in components:
        if isinstance(component, bool) or not isinstance(component, (int, str)):
            raise TypeError(
                f"stable_seed components must be int or str, got {component!r}"
            )
        tag = "i" if isinstance(component, int) else "s"
        parts.append(f"{tag}:{component}")
    payload = _SEED_SEPARATOR.join(parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK
