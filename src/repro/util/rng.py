"""Random-number-generator helpers.

Every stochastic component of the package (RSU plan sampling, cycle-model
noise, search heuristics) accepts either a seed or a ``numpy.random.Generator``
and normalises it through :func:`as_generator` so experiments are reproducible
end-to-end from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomState", "as_generator", "spawn_generators", "derive_seed", "backoff_delay"]

RandomState = int | np.random.Generator | np.random.SeedSequence | None


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Normalise ``seed`` into a ``numpy.random.Generator``.

    ``None`` produces a nondeterministic generator; an integer or
    ``SeedSequence`` produces a deterministic one; an existing generator is
    returned unchanged (shared state, by design, so callers can interleave
    draws).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if isinstance(seed, np.random.Generator):
        # Use the generator itself to derive child seeds.
        seeds = seed.integers(0, 2**63 - 1, size=count, dtype=np.int64)
        return [np.random.default_rng(int(s)) for s in seeds]
    if isinstance(seed, np.random.SeedSequence):
        children = seed.spawn(count)
    else:
        children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def derive_seed(seed: RandomState, *tags: int | str) -> int:
    """Derive a deterministic 63-bit child seed from ``seed`` and ``tags``.

    Used where a component needs a stable per-(size, index) seed, e.g. one
    seed per sampled plan so campaigns can be resumed and parallelised.
    """
    base: int
    if isinstance(seed, np.random.Generator):
        base = int(seed.integers(0, 2**63 - 1))
    elif isinstance(seed, np.random.SeedSequence):
        base = int(seed.entropy if isinstance(seed.entropy, int) else 0)
    elif seed is None:
        base = 0
    else:
        base = int(seed)
    mask64 = (1 << 64) - 1
    acc = (base * 0x9E3779B97F4A7C15) & mask64
    for tag in tags:
        if isinstance(tag, str):
            # Stable across processes (unlike built-in str hashing).
            tag_val = 0
            for char in tag:
                tag_val = (tag_val * 131 + ord(char)) & mask64
        else:
            tag_val = int(tag) & mask64
        acc = ((acc ^ tag_val) * 0xBF58476D1CE4E5B9) & mask64
    return acc & ((1 << 63) - 1)


def backoff_delay(attempt: int, base: float, cap: float, seed: int, *tags: str) -> float:
    """Exponential backoff with deterministic jitter for retry ``attempt`` (1-based).

    The delay is ``min(base * 2**(attempt - 1), cap)`` scaled by a jitter in
    ``[0.5, 1.5)`` that is a pure function of ``(seed, *tags, attempt)`` —
    reproducible, yet de-synchronised across callers with different
    ``tags``.  ``base <= 0`` disables backoff (instant retry).
    """
    if base <= 0.0:
        return 0.0
    delay = min(base * (2.0 ** min(attempt - 1, 32)), cap)
    bits = derive_seed(seed, *tags, str(attempt))
    return delay * (0.5 + (bits % (1 << 20)) / float(1 << 20))
