"""Seed derivation and the tail rule for reported percentiles."""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND_TAIL = 10


def derive_seed(seed: int, *keys: object) -> int:
    """A 31-bit seed that depends only on ``seed`` and ``keys``.

    Every profile call and sweep job gets its backend and profiler seeds from
    ``(workload seed, purpose, call index)``, so the program sees generated
    inputs only, and two runs with one seed see the same inputs.
    """
    text = repr((int(seed),) + tuple(keys)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def samples_needed(q: float) -> int:
    """The fewest samples for which percentile ``q`` satisfies the tail rule."""
    return math.ceil(MIN_BEYOND_TAIL / (1.0 - q) - 1e-9)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0 < q < 1) of ``values``, refusing a thin tail.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND_TAIL` samples lie
    beyond the percentile, since such a tail is a handful of outliers.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {q}")
    n = len(values)
    beyond = n - math.ceil(q * n - 1e-9)
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND_TAIL} ({samples_needed(q)} samples)"
        )
    ordered = sorted(values)
    # Linear interpolation between closest ranks (numpy's default method).
    position = q * (n - 1)
    lower = math.floor(position)
    upper = min(lower + 1, n - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


__all__ = [
    "MIN_BEYOND_TAIL",
    "derive_seed",
    "samples_needed",
    "tail_percentile",
]
