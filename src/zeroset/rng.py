"""Counter-based pseudo-random numbers for reproducible sampling.

Every draw is a pure function of (seed, counter) — there is no generator
state — so sample i is the same no matter which worker produces it or in
what order.  The mixer is the standard splitmix64 finalizer.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

UNIT_BITS = 53
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, counter: int) -> int:
    """64-bit hash of (seed, counter)."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """`mix64(seed, c)` for each c of a uint64 array, bit for bit: uint64 wraps mod 2**64."""
    z = (counters + np.uint64(1)) * np.uint64(_GOLDEN) + np.uint64(seed & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def unit_fraction(seed: int, counter: int) -> Fraction:
    """Dyadic rational in [0, 1) with UNIT_BITS = 53 random bits."""
    return Fraction(mix64(seed, counter) >> (64 - UNIT_BITS), 1 << UNIT_BITS)
