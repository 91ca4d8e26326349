"""Counter-based pseudo-random numbers for reproducible sampling.

Every draw is a pure function of (seed, counter) — there is no generator
state — so sample i is the same no matter which worker produces it or in
what order.  The mixer is the standard splitmix64 finalizer.
"""

from __future__ import annotations

from fractions import Fraction

UNIT_BITS = 53
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(seed: int, counter: int) -> int:
    """64-bit hash of (seed, counter)."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def unit_fraction(seed: int, counter: int) -> Fraction:
    """Dyadic rational in [0, 1) with UNIT_BITS = 53 random bits."""
    return Fraction(mix64(seed, counter) >> (64 - UNIT_BITS), 1 << UNIT_BITS)
