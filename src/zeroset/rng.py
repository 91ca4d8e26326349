"""Counter-based pseudo-random numbers for reproducible sampling.

Every draw is a pure function of (seed, counter) — there is no generator
state — so sample i is the same whatever slab draws it and in whatever
order.  The mixer is the standard splitmix64 finalizer.
"""

from __future__ import annotations

import numpy as np

UNIT_BITS = 53
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64_array(seed: int, counters: np.ndarray) -> np.ndarray:
    """64-bit hash of (seed, c) for each c of a uint64 array; uint64 wraps mod 2**64."""
    z = (counters + np.uint64(1)) * np.uint64(_GOLDEN) + np.uint64(seed & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
