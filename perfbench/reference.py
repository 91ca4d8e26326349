"""Fixed reference work that gauges how fast the shared machine is right now.

The machine this benchmark runs on is shared, and its speed drifts by 20-30%
over minutes while the program stays the same.  The benchmark therefore runs
this reference between jobs and reports times in *reference seconds*:
measured seconds x REFERENCE_SECONDS / (reference time measured alongside).
The reference does the same kinds of work as the program (exact `Fraction`
arithmetic with Sturm sequences in pure Python, and a NumPy grid evaluation)
in an interpreter of its own, so neither a change to the program nor the
state the program leaves behind (heap, garbage) changes it.

    python3 perfbench/reference.py     # one sample time per input line

Do not edit this file: any change to the work here, or to REFERENCE_SECONDS,
changes the scale of every time the benchmark reports.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

import numpy as np

# Median time of `sample()` on the 2-CPU x86 machine the benchmark was tuned
# on, so reference seconds read close to wall seconds there.
REFERENCE_SECONDS = 0.011
_REPEATS = 3
# Each segment is scaled by the median of this many samples around it: one
# sample is noisy, while the drift it tracks lasts tens of seconds.
WINDOW = 6


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, v in enumerate(b):
            a[shift + i] -= q * v
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _sturm_roots(c: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    chain = [c, [i * v for i, v in enumerate(c)][1:]]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])

    def variations(x: Fraction) -> int:
        signs = []
        for p in chain:
            v = Fraction(0)
            for coefficient in reversed(p):
                v = v * x + coefficient
            if v:
                signs.append(v > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def _work() -> int:
    total = 0
    for i in range(40):
        b = Fraction(2 * i + 1, 80)
        c = [Fraction(-1, 3) + b * b, Fraction(1, 2) - b, -b * Fraction(5, 7), Fraction(1)]
        total += _sturm_roots(c, Fraction(0), Fraction(1))
    x = np.linspace(0.0, 1.0, 200)
    gx, gy = np.meshgrid(x, x)
    for k in range(6):
        total += int((gx * gy * gx - 0.25 * gy + k * gx * gx < 0).sum())
    return total


def sample() -> float:
    """Seconds for one unit of reference work: the fastest of a few runs.

    Taking the minimum drops runs that a one-off preemption slowed down,
    and keeps the slowdown that lasts, which is what the jobs also see.
    """
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def factors(samples: list[float], exponent: float = 1.0) -> list[float]:
    """Slowdown of each segment between consecutive samples, over REFERENCE_SECONDS.

    `exponent` is how strongly the work being scaled follows the reference:
    1 when its time moves in proportion, 0.5 when it moves half as much
    (in relative terms).
    """
    half = WINDOW // 2
    return [
        (statistics.median(samples[max(0, i + 1 - half): i + 1 + half]) / REFERENCE_SECONDS)
        ** exponent
        for i in range(len(samples) - 1)
    ]


if __name__ == "__main__":
    for _ in sys.stdin:
        print(sample(), flush=True)
