"""An exactly rounded sum of float64 arrays, added batch by batch.

A finite x is M * 2**(e - 53), with e its np.frexp exponent and M an
integer below 2**53 in magnitude, split as hi * 2**26 + lo with
0 <= lo < 2**26.  Per exponent, the his and the los are summed with
np.bincount into float64 bins of integers: bin k counts units of
2**(k - 1126), the his of exponent e go to bin e + 1099 and the los to bin
e + 1073, and every bin stays a multiple of 2**-1074.  A value adds at most
2**27 to a bin, so _SUM_CAPACITY values sum exactly; past that, each bin
carries all but its low 26 bits to the bin 26 above, which leaves less than
two values' worth.  The total rounds the bins, each an exact float, with
one math.fsum, which is exactly rounded: the result equals math.fsum of all
the values, whatever their number, order or batches.
"""

from __future__ import annotations

import math

import numpy as np

_SUM_CAPACITY = 2**26
# Values are binned in passes of at most this many, whose temporaries stay in cache.
_PASS = 2**13


class ExactSum:
    """Sums float64 batches exactly; `value` equals math.fsum of them all.

    Non-finite values give what fsum gives: nan, an infinity, or ValueError
    for inf - inf.  Unlike fsum, it does not raise OverflowError when finite
    partial sums pass the float range.
    """

    def __init__(self):
        self.bins = np.zeros(2176)  # up to bin 2123, for 2**1024, and two carries
        self.count = 0  # values' worth in the bins
        self.special: list[float] = []

    def add(self, values: np.ndarray) -> None:
        finite = np.isfinite(values)
        if not finite.all():
            self.special += values[~finite].tolist()
            values = values[finite]
        while len(values):
            if self.count == _SUM_CAPACITY:
                carry = np.trunc(self.bins[:-26] * 2.0**-26)
                self.bins[:-26] -= carry * 2.0**26
                self.bins[26:] += carry
                self.count = 2
            room = min(_SUM_CAPACITY - self.count, _PASS)
            chunk, values = values[:room], values[room:]
            self.count += len(chunk)
            mantissa, exponent = np.frexp(chunk)
            whole = mantissa * 2.0**53
            hi = np.floor(whole * 2.0**-26)
            exponent += 1073
            lo = np.bincount(exponent, whole - hi * 2.0**26)
            self.bins[: len(lo)] += lo
            self.bins[26 : 26 + len(lo)] += np.bincount(exponent, hi)

    def value(self) -> float:
        if self.special:
            return math.fsum(self.special)
        k = (self.bins != 0).nonzero()[0]
        return math.fsum(np.ldexp(self.bins[k], k - 1126).tolist())
