"""Certified counting of distinct real roots on an interval.

Counts are exact and count each distinct root once, in the closed interval.
Everything lives in Z[t]: `count_int_roots` takes an integer coefficient
list and an interval with integer numerator/denominator endpoints, and
`count_real_roots` scales a rational polynomial to such a list.  A constant
is decided at once.  From degree 1 on, one Sturm remainder sequence is built
with pseudo-divisions, dividing out integer content at each step, so every
element is a *positive* rational multiple of the classical chain element:
the same sign variations, no fraction blow-up.  The sequence ends in
gcd(p, p'); only when that is not constant is the chain rebuilt on the
square-free part p / gcd(p, p').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomial import UnivariatePolynomial

# Integer polynomial: coefficient list, index = power, last entry nonzero
# (empty list = zero polynomial).
IntPoly = list[int]
# Exact rational point as (numerator, denominator), denominator positive.
Ratio = tuple[int, int]


@dataclass(frozen=True)
class RootCount:
    """Per-line outcome: a finite distinct-root count, or a line inside the zero set."""

    count: int | None = None

    @classmethod
    def finite(cls, count: int) -> "RootCount":
        if count < 0:
            raise ValueError("root count cannot be negative")
        return cls(count)

    @property
    def identically_zero(self) -> bool:
        return self.count is None


IDENTICALLY_ZERO = RootCount(None)


# ---------------------------------------------------------------------------
# Integer-polynomial kernels
# ---------------------------------------------------------------------------


def _strip(c: IntPoly) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return c


def _derivative_int(c: IntPoly) -> IntPoly:
    return [i * c[i] for i in range(1, len(c))]


def _content(c: IntPoly) -> int:
    g = 0
    for v in c:
        g = math.gcd(g, v)
        if g == 1:
            break
    return g or 1


def _primitive(c: IntPoly) -> IntPoly:
    g = _content(c)
    return c if g == 1 else [v // g for v in c]


def _neg_rem_primitive(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive positive multiple of -(a mod b), for the Sturm recurrence.

    Pseudo-division keeps everything in Z: after s reduction steps the
    working remainder equals lc(b)**s * (a mod b).  The sign of that factor
    decides whether negating is still required.
    """
    r = a[:]
    db = len(b) - 1
    lb = b[-1]
    steps = 0
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        lead = r[-1]
        r = [lb * v for v in r[:-1]]
        for i in range(db):
            r[shift + i] -= lead * b[i]
        _strip(r)
        steps += 1
    if not r:
        return []
    flip = -1 if (lb > 0 or steps % 2 == 0) else 1
    g = _content(r)
    return [flip * (v // g) for v in r]


def _exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a / b in Q[t] with integer result (raises if inexact)."""
    r = a[:]
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    while r and len(r) - 1 >= len(b) - 1:
        shift = len(r) - 1 - len(b) + 1
        lead = r[-1]
        if lead % lb:
            raise ArithmeticError("inexact polynomial division")
        f = lead // lb
        q[shift] = f
        r.pop()
        for i in range(len(b) - 1):
            r[shift + i] -= f * b[i]
        _strip(r)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return _strip(q)


def _to_int_poly(u: UnivariatePolynomial) -> IntPoly:
    """Scale to integer coefficients (positive factor; same roots and signs)."""
    if u.is_zero:
        return []
    lcm = 1
    for c in u.coefficients:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c.numerator * (lcm // c.denominator)) for c in u.coefficients]


def _sign_at(c: IntPoly, x: Ratio) -> int:
    """Sign of c evaluated at x = num/den, via homogenized integer Horner."""
    num, den = x
    value = 0
    dpow = 1
    for coefficient in reversed(c):
        value = value * num + coefficient * dpow
        dpow *= den
    return (value > 0) - (value < 0)


def _variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _int_chain(c: IntPoly) -> list[IntPoly]:
    """Sturm chain of the square-free part of c (nonzero, stripped), over Z.

    One remainder sequence p, p', -rem, ... of the primitive part p is built.
    It ends in gcd(p, p'): when that is constant, p is square-free and the
    sequence is its chain; otherwise it is rebuilt once, on p / gcd(p, p').
    """
    p = _primitive(c)
    if len(p) == 1:
        return [p]
    while True:
        chain = [p, _primitive(_derivative_int(p))]
        while len(chain[-1]) > 1:
            nxt = _neg_rem_primitive(chain[-2], chain[-1])
            if not nxt:  # chain[-1] divides chain[-2]: it is gcd(p, p')
                break
            chain.append(nxt)
        g = chain[-1]
        if len(g) == 1:
            return chain
        p = _exact_div(p, g if g[-1] > 0 else [-v for v in g])


def _variations_at(chain: list[IntPoly], x: Ratio) -> int:
    return _variations([_sign_at(c, x) for c in chain])


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def _check_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"malformed interval [{lo}, {hi}]")
    return lo, hi


def count_int_roots(c: IntPoly, lo: Ratio, hi: Ratio) -> int | None:
    """Number of distinct real roots of c in the closed interval [lo, hi].

    `c` lists integer coefficients by power and may end in zeros; `lo` and
    `hi` are (numerator, denominator) pairs with positive denominators and
    lo < hi.  Returns None when c is identically zero.
    """
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    if n <= 1:
        return None if n == 0 else 0
    chain = _int_chain(c[:n])
    at_root = _sign_at(chain[0], lo) == 0
    return _variations_at(chain, lo) - _variations_at(chain, hi) + at_root


def count_real_roots(u: UnivariatePolynomial, lo, hi) -> RootCount:
    """Number of distinct real roots of u in the closed interval [lo, hi].

    The zero polynomial yields IDENTICALLY_ZERO.  The count is the Sturm
    variation difference on (lo, hi] plus an exact check of u(lo) = 0.
    """
    lo, hi = _check_interval(lo, hi)
    count = count_int_roots(_to_int_poly(u), lo.as_integer_ratio(), hi.as_integer_ratio())
    return IDENTICALLY_ZERO if count is None else RootCount.finite(count)
