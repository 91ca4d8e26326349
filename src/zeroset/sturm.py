"""Certified counting and isolation of distinct real roots on an interval.

Root counts use Sturm chains with exact arithmetic.  The chain is built from
the square-free part of the input, so multiple roots are counted once: the
count is the cardinality of the root *set* inside the closed interval.

Internally everything lives in Z[t].  `count_int_roots` takes an integer
coefficient list and an interval with integer numerator/denominator
endpoints; `count_real_roots` scales a rational polynomial to such a list
and calls it.  Degrees 0 and 1 are decided without a chain.  From degree 2
on, the remainder sequence is computed with pseudo-divisions, dividing out
integer content at each step.  Every element is therefore a *positive*
rational multiple of the classical chain element, which leaves all sign
variations (and hence all counts) unchanged while avoiding fraction
blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomial import TrivialPolynomialError, UnivariatePolynomial

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


@dataclass(frozen=True)
class RootInterval:
    """Closed interval containing exactly one distinct root (exact when rational)."""

    lo: Fraction
    hi: Fraction
    exact: Fraction | None = None


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


def _rem_primitive_abs(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive |a mod b| up to sign, for gcd computations (sign irrelevant)."""
    r = a[:]
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        lead = r[-1]
        r = [lb * v for v in r[:-1]]
        for i in range(db):
            r[shift + i] -= lead * b[i]
        _strip(r)
    return _primitive(r) if r else []


def _gcd_int(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] with positive leading coefficient."""
    a, b = _primitive(a[:]), _primitive(b[:])
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _rem_primitive_abs(a, b)
    if not a:
        return [1]
    return a if a[-1] > 0 else [-v for v in a]


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
    """Sturm chain of the square-free part of c (nonzero, stripped), over Z."""
    work = _primitive(c)
    if len(work) == 1:
        return [work]
    g = _gcd_int(work, _derivative_int(work))
    p0 = work if len(g) == 1 else _exact_div(work, g)
    chain = [p0]
    if len(p0) > 1:
        chain.append(_primitive(_derivative_int(p0)))
        while len(chain[-1]) > 1:
            nxt = _neg_rem_primitive(chain[-2], chain[-1])
            if not nxt:  # cannot happen for a square-free p0; guards bad input
                break
            chain.append(nxt)
    return chain


def _variations_at(chain: list[IntPoly], x: Ratio) -> int:
    return _variations([_sign_at(c, x) for c in chain])


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


class SturmChain:
    """Sturm chain of the square-free part of a univariate polynomial.

    `polys` exposes the chain over Q, each element normalized by the absolute
    value of its leading coefficient; consecutive degrees strictly decrease
    and the last element is a nonzero constant (or the chain has length 1
    for degree-0 input).
    """

    __slots__ = ("_ints", "_polys")

    def __init__(self, u: UnivariatePolynomial):
        if u.is_zero:
            raise TrivialPolynomialError("Sturm chain of the zero polynomial is undefined")
        self._ints = _int_chain(_to_int_poly(u))
        self._polys: tuple[UnivariatePolynomial, ...] | None = None

    @property
    def polys(self) -> tuple[UnivariatePolynomial, ...]:
        if self._polys is None:
            self._polys = tuple(
                UnivariatePolynomial(Fraction(v, abs(c[-1])) for v in c) for c in self._ints
            )
        return self._polys

    def variations_at(self, x: Fraction | int) -> int:
        return _variations_at(self._ints, Fraction(x).as_integer_ratio())

    def __len__(self) -> int:
        return len(self._ints)


def sturm_chain(u: UnivariatePolynomial) -> SturmChain:
    """Build the Sturm chain of the square-free part of u (u must be nonzero)."""
    return SturmChain(u)


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
    if n == 2:
        # c1*t + c0 is monotone: one root in [lo, hi] iff its signs at the
        # endpoints (scaled by the positive denominators) are not both
        # positive or both negative.
        c0, c1 = c[0], c[1]
        at_lo = c1 * lo[0] + c0 * lo[1]
        at_hi = c1 * hi[0] + c0 * hi[1]
        return 0 if (at_lo > 0 and at_hi > 0) or (at_lo < 0 and at_hi < 0) else 1
    chain = _int_chain(c[:n])
    count = _variations_at(chain, lo) - _variations_at(chain, hi)
    if _sign_at(chain[0], lo) == 0:
        count += 1
    return count


def count_real_roots(u: UnivariatePolynomial, lo, hi) -> RootCount:
    """Number of distinct real roots of u in the closed interval [lo, hi].

    The zero polynomial yields IDENTICALLY_ZERO.  The count is the Sturm
    variation difference on (lo, hi] plus an exact check of u(lo) = 0.
    """
    lo, hi = _check_interval(lo, hi)
    count = count_int_roots(_to_int_poly(u), lo.as_integer_ratio(), hi.as_integer_ratio())
    return IDENTICALLY_ZERO if count is None else RootCount.finite(count)


def _offroot_split(p0: IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    """An interior point of (lo, hi) that is not a root of p0."""
    q = 2
    while True:
        m = lo + (hi - lo) / q
        if _sign_at(p0, m.as_integer_ratio()) != 0:
            return m
        q += 1


def isolate_roots(u: UnivariatePolynomial, lo, hi) -> list[RootInterval]:
    """Pairwise-disjoint isolating intervals for the distinct roots in [lo, hi].

    Each interval contains exactly one distinct root of u; rational roots
    that surface during bisection come back as exact point intervals.
    """
    lo, hi = _check_interval(lo, hi)
    if u.is_zero:
        raise TrivialPolynomialError("cannot isolate roots of the zero polynomial")
    chain = _int_chain(_to_int_poly(u))
    p0 = chain[0]

    def sign(x: Fraction) -> int:
        return _sign_at(p0, x.as_integer_ratio())

    def variations(x: Fraction) -> int:
        return _variations_at(chain, x.as_integer_ratio())

    out: list[RootInterval] = []
    if sign(lo) == 0:
        out.append(RootInterval(lo, lo, lo))

    def emit_single(a: Fraction, b: Fraction, va: int) -> None:
        # Exactly one root in (a, b]; shrink until both endpoints are non-roots
        # or the root is hit exactly.
        while True:
            if sign(b) == 0:
                out.append(RootInterval(b, b, b))
                return
            if sign(a) != 0:
                out.append(RootInterval(a, b))
                return
            m = _offroot_split(p0, a, b)
            vm = variations(m)
            if va - vm == 1:
                b = m
            else:
                a, va = m, vm

    def walk(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            emit_single(a, b, va)
            return
        m = _offroot_split(p0, a, b)
        vm = variations(m)
        walk(a, m, va, vm)
        walk(m, b, vm, vb)

    walk(lo, hi, variations(lo), variations(hi))

    # Separate neighbors that share an endpoint (the shared point is never a
    # root, so a few bisections push the later interval strictly right).
    for i in range(1, len(out)):
        prev, cur = out[i - 1], out[i]
        while prev.hi >= cur.lo and cur.exact is None:
            m = _offroot_split(p0, cur.lo, cur.hi)
            vm = variations(m)
            if variations(cur.lo) - vm == 1:
                cur = RootInterval(cur.lo, m)
            else:
                cur = RootInterval(m, cur.hi)
            out[i] = cur
    return out
