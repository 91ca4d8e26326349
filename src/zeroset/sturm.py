"""Certified counting of the distinct positive roots of an integer polynomial.

Everything lives in Z[t]: `count_positive_roots` takes an integer
coefficient list, such as an axis line's Möbius image (see `crofton`),
strips its zeros at both ends (the low ones are a factor t^m, whose root
t = 0 is not in (0, inf)) and decides a constant at once.  From degree 1 on,
one Sturm remainder sequence p, p', -rem, ... is built with pseudo-divisions,
dividing out integer content at each step, so every element is a *positive*
rational multiple of the classical one: the same sign variations, no
fraction blow-up.  It ends in g = gcd(p, p'), which divides every element
and vanishes at neither end of (0, inf), so both ends show the variations of
the square-free chain: Sturm's theorem needs no square-free p (Basu, Pollack
& Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).  The count is
V(0) - V(inf), read off the chain's constant and leading coefficients.
"""

from __future__ import annotations

import math
from typing import Sequence

# Integer polynomial: coefficient list, index = power, last entry nonzero
# (empty list = zero polynomial).
IntPoly = list[int]


# ---------------------------------------------------------------------------
# Integer-polynomial kernels
# ---------------------------------------------------------------------------


def _derivative_int(c: IntPoly) -> IntPoly:
    return [i * c[i] for i in range(1, len(c))]


def _content(c: IntPoly) -> int:
    return math.gcd(*c) or 1


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
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    if not r:
        return []
    flip = -1 if (lb > 0 or steps % 2 == 0) else 1
    g = _content(r)
    return [flip * (v // g) for v in r]


def _variations(values: Sequence[int]) -> int:
    """Sign changes along `values`, zeros skipped."""
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        if prev and (v < 0) != (prev < 0):
            count += 1
        prev = v
    return count


def _int_chain(c: IntPoly) -> list[IntPoly]:
    """Sturm remainder sequence of c (nonzero, stripped), over Z.

    p, p', -rem, ... of the primitive part p, ending in gcd(p, p'): a
    constant exactly when p is square-free, otherwise a divisor of p of
    positive degree.
    """
    p = _primitive(c)
    if len(p) == 1:
        return [p]
    chain = [p, _primitive(_derivative_int(p))]
    while len(chain[-1]) > 1:
        nxt = _neg_rem_primitive(chain[-2], chain[-1])
        if not nxt:  # chain[-1] divides chain[-2]: it is gcd(p, p')
            break
        chain.append(nxt)
    return chain


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def count_positive_roots(c: IntPoly) -> int | None:
    """Number of distinct roots of c in the open interval (0, inf).

    `c` lists integer coefficients by power and may start or end in zeros.
    Returns None when c is identically zero.  By Sturm's theorem the count
    is V(0) - V(inf), the sign variations of the chain's constant terms
    less those of its leading coefficients.
    """
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    if n == 0:
        return None
    m = 0
    while not c[m]:  # the factor t^m
        m += 1
    if n - m == 1:
        return 0
    chain = _int_chain(c[m:n])
    return _variations([e[0] for e in chain]) - _variations([e[-1] for e in chain])
