"""Certified counting of the distinct positive roots of an integer polynomial.

Everything lives in Z[t]: `count_positive_roots` takes an integer
coefficient list, such as an axis line's Möbius image (see `crofton`).  A
constant is decided at once.  From degree 1 on, one Sturm remainder
sequence is built with pseudo-divisions, dividing out integer content at
each step, so every element is a *positive* rational multiple of the
classical chain element: the same sign variations, no fraction blow-up.
The sequence ends in gcd(p, p'); only when that is not constant is the
chain rebuilt on the square-free part p / gcd(p, p').  The count is
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


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def count_positive_roots(c: IntPoly) -> int | None:
    """Number of distinct roots of c in the open interval (0, inf).

    `c` lists integer coefficients by power and may end in zeros.  Returns
    None when c is identically zero.  By Sturm's theorem the count is
    V(0) - V(inf), the sign variations of the chain's constant terms less
    those of its leading coefficients.
    """
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    if n <= 1:
        return None if n == 0 else 0
    chain = _int_chain(c[:n])
    return _variations([e[0] for e in chain]) - _variations([e[-1] for e in chain])
