"""Independent oracles and corpus generators shared by the test modules.

Everything here deliberately avoids the library code paths it is used to
check: evaluation is re-implemented term by term, planted-root polynomials
are expanded by direct convolution, and arc lengths come from 1-D
quadrature.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb

from zeroset import Polynomial, UnivariatePolynomial


def naive_evaluate(p: Polynomial, point) -> Fraction:
    """Term-by-term evaluation, written independently of Polynomial.evaluate."""
    total = Fraction(0)
    for exponents, coefficient in p.terms.items():
        term = Fraction(coefficient)
        for value, e in zip(point, exponents):
            for _ in range(e):
                term = term * Fraction(value)
        total = total + term
    return total


def random_rational(rng: random.Random, num=8, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_polynomial(
    rng: random.Random, dimension: int, max_degree: int, max_terms: int = 6
) -> Polynomial:
    """Random nontrivial sparse polynomial, degree <= max_degree per variable."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_degree) for _ in range(dimension))
            terms[e] = random_rational(rng)
        p = Polynomial(dimension, terms)
        if not p.is_trivial:
            return p


def random_point(rng: random.Random, dimension: int) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng) for _ in range(dimension))


def planted_univariate(
    rng: random.Random, max_degree: int = 12, max_multiplicity: int = 3
) -> tuple[UnivariatePolynomial, list[Fraction]]:
    """Integer-coefficient polynomial with known distinct rational roots.

    Returns the polynomial and its sorted distinct roots.  Built by direct
    convolution of (den*t - num) factors, independent of the library's
    polynomial arithmetic.
    """
    n_roots = rng.randint(0, max_degree // 2)
    roots: set[Fraction] = set()
    while len(roots) < n_roots:
        roots.add(Fraction(rng.randint(-40, 40), rng.randint(1, 8)))
    chosen = []
    degree = 0
    for root in sorted(roots):
        m = rng.randint(1, max_multiplicity)
        if degree + m > max_degree:
            m = 1
        if degree + m > max_degree:
            break
        chosen.append((root, m))
        degree += m
    coeffs = [rng.choice([1, -1]) * rng.randint(1, 5)]
    for root, m in chosen:
        a, b = -root.numerator, root.denominator  # factor b*t + a
        for _ in range(m):
            out = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                out[i] += c * a
                out[i + 1] += c * b
            coeffs = out
    return UnivariatePolynomial(coeffs), [r for r, _ in chosen]


def expand_factors(factors) -> list[int]:
    """Integer coefficient list of the product of (factor, multiplicity) pairs.

    Each factor is an integer coefficient list by power; the product is
    expanded by direct convolution, independent of the library.
    """
    coeffs = [1]
    for factor, multiplicity in factors:
        for _ in range(multiplicity):
            out = [0] * (len(coeffs) + len(factor) - 1)
            for i, c in enumerate(coeffs):
                for j, f in enumerate(factor):
                    out[i + j] += c * f
            coeffs = out
    return coeffs


def bisection_root_count(u: UnivariatePolynomial, lo, hi, depth: int = 60) -> int:
    """Sign-change bisection count for polynomials with simple real roots.

    Counts sign changes of u by recursive halving; roots at sample points
    are detected by exact evaluation.  Correct when all roots in [lo, hi]
    are simple (sign actually flips) and the recursion gets fine enough to
    separate them, which planted corpora guarantee by construction.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    points = [lo + (hi - lo) * Fraction(i, depth) for i in range(depth + 1)]
    values = [u.evaluate(x) for x in points]
    count = sum(1 for v in values if v == 0)
    for (xa, va), (xb, vb) in zip(zip(points, values), zip(points[1:], values[1:])):
        if va == 0 or vb == 0:
            continue
        if (va < 0) != (vb < 0):
            count += 1
    return count


def swap_axes(p: Polynomial) -> Polynomial:
    return Polynomial(p.dimension, {tuple(reversed(e)): c for e, c in p.terms.items()})


def shift(p: Polynomial, offsets) -> Polynomial:
    """q(x) = p(x - offsets), by exact binomial expansion."""
    out = Polynomial.zero(p.dimension)
    for exponents, coefficient in p.terms.items():
        term = Polynomial.constant(p.dimension, coefficient)
        for j, ej in enumerate(exponents):
            var = Polynomial.variable(p.dimension, j + 1)
            factor = Polynomial.zero(p.dimension)
            for i in range(ej + 1):
                factor = factor + comb(ej, i) * (var**i) * Polynomial.constant(
                    p.dimension, (-Fraction(offsets[j])) ** (ej - i)
                )
            term = term * factor
        out = out + term
    return out


def scale_vars(p: Polynomial, s) -> Polynomial:
    """q(x) = p(x / s)."""
    return Polynomial(
        p.dimension, {e: c / Fraction(s) ** sum(e) for e, c in p.terms.items()}
    )


def arc_length_oracle(c: float) -> float:
    """Length of {x1*x2 = c} inside the unit square, by 1-D quadrature."""
    from scipy.integrate import quad

    value, _ = quad(lambda x: math.sqrt(1.0 + c * c / x**4), c, 1.0, limit=200)
    return value


def assert_canonical(p: Polynomial) -> None:
    """Polynomial and coefficient invariants from the data-type contracts."""
    for exponents, coefficient in p.terms.items():
        assert coefficient != 0
        assert len(exponents) == p.dimension
        assert all(e >= 0 for e in exponents)
        assert isinstance(coefficient, Fraction)
        assert coefficient.denominator > 0
        assert math.gcd(abs(coefficient.numerator), coefficient.denominator) == 1
