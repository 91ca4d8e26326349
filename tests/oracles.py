"""Oracles, reference code and corpus generators shared by the test modules.

The oracles deliberately avoid the library code paths they check:
evaluation is re-implemented term by term, planted-root polynomials are
expanded by direct convolution, and arc lengths come from 1-D quadrature.
The exact reference for per-line counts lives here too: restriction to an
axis line in `Fraction` arithmetic, its root count (`count_real_roots`, a
classical Sturm chain of the square-free part in `Fraction`s, read at the
rational interval ends, with no Möbius map and no integer chain), and the
scalar splitmix64 draws that the library computes in NumPy batches.
`Poly` adds exact ring arithmetic to `Polynomial` for building test inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from zeroset import Box, TrivialPolynomialError, parse_polynomial
from zeroset.crofton import _AxisLines
from zeroset.polynomial import Polynomial, RationalLike, _coerce


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic, evaluation and restriction
# ---------------------------------------------------------------------------


class Poly(Polynomial):
    """Polynomial with exact ring arithmetic; every result is a canonical Poly."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str, dimension: int) -> "Poly":
        return cls(dimension, parse_polynomial(text, dimension).terms)

    @classmethod
    def zero(cls, dimension: int) -> "Poly":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value: RationalLike) -> "Poly":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, k: int) -> "Poly":
        """The monomial x_k (1-based)."""
        if not 1 <= k <= dimension:
            raise ValueError(f"variable index {k} out of range 1..{dimension}")
        exponents = [0] * dimension
        exponents[k - 1] = 1
        return cls(dimension, {tuple(exponents): 1})

    def _coerce_operand(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.dimension, other)
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exponents, coefficient in other.terms.items():
            out[exponents] = out.get(exponents, Fraction(0)) + coefficient
        return Poly(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.dimension, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + Poly(self.dimension, {e: -c for e, c in other.terms.items()})

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return Poly(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.dimension, 1)
        for _ in range(n):
            out = out * self
        return out


def evaluate(p: Polynomial, point: Sequence[RationalLike]) -> Fraction:
    """Exact value of p at a rational point of length d."""
    if len(point) != p.dimension:
        raise ValueError(f"point has length {len(point)}, expected {p.dimension}")
    values = [_coerce(v) for v in point]
    total = Fraction(0)
    for exponents, coefficient in p.terms.items():
        term = coefficient
        for value, e in zip(values, exponents):
            if e:
                term *= value**e
        total += term
    return total


def restrict_to_line(p: Polynomial, k: int, base: Sequence[RationalLike]) -> "UnivariatePolynomial":
    """Restriction of p to the axis-k line through `base`.

    `base` lists the d-1 frozen coordinates in axis order with axis k
    skipped; the result is t -> p(base_1, .., t, .., base_{d-1}).  The
    zero univariate polynomial comes back exactly when the whole line
    lies in the zero set.
    """
    p._check_axis(k)
    if len(base) != p.dimension - 1:
        raise ValueError(f"base has length {len(base)}, expected {p.dimension - 1}")
    values = [_coerce(v) for v in base]
    coeffs: dict[int, Fraction] = {}
    for exponents, coefficient in p.terms.items():
        factor = coefficient
        jj = 0
        for j, e in enumerate(exponents):
            if j == k - 1:
                continue
            if e:
                factor *= values[jj] ** e
            jj += 1
        if factor:
            power = exponents[k - 1]
            coeffs[power] = coeffs.get(power, Fraction(0)) + factor
    if not coeffs:
        return UnivariatePolynomial(())
    top = max(coeffs)
    return UnivariatePolynomial(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


class UnivariatePolynomial:
    """Dense univariate polynomial; coefficients[i] multiplies t**i.

    The trailing coefficient is nonzero unless the polynomial is zero
    (empty tuple).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def from_roots(
        cls, roots: Sequence[RationalLike], multiplicities: Sequence[int] | None = None
    ) -> "UnivariatePolynomial":
        """Monic polynomial with the given roots (and multiplicities)."""
        if multiplicities is None:
            multiplicities = [1] * len(roots)
        out = cls((1,))
        for root, m in zip(roots, multiplicities):
            factor = cls((-_coerce(root), 1))
            for _ in range(m):
                out = out * factor
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise TrivialPolynomialError("degree of the zero polynomial is undefined")
        return len(self.coefficients) - 1

    def evaluate(self, x: RationalLike) -> Fraction:
        x = _coerce(x)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:]
        )

    def __add__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [Fraction(0)] * (n - len(self.coefficients))
        for i, c in enumerate(other.coefficients):
            a[i] += c
        return UnivariatePolynomial(a)

    __radd__ = __add__

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UnivariatePolynomial":
        return (-self) + other

    def __mul__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UnivariatePolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    __hash__ = None

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.coefficients!r})"


# ---------------------------------------------------------------------------
# Reference root counts per line
# ---------------------------------------------------------------------------


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


def _divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by a nonzero b, coefficient lists by power."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        f = r[-1] / b[-1]
        q[shift] = f
        for i, v in enumerate(b):
            r[shift + i] -= f * v
        while r and not r[-1]:
            r.pop()
    return q, r


def _sturm_chain(u: UnivariatePolynomial) -> list[UnivariatePolynomial]:
    """Sturm chain of the square-free part of a nonzero u: the classical
    remainder sequence u, u', -rem, ... divided through by its last element,
    gcd(u, u')."""
    chain = [list(u.coefficients), list(u.derivative().coefficients)]
    while chain[-1]:
        chain.append([-v for v in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return [UnivariatePolynomial(_divmod(c, chain[-1])[0]) for c in chain]


def _check_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"malformed interval [{lo}, {hi}]")
    return lo, hi


def count_real_roots(u: UnivariatePolynomial, lo, hi) -> RootCount:
    """Number of distinct real roots of u in the closed interval [lo, hi].

    The zero polynomial yields IDENTICALLY_ZERO.  The count is the Sturm
    variation difference on (lo, hi] plus an exact check of u(lo) = 0.
    """
    lo, hi = _check_interval(lo, hi)
    if u.is_zero:
        return IDENTICALLY_ZERO
    chain = _sturm_chain(u)

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (c.evaluate(x) for c in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return RootCount.finite(variations(lo) - variations(hi) + (u.evaluate(lo) == 0))


def line_count(p: Polynomial, box: Box, k: int, base: Sequence[RationalLike]) -> RootCount:
    """Distinct roots of p along the axis-k line through `base`, inside the box."""
    if p.is_trivial:
        raise TrivialPolynomialError("line counts require a nontrivial polynomial")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")
    projected = box.project(k)
    base = [_coerce(v) for v in base]
    if len(base) != projected.dimension:
        raise ValueError(f"base has length {len(base)}, expected {projected.dimension}")
    for value, (a, b) in zip(base, projected.intervals):
        if not a <= value <= b:
            raise ValueError(f"base coordinate {value} outside [{a}, {b}]")
    lo, hi = box.interval(k)
    return count_real_roots(restrict_to_line(p, k, base), lo, hi)


def line_counts(p: Polynomial, box: Box, k: int, scheme) -> list:
    """The library's counts of every axis-k line, None for a line inside the zero set."""
    lines = _AxisLines(p, box, k, scheme)
    counts = lines.batch_counts(lines.multipliers(0, lines.lines))
    return [None if count < 0 else count for count in counts.tolist()]


# ---------------------------------------------------------------------------
# Scalar Monte Carlo draws
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def mix64(seed: int, counter: int) -> int:
    """splitmix64 hash of (seed, counter), in Python integers."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def unit_fraction(seed: int, counter: int) -> Fraction:
    """Dyadic rational in [0, 1) with 53 random bits: the Monte Carlo draw (seed, counter)."""
    return Fraction(mix64(seed, counter) >> (64 - 53), 1 << 53)


# ---------------------------------------------------------------------------
# Corpora and independent oracles
# ---------------------------------------------------------------------------


def naive_evaluate(p: Polynomial, point) -> Fraction:
    """Term-by-term evaluation, written independently of `evaluate`."""
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
) -> Poly:
    """Random nontrivial sparse Poly, degree <= max_degree per variable."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_degree) for _ in range(dimension))
            terms[e] = random_rational(rng)
        p = Poly(dimension, terms)
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
    out = Poly.zero(p.dimension)
    for exponents, coefficient in p.terms.items():
        term = Poly.constant(p.dimension, coefficient)
        for j, ej in enumerate(exponents):
            var = Poly.variable(p.dimension, j + 1)
            factor = Poly.zero(p.dimension)
            for i in range(ej + 1):
                factor = factor + comb(ej, i) * (var**i) * Poly.constant(
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
