"""Degree bound and per-axis line-count integrals for a polynomial zero set.

Two exports matter most:

* `theorem_bound` — the closed-form degree bound on the (d-1)-measure of the
  zero set inside a cube: (sum of per-variable degrees) * side**(d-1).
* `crofton_upper_estimate` — the axis-line integral estimate: for each axis k,
  integrate over the projected box the number of roots the polynomial has
  along the axis-k line through each base point, then sum over axes.  Lines
  on which the polynomial vanishes identically contribute zero (they form a
  Lebesgue-null set) and are tallied separately.

Per-line counts are certified (exact Sturm counts), and both schemes sample
at exact rational base points, so every estimate is an exact rational that
is only converted to float for reporting.  All reductions are integer sums,
which makes results bit-identical regardless of worker count.

The line loop never leaves Z.  Every base point of one axis shares a
denominator D, so it is a tuple of integer numerators N with x = N/D.  The
coefficients of p in x_k, scaled to integers once per axis and homogenized
over D, evaluate at N to a positive integer multiple of the restricted
polynomial, which `count_int_roots` counts directly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polynomial import Polynomial, RationalLike, TrivialPolynomialError, _coerce
# unit_fraction is the rational form of the Monte Carlo draws below; it stays
# importable from here because perfbench's tracer wraps crofton.unit_fraction.
from .rng import UNIT_BITS, mix64, unit_fraction  # noqa: F401
from .sturm import RootCount, count_int_roots, count_real_roots

DEFAULT_SEED = 20240601
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: a product of rational intervals [a_k, b_k]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Sequence[tuple[RationalLike, RationalLike]]):
        clean = tuple((_coerce(a), _coerce(b)) for a, b in intervals)
        for a, b in clean:
            if a >= b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        object.__setattr__(self, "intervals", clean)

    @classmethod
    def cube(cls, lo: RationalLike, hi: RationalLike, dimension: int) -> "Box":
        if dimension < 1:
            raise ValueError("cube dimension must be positive")
        return cls(((lo, hi),) * dimension)

    @classmethod
    def parse(cls, text: str, dimension: int) -> "Box":
        """Parse ``"a,b"`` (cube in `dimension`) or ``"a1,b1;a2,b2;..."``."""
        groups = [g for g in text.split(";") if g.strip()]
        intervals = []
        for group in groups:
            parts = group.split(",")
            if len(parts) != 2:
                raise ValueError(f"expected 'a,b' in box spec, got {group!r}")
            try:
                intervals.append((Fraction(parts[0].strip()), Fraction(parts[1].strip())))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in box spec {group!r}") from None
        if len(intervals) == 1 and dimension > 1:
            intervals = intervals * dimension
        if len(intervals) != dimension:
            raise ValueError(
                f"box spec has {len(intervals)} intervals, expected {dimension}"
            )
        return cls(intervals)

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def is_cube(self) -> bool:
        return len(set(self.intervals)) <= 1

    @property
    def side(self) -> Fraction:
        if not self.is_cube:
            raise ValueError("box is not a cube")
        a, b = self.intervals[0]
        return b - a

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for a, b in self.intervals:
            v *= b - a
        return v

    def interval(self, k: int) -> tuple[Fraction, Fraction]:
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis {k} out of range 1..{self.dimension}")
        return self.intervals[k - 1]

    def project(self, k: int) -> "Box":
        """Drop axis k (the base space of axis-k lines).  May be 0-dimensional."""
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis {k} out of range 1..{self.dimension}")
        out = object.__new__(Box)
        object.__setattr__(
            out, "intervals", self.intervals[: k - 1] + self.intervals[k:]
        )
        return out

    def __str__(self) -> str:
        return ";".join(f"{a},{b}" for a, b in self.intervals)


@dataclass(frozen=True)
class GridScheme:
    """Midpoint rule with `points_per_axis` rational midpoints per base axis."""

    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 1:
            raise ValueError("points_per_axis must be >= 1")


@dataclass(frozen=True)
class MonteCarloScheme:
    """Uniform sampling at dyadic-rational points from a counter-based generator."""

    samples: int
    seed: int = DEFAULT_SEED
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


Scheme = GridScheme | MonteCarloScheme


@dataclass(frozen=True)
class AxisEstimate:
    """One axis summand of the line-count integral.

    For grid schemes `error_halfwidth` is a spacing diagnostic (largest base
    cell width), not a certified bound; for Monte Carlo it is a Hoeffding
    half-width at the requested confidence.  `exact` carries the estimate as
    an exact rational.
    """

    axis: int
    estimate: float
    error_halfwidth: float
    degenerate_lines_hit: int
    exact: Fraction | None = None


@dataclass(frozen=True)
class CroftonResult:
    per_axis: tuple[AxisEstimate, ...]
    total: float
    total_error_halfwidth: float
    theorem_bound: Fraction | None
    total_exact: Fraction | None = None


# ---------------------------------------------------------------------------
# Closed-form bound
# ---------------------------------------------------------------------------


def theorem_bound(p: Polynomial, cube: Box) -> Fraction:
    """(sum_k deg_{x_k} p) * side**(d-1), exact.  Cubes only."""
    if p.is_trivial:
        raise TrivialPolynomialError("the bound requires a nontrivial polynomial")
    if p.dimension != cube.dimension:
        raise ValueError("polynomial and box dimensions differ")
    if not cube.is_cube:
        raise ValueError("the bound is stated for cubes only")
    return p.degree_sum() * cube.side ** (cube.dimension - 1)


# ---------------------------------------------------------------------------
# Per-line counting
# ---------------------------------------------------------------------------


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
    return count_real_roots(p.restrict_to_line(k, base), lo, hi)


def _scaled(x: Fraction, scale: int) -> int:
    """x * scale for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def _coefficient_tables(p: Polynomial, k: int, scale: int) -> list[list[tuple]]:
    """Per power j of x_k, the terms of L * scale**m * q_j(N / scale) in the numerators N.

    q_j are the coefficients of p in x_k (`coefficients_in`), L clears every
    coefficient denominator and m is the largest total degree of a term in
    the other variables.  Each term is (integer factor, ((base axis,
    exponent), ...)), so evaluating the tables at N gives a positive multiple
    of p restricted to the axis-k line through N / scale.
    """
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    m = max(sum(e) - e[k - 1] for e in p.terms)
    return [
        [
            (
                _scaled(c, lcm) * scale ** (m - sum(e)),
                tuple((i, x) for i, x in enumerate(e) if x),
            )
            for e, c in q.terms.items()
        ]
        for q in p.coefficients_in(k)
    ]


def _grid_numerators(projected: Box, n: int, den: int, start: int, stop: int):
    """Numerators over 2n*den of the midpoints of base cells start..stop-1 (row-major)."""
    spans = [
        (_scaled(a, 2 * n * den), _scaled(b - a, den)) for a, b in reversed(projected.intervals)
    ]
    for index in range(start, stop):
        point = []
        for low, width in spans:
            index, i = divmod(index, n)
            point.append(low + (2 * i + 1) * width)
        point.reverse()
        yield point


def _mc_numerators(projected: Box, den: int, seed: int, stream: int, start: int, stop: int):
    """Numerators over 2**53*den of samples start..stop-1 of the stream (as `unit_fraction`)."""
    spans = [(_scaled(a, den << UNIT_BITS), _scaled(b - a, den)) for a, b in projected.intervals]
    m = len(spans)
    for index in range(start, stop):
        offset = (stream + index) * m
        yield [
            low + width * (mix64(seed, offset + j) >> (64 - UNIT_BITS))
            for j, (low, width) in enumerate(spans)
        ]


def _line_counts(p: Polynomial, box: Box, k: int, scheme: Scheme, start: int, stop: int):
    """Distinct-root counts (None for a line inside the zero set) of lines start..stop-1."""
    projected = box.project(k)
    lo, hi = (x.as_integer_ratio() for x in box.interval(k))
    den = math.lcm(*(x.denominator for pair in projected.intervals for x in pair))
    if isinstance(scheme, GridScheme):
        n = scheme.points_per_axis
        scale = 2 * n * den
        points = _grid_numerators(projected, n, den, start, stop)
    else:
        scale = den << UNIT_BITS
        stream = (k - 1) * scheme.samples
        points = _mc_numerators(projected, den, scheme.seed, stream, start, stop)
    tables = _coefficient_tables(p, k, scale)
    for point in points:
        coefficients = []
        for terms in tables:
            value = 0
            for factor, powers in terms:
                for i, e in powers:
                    factor *= point[i] ** e
                value += factor
            coefficients.append(value)
        yield count_int_roots(coefficients, lo, hi)


def _count_range(args) -> tuple[int, int]:
    """Sum the per-line counts for a contiguous range of sample indices.

    Returns (sum of finite counts, number of identically-zero lines).  Runs
    in worker processes; integer sums make the reduction order-free.
    """
    total = 0
    degenerate = 0
    for count in _line_counts(*args):
        if count is None:
            degenerate += 1
        else:
            total += count
    return total, degenerate


def _sum_counts(p, box, k, scheme, n_points, workers) -> tuple[int, int]:
    if workers <= 1 or n_points < 4 * workers:
        return _count_range((p, box, k, scheme, 0, n_points))
    chunk = -(-n_points // (4 * workers))
    jobs = [
        (p, box, k, scheme, start, min(start + chunk, n_points))
        for start in range(0, n_points, chunk)
    ]
    total = 0
    degenerate = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part, bad in pool.map(_count_range, jobs):
            total += part
            degenerate += bad
    return total, degenerate


def crofton_axis_integral(
    p: Polynomial, box: Box, k: int, scheme: Scheme, workers: int = 1
) -> AxisEstimate:
    """Estimate of the axis-k integral of per-line root counts over the base box."""
    if p.is_trivial:
        raise TrivialPolynomialError("the estimator requires a nontrivial polynomial")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")
    p._check_axis(k)
    d = box.dimension

    if d == 1:
        # The base space is a point: the "integral" is the single line count.
        lo, hi = box.interval(1)
        outcome = count_real_roots(p.restrict_to_line(1, ()), lo, hi)
        exact = Fraction(outcome.count if not outcome.identically_zero else 0)
        return AxisEstimate(
            axis=k,
            estimate=float(exact),
            error_halfwidth=0.0,
            degenerate_lines_hit=1 if outcome.identically_zero else 0,
            exact=exact,
        )

    projected = box.project(k)
    if isinstance(scheme, GridScheme):
        n = scheme.points_per_axis
        n_points = n ** projected.dimension
        total, degenerate = _sum_counts(p, box, k, scheme, n_points, workers)
        cell_volume = projected.volume / n_points
        exact = total * cell_volume
        spacing = max((b - a) / n for a, b in projected.intervals)
        return AxisEstimate(
            axis=k,
            estimate=float(exact),
            error_halfwidth=float(spacing),
            degenerate_lines_hit=degenerate,
            exact=exact,
        )

    n_points = scheme.samples
    total, degenerate = _sum_counts(p, box, k, scheme, n_points, workers)
    volume = projected.volume
    exact = volume * Fraction(total, n_points)
    # Hoeffding: the integrand is integer-valued in [0, deg_{x_k} p].
    spread = p.degree_in(k)
    halfwidth = float(volume) * spread * math.sqrt(
        math.log(2.0 / (1.0 - scheme.confidence)) / (2.0 * n_points)
    )
    return AxisEstimate(
        axis=k,
        estimate=float(exact),
        error_halfwidth=halfwidth,
        degenerate_lines_hit=degenerate,
        exact=exact,
    )


def crofton_upper_estimate(
    p: Polynomial, box: Box, scheme: Scheme, workers: int = 1
) -> CroftonResult:
    """Sum over axes of the per-line count integrals, plus the cube bound when it applies."""
    per_axis = tuple(
        crofton_axis_integral(p, box, k, scheme, workers=workers)
        for k in range(1, box.dimension + 1)
    )
    total_exact = sum((e.exact for e in per_axis), Fraction(0))
    bound = theorem_bound(p, box) if box.is_cube else None
    return CroftonResult(
        per_axis=per_axis,
        total=math.fsum(e.estimate for e in per_axis),
        total_error_halfwidth=math.fsum(e.error_halfwidth for e in per_axis),
        theorem_bound=bound,
        total_exact=total_exact,
    )
