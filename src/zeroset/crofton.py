"""Degree bound and per-axis line-count integrals for a polynomial zero set.

Two exports matter most:

* `theorem_bound` — the closed-form degree bound on the (d-1)-measure of the
  zero set inside a cube: (sum of per-variable degrees) * side**(d-1).
* `crofton_upper_estimate` — the axis-line integral estimate: for each axis k,
  integrate over the projected box the number of roots the polynomial has
  along the axis-k line through each base point, then sum over axes.  Lines
  on which the polynomial vanishes identically contribute zero (they form a
  Lebesgue-null set) and are tallied separately.

Per-line counts are certified, and both schemes sample at exact rational
base points, so every estimate is an exact rational that is only converted
to float for reporting.  All reductions are integer sums, and every line is
counted in the calling process.

Every base point of one axis shares a denominator D, so it is a tuple of
integer numerators N with x = N/D.  The coefficients of p in x_k, scaled to
integers once per axis and homogenized over D, evaluate at N to a positive
integer multiple of the restricted polynomial.  Lines are counted in NumPy
slabs: the Möbius map x = (lo + hi*t) / (1 + t) turns those tables into
tables of the coefficients q_j(N) of a polynomial in t whose positive roots
are the line's roots inside (lo, hi).  Each q_j is evaluated in float64 next
to a forward error bound, and a line whose q_j all have certified signs with
at most one sign variation is counted by Descartes' rule of signs.  Every
other line is evaluated exactly in Z and counted by `count_int_roots`, one
Sturm sequence per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, RationalLike, TrivialPolynomialError, _coerce
# unit_fraction is the rational form of the Monte Carlo draws below; it stays
# importable from here because perfbench's tracer wraps crofton.unit_fraction.
from .rng import UNIT_BITS, mix64_array, unit_fraction  # noqa: F401
from .sturm import Ratio, RootCount, count_int_roots, count_real_roots

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


def _mobius_column(kappa: int, i: int, lo: Ratio, hi: Ratio) -> list[int]:
    """t^j coefficients, j = 0..kappa, of (a0 + a1*t)**i * (w*(1 + t))**(kappa - i).

    With lo = ln/ld, hi = hn/hd, a0 = ln*hd, a1 = hn*ld and w = ld*hd,
    x = (a0 + a1*t) / (w*(1 + t)) maps t in [0, inf] onto [lo, hi], so these
    columns turn the coefficients of a line polynomial in x into those of
    (w*(1 + t))**kappa times it, as a polynomial in t.
    """
    (ln, ld), (hn, hd) = lo, hi
    a0, a1, w = ln * hd, hn * ld, ld * hd
    rest = kappa - i
    column = [0] * (kappa + 1)
    for r in range(i + 1):
        left = math.comb(i, r) * a0 ** (i - r) * a1**r * w**rest
        for s in range(rest + 1):
            column[r + s] += left * math.comb(rest, s)
    return column


# Lines one batch evaluates together, which caps its memory at a few MiB.
_SLAB_LINES = 4096
# Every integer of magnitude below 2**53 is a float64, and so is every sum or
# product of such integers that stays below it.
_EXACT_BELOW = float(1 << 53)


class _Filter:
    """Float64 Möbius-Descartes counts of axis lines, certified or deferred.

    The integer tables of q_j(N), the coefficients of the line polynomial
    moved onto t in [0, inf] (`_mobius_column`), are grouped by monomial in
    the base numerators N: q_j(N) = sum of table[j, r] * N**monomial[r].
    """

    def __init__(self, tables: list[list[tuple]], lo: Ratio, hi: Ratio):
        kappa = len(tables) - 1
        rows: dict[tuple, list[int]] = {}
        for i, terms in enumerate(tables):
            if not terms:
                continue
            column = _mobius_column(kappa, i, lo, hi)
            for factor, powers in terms:
                row = rows.setdefault(powers, [0] * (kappa + 1))
                for j, entry in enumerate(column):
                    row[j] += entry * factor
        self.monomials = list(rows)
        # float() raises OverflowError on a factor beyond float64; the caller
        # then counts every line exactly.
        self.table = np.array([[float(rows[mono][j]) for mono in self.monomials]
                               for j in range(kappa + 1)])
        self.absolute = np.abs(self.table)
        # The highest power of each base axis that a monomial takes.
        self.top: dict[int, int] = {}
        for mono in self.monomials:
            for axis, e in mono:
                self.top[axis] = max(self.top.get(axis, 0), e)
        # Each computed term carries 2e + 1 roundings (the factor, e base
        # numerators, e multiplications) for a monomial of degree e, and a sum
        # of n terms adds n - 1, so |computed - exact| <= gamma_K * S with
        # K = 2*e_max + n and S the exact sum of |terms| (Higham, "Accuracy and
        # Stability of Numerical Algorithms", 3.1), whatever order the sum
        # takes.  The computed S is at least (1 - gamma_K) * S, so the bound is
        # gamma_2K times it; the factor 2 covers rounding the bound itself.
        degree = max(sum(e for _, e in mono) for mono in self.monomials)
        steps = 2 * (2 * degree + len(self.monomials))
        unit = 2.0**-53
        self.gamma = 2 * steps * unit / (1 - steps * unit)

    def counts(self, numerators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per line (columns of the int64 `numerators`), its count and whether it is deferred.

        A line inside the zero set counts -1.  A line is decided when every
        q_j has a certified sign and q has at most one sign variation V; its
        count is then [q_0 = 0] + [q_kappa = 0] + V (roots at lo, at hi, and
        Descartes' rule on the open interval).
        """
        base = numerators.astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = {}
            for axis, top in self.top.items():
                powers[axis] = [None, base[axis]]
                for _ in range(top - 1):
                    powers[axis].append(powers[axis][-1] * base[axis])
            values = np.empty((len(self.monomials), base.shape[1]))
            for r, mono in enumerate(self.monomials):
                if not mono:
                    values[r] = 1.0
                    continue
                (axis, e), *others = mono
                value = powers[axis][e]
                for axis, e in others:
                    value = value * powers[axis][e]
                values[r] = value
            q = self.table @ values
            sums = self.absolute @ np.abs(values)
            # Below 2**53 every term and partial sum is an exact integer; an
            # inexact base numerator or factor would itself reach 2**53.
            error = np.where(sums < _EXACT_BELOW, 0.0, self.gamma * sums)
            # NaN and inf fail `>`, so they defer the line.
            unsure = ~(np.abs(q) > error) & (error != 0)
        signs = (q > 0).astype(np.int8) - (q < 0)
        last = signs[0]
        variations = np.zeros(base.shape[1], dtype=np.int64)
        for s in signs[1:]:
            variations += s * last < 0
            last = np.where(s != 0, s, last)
        counts = variations + (signs[0] == 0) + (signs[-1] == 0)
        counts[~signs.any(axis=0)] = -1
        return counts, unsure.any(axis=0) | (variations > 1)


class _AxisLines:
    """The axis-k lines of a scheme, with integer base points N / scale.

    Line i has N_b = low_b + width_b * multiplier_b(i): the multiplier is
    2j + 1 for the j-th midpoint of grid:n (the last base axis varies
    fastest), and the top 53 bits of `mix64` for Monte Carlo, as in
    `unit_fraction`.
    """

    def __init__(self, p: Polynomial, box: Box, k: int, scheme: Scheme):
        projected = box.project(k)
        self.k = k
        self.scheme = scheme
        self.lo, self.hi = (x.as_integer_ratio() for x in box.interval(k))
        den = math.lcm(*(x.denominator for pair in projected.intervals for x in pair))
        if isinstance(scheme, GridScheme):
            scale = 2 * scheme.points_per_axis * den
            reach = 2 * scheme.points_per_axis - 1
        else:
            scale = den << UNIT_BITS
            reach = (1 << UNIT_BITS) - 1
        self.spans = [(_scaled(a, scale), _scaled(b - a, den)) for a, b in projected.intervals]
        self.tables = _coefficient_tables(p, k, scale)
        # The batch computes N = low + width * multiplier in int64.
        self.fits = all(
            max(abs(low), abs(low + width * reach), width * reach) < 1 << 63
            for low, width in self.spans
        )

    def multipliers(self, start: int, stop: int) -> np.ndarray:
        """int64 multipliers of lines start..stop-1, one row per base axis."""
        index = np.arange(start, stop, dtype=np.int64)
        out = np.empty((len(self.spans), stop - start), dtype=np.int64)
        if isinstance(self.scheme, GridScheme):
            for b in reversed(range(len(self.spans))):
                index, j = np.divmod(index, self.scheme.points_per_axis)
                out[b] = 2 * j + 1
        else:
            m = len(self.spans)
            counters = (index + (self.k - 1) * self.scheme.samples).astype(np.uint64) * np.uint64(m)
            for b in range(m):
                bits = mix64_array(self.scheme.seed, counters + np.uint64(b))
                out[b] = bits >> np.uint64(64 - UNIT_BITS)
        return out

    def numerators(self, multipliers: np.ndarray) -> np.ndarray:
        """int64 base numerators of the lines, for spans that `fits`."""
        lows, widths = (np.array(column, dtype=np.int64) for column in zip(*self.spans))
        return lows[:, None] + multipliers * widths[:, None]

    def exact_counts(self, multipliers: np.ndarray) -> np.ndarray:
        """Counts of the lines in integer arithmetic, -1 for a line inside the zero set."""
        out = []
        for column in multipliers.T.tolist():
            point = [low + width * x for (low, width), x in zip(self.spans, column)]
            coefficients = []
            for terms in self.tables:
                value = 0
                for factor, powers in terms:
                    for i, e in powers:
                        factor *= point[i] ** e
                    value += factor
                coefficients.append(value)
            count = count_int_roots(coefficients, self.lo, self.hi)
            out.append(-1 if count is None else count)
        return np.array(out, dtype=np.int64)

    @cached_property
    def filter(self) -> _Filter | None:
        """The float filter, or None when numerators or factors leave int64 or float64."""
        if not self.fits:
            return None
        try:
            return _Filter(self.tables, self.lo, self.hi)
        except OverflowError:
            return None

    def batch_counts(self, multipliers: np.ndarray) -> np.ndarray:
        """Counts of the lines: the float filter first, integers for the lines it defers."""
        if self.filter is None:
            return self.exact_counts(multipliers)
        counts, deferred = self.filter.counts(self.numerators(multipliers))
        if deferred.any():
            counts[deferred] = self.exact_counts(multipliers[:, deferred])
        return counts


def _slab_counts(p: Polynomial, box: Box, k: int, scheme: Scheme, start: int, stop: int):
    """Counts of lines start..stop-1, one int64 array per slab; -1 marks a line in the zero set."""
    lines = _AxisLines(p, box, k, scheme)
    for first in range(start, stop, _SLAB_LINES):
        yield lines.batch_counts(lines.multipliers(first, min(first + _SLAB_LINES, stop)))


def _line_counts(p: Polynomial, box: Box, k: int, scheme: Scheme, start: int, stop: int):
    """Distinct-root counts (None for a line inside the zero set) of lines start..stop-1."""
    for counts in _slab_counts(p, box, k, scheme, start, stop):
        for count in counts.tolist():
            yield None if count < 0 else count


def _count_range(p: Polynomial, box: Box, k: int, scheme: Scheme, start: int, stop: int):
    """(sum of finite counts, number of lines inside the zero set) over lines start..stop-1."""
    total = 0
    degenerate = 0
    for counts in _slab_counts(p, box, k, scheme, start, stop):
        inside = int(np.count_nonzero(counts < 0))
        total += int(counts.sum()) + inside  # a line inside the zero set reads -1
        degenerate += inside
    return total, degenerate


def _lines_per_axis(box: Box, scheme: Scheme) -> int:
    """Axis lines one axis integral counts; the same for every axis."""
    if isinstance(scheme, GridScheme):
        return scheme.points_per_axis ** (box.dimension - 1)
    return scheme.samples if box.dimension > 1 else 1


def _check_estimator_input(p: Polynomial, box: Box) -> None:
    if p.is_trivial:
        raise TrivialPolynomialError("the estimator requires a nontrivial polynomial")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")


def crofton_axis_integral(p: Polynomial, box: Box, k: int, scheme: Scheme) -> AxisEstimate:
    """Estimate of the axis-k integral of per-line root counts over the base box."""
    _check_estimator_input(p, box)
    p._check_axis(k)
    if box.dimension == 1:
        # The base space is a point: the "integral" is the single line count.
        outcome = line_count(p, box, 1, ())
        exact = Fraction(outcome.count if not outcome.identically_zero else 0)
        return AxisEstimate(
            axis=k,
            estimate=float(exact),
            error_halfwidth=0.0,
            degenerate_lines_hit=1 if outcome.identically_zero else 0,
            exact=exact,
        )

    projected = box.project(k)
    n_points = _lines_per_axis(box, scheme)
    total, degenerate = _count_range(p, box, k, scheme, 0, n_points)
    if isinstance(scheme, GridScheme):
        n = scheme.points_per_axis
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


def crofton_upper_estimate(p: Polynomial, box: Box, scheme: Scheme) -> CroftonResult:
    """Sum over axes of the per-line count integrals, plus the cube bound when it applies."""
    _check_estimator_input(p, box)
    per_axis = tuple(
        crofton_axis_integral(p, box, k, scheme) for k in range(1, box.dimension + 1)
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
