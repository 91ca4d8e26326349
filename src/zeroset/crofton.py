"""Degree bound and per-axis line-count integrals for a polynomial zero set.

Two exports matter most:

* `theorem_bound` — the closed-form degree bound on the (d-1)-measure of the
  zero set inside a box B: sum_k deg_{x_k}(p) * vol(B) / (b_k - a_k).  On a
  cube of side r this is the paper's (sum of per-variable degrees) * r**(d-1).
* `crofton_upper_estimate` — the axis-line integral estimate: for each axis k,
  integrate over the projected box the number of roots the polynomial has
  along the axis-k line through each base point, then sum over axes.  Lines
  on which the polynomial vanishes identically contribute zero (they form a
  Lebesgue-null set) and are tallied separately.

Per-line counts are certified, and both schemes sample at exact rational
base points, so every estimate is an exact rational that is only converted
to float for reporting.  All reductions are integer sums, and every line is
counted in the calling process, by one counter at every dimension: in d = 1
the base is a point, and its one line is counted like any other.

Every base point of one axis shares a denominator D, so it is a tuple of
integer numerators N with x = N/D.  Once per axis p is read into one integer
table, by power of t and monomial in N: with x = (lo + hi*t) / (1 + t), it
gives at N the coefficients q_j(N) of a polynomial q in t whose positive
roots are the line's roots inside (lo, hi); q_0 = 0 marks a root at lo and
q_kappa = 0 one at hi.  A line counts [q_0 = 0] + [q_kappa = 0] + V, with V
the distinct roots of q in (0, inf).  Lines are counted in NumPy slabs: each
q_j is evaluated in float64 next to a forward error bound, and a line whose
q_j all have certified signs with at most one sign variation takes V from
Descartes' rule of signs.  Every other line has q evaluated exactly in Z,
by the same monomial evaluator, and V from `count_positive_roots`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, RationalLike, TrivialPolynomialError, _coerce
from .rng import UNIT_BITS, mix64_array
from .sturm import count_positive_roots

DEFAULT_SEED = 20240601
DEFAULT_CONFIDENCE = 0.95


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: a product of rational intervals [a_k, b_k]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Sequence[tuple[RationalLike, RationalLike]]):
        clean = tuple((_coerce(a), _coerce(b)) for a, b in intervals)
        widths = []  # each b_k - a_k as integers (numerator, denominator), not reduced
        for a, b in clean:
            (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
            if an * bd >= bn * ad:
                raise ValueError(f"degenerate interval [{a}, {b}]")
            widths.append((bn * ad - an * bd, ad * bd))
        object.__setattr__(self, "intervals", clean)
        object.__setattr__(self, "widths", tuple(widths))

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
    def volume(self) -> Fraction:
        return Fraction(math.prod(n for n, _ in self.widths), math.prod(e for _, e in self.widths))

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
        object.__setattr__(out, "widths", self.widths[: k - 1] + self.widths[k:])
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

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


Scheme = GridScheme | MonteCarloScheme


@dataclass(frozen=True)
class AxisEstimate:
    """One axis summand of the line-count integral.

    For grid schemes `error_halfwidth` is a spacing diagnostic (largest base
    cell width), not a certified bound; for Monte Carlo it is a Hoeffding
    half-width at confidence DEFAULT_CONFIDENCE.  `exact` carries the
    estimate as an exact rational.
    """

    axis: int
    estimate: float
    error_halfwidth: float
    degenerate_lines_hit: int
    exact: Fraction


@dataclass(frozen=True)
class CroftonResult:
    per_axis: tuple[AxisEstimate, ...]
    total: float
    total_error_halfwidth: float
    total_exact: Fraction


# ---------------------------------------------------------------------------
# Closed-form bound
# ---------------------------------------------------------------------------


def check_bound(p: Polynomial, box: Box) -> None:
    """The rules of `theorem_bound`, which every estimate shares: p is
    nontrivial, and p and `box` share a dimension."""
    if p.is_trivial:
        raise TrivialPolynomialError("the estimates require a nontrivial polynomial")
    if p.dimension != box.dimension:
        raise ValueError("polynomial and box dimensions differ")


def theorem_bound(p: Polynomial, box: Box) -> Fraction:
    """sum_k deg_{x_k}(p) * prod_{j != k} (b_j - a_j), exact, on any box.

    Each axis-k line meets the zero set in at most deg_{x_k}(p) points, so the
    axis-k integral is at most deg_{x_k}(p) times the projected box's volume.
    On a cube of side r this is the paper's (sum_k deg_{x_k} p) * r**(d-1).
    """
    check_bound(p, box)
    # One pass over the widths n/d in integers: after each axis the bound so
    # far is num/den and the volume so far is vol/den.
    num, vol, den = 0, 1, 1
    for k, (n, d) in enumerate(box.widths, 1):
        num, vol, den = num * n + p.degree_in(k) * vol * d, vol * n, den * d
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Per-line counting
# ---------------------------------------------------------------------------


def _scaled(x: Fraction, scale: int) -> int:
    """x * scale for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def _coefficient_tables(p: Polynomial, k: int, scale: int) -> tuple[list[tuple], list[list[int]]]:
    """p on the axis-k lines through N / scale, as (monomials, table), in one pass over its terms.

    `monomials` lists the distinct base monomials, each as ((base axis,
    exponent), ...), by first use in ascending powers of x_k; table[j][r] is
    the integer factor of x_k**j * N**monomials[r] in L * scale**m *
    p(N / scale, x_k), with L the lcm of the coefficient denominators and m
    the largest total degree of a term in the other variables.  Evaluated
    at N, the table gives a positive multiple of p on the axis-k line.
    """
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    m = max(sum(e) - e[k - 1] for e in p.terms)
    powers = p.degree_in(k) + 1
    columns: dict[tuple, list[int]] = {}
    for e, c in sorted(p.terms.items(), key=lambda term: term[0][k - 1]):
        base = e[: k - 1] + e[k:]
        column = columns.setdefault(tuple((i, x) for i, x in enumerate(base) if x), [0] * powers)
        column[e[k - 1]] = _scaled(c, lcm) * scale ** (m - sum(base))
    return list(columns), [list(row) for row in zip(*columns.values())]


def _monomial_values(monomials: list[tuple], base: np.ndarray) -> np.ndarray:
    """N**monomials[r] (rows) at the numerators N (columns of `base`), in `base`'s dtype.

    Each axis's powers are built once, by repeated multiplication up to the
    highest exponent a monomial asks for.  With object dtype the values are
    Python ints, exact; with float64 every product is one rounding.
    """
    ladders = [[None, row] for row in base]
    values = np.empty((len(monomials), base.shape[1]), dtype=base.dtype)
    for r, mono in enumerate(monomials):
        value = 1
        for axis, e in mono:
            ladder = ladders[axis]
            while len(ladder) <= e:
                ladder.append(ladder[-1] * ladder[1])
            value = value * ladder[e]  # exact for the leading 1, in ints and floats
        values[r] = value
    return values


def _mobius_column(kappa: int, i: int, lo: tuple[int, int], hi: tuple[int, int]) -> list[int]:
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


def _mobius_rows(table: list[list[int]], lo: tuple[int, int], hi: tuple[int, int]) -> list[list[int]]:
    """`table` moved onto t in [0, inf]: rows[j][r] is the integer factor of
    t**j * N**monomials[r], so that q_j(N) = sum of rows[j][r] * N**monomials[r]."""
    kappa = len(table) - 1
    rows = [[0] * len(factors) for factors in table]
    for i, factors in enumerate(table):
        if any(factors):
            for j, entry in enumerate(_mobius_column(kappa, i, lo, hi)):
                rows[j] = [x + entry * f for x, f in zip(rows[j], factors)]
    return rows


def error_factor(roundings: int) -> float:
    """A factor g such that g * S' bounds the error of a float sum of products.

    When each computed term and the sum carry at most K = `roundings`
    roundings of relative size 2**-53 between them, |computed - exact| <=
    gamma_K * S, with S the exact sum of |terms| (Higham, "Accuracy and
    Stability of Numerical Algorithms", 3.1), whatever order the sum takes.
    The computed S' is at least (1 - gamma_K) * S, so the bound is gamma_2K
    times it; the factor 2 covers rounding the bound itself.
    """
    steps = 2 * roundings
    unit = 2.0**-53
    return 2 * steps * unit / (1 - steps * unit)


# Lines one batch evaluates together, which caps its memory at a few MiB.
_SLAB_LINES = 4096
# Every integer of magnitude below 2**53 is a float64, and so is every sum or
# product of such integers that stays below it.
_EXACT_BELOW = float(1 << 53)


class _Filter:
    """Float64 Möbius-Descartes counts of axis lines, certified or deferred.

    The integer Möbius rows (`_mobius_rows`) are rounded to float64 once, and
    each line's q_j(N) = sum of rows[j][r] * N**monomials[r] is evaluated by
    `_monomial_values` next to a forward error bound.
    """

    def __init__(self, monomials: list[tuple], rows: list[list[int]]):
        self.monomials = monomials
        # A factor beyond float64 raises OverflowError; the caller then
        # counts every line exactly.
        self.rows = np.array(rows, dtype=np.float64)
        self.absolute = np.abs(self.rows)
        # Each computed term carries 2e + 1 roundings (the factor, e base
        # numerators, e multiplications) for a monomial of degree e, and a sum
        # of n terms adds n - 1.
        degree = max(sum(e for _, e in mono) for mono in monomials)
        self.gamma = error_factor(2 * degree + len(monomials))

    def counts(self, numerators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per line (columns of the int64 `numerators`), its count and whether it is deferred.

        A line inside the zero set counts -1.  A line is decided when every
        q_j has a certified sign and q has at most one sign variation V; its
        count is then [q_0 = 0] + [q_kappa = 0] + V (roots at lo, at hi, and
        Descartes' rule on the open interval).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            values = _monomial_values(self.monomials, numerators.astype(np.float64))
            q = self.rows @ values
            sums = self.absolute @ np.abs(values)
            # Below 2**53 every term and partial sum is an exact integer; an
            # inexact base numerator or factor would itself reach 2**53.
            error = np.where(sums < _EXACT_BELOW, 0.0, self.gamma * sums)
            # NaN and inf fail `>`, so they defer the line.
            unsure = ~(np.abs(q) > error) & (error != 0)
        signs = (q > 0).astype(np.int8) - (q < 0)
        last = signs[0]
        variations = np.zeros(numerators.shape[1], dtype=np.int64)
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
    fastest), and the top UNIT_BITS bits of `mix64_array` for Monte Carlo.
    A 1-dimensional box has one line, with an empty base.
    """

    def __init__(self, p: Polynomial, box: Box, k: int, scheme: Scheme):
        projected = box.project(k)
        self.k = k
        self.scheme = scheme
        den = math.lcm(*(x.denominator for pair in projected.intervals for x in pair))
        # `lines` is the number of lines, the same for every axis.
        if isinstance(scheme, GridScheme):
            scale = 2 * scheme.points_per_axis * den
            reach = 2 * scheme.points_per_axis - 1
            self.lines = scheme.points_per_axis ** projected.dimension
        else:
            scale = den << UNIT_BITS
            reach = (1 << UNIT_BITS) - 1
            self.lines = scheme.samples if projected.dimension else 1
        self.spans = [(_scaled(a, scale), _scaled(b - a, den)) for a, b in projected.intervals]
        self.monomials, table = _coefficient_tables(p, k, scale)
        self.rows = _mobius_rows(table, *(x.as_integer_ratio() for x in box.interval(k)))
        # The batch computes N = low + width * multiplier in int64.
        self.fits = all(
            max(abs(low), abs(low + width * reach), width * reach) < 1 << 63
            for low, width in self.spans
        )

    def multipliers(self, start: int, stop: int) -> np.ndarray:
        """int64 multipliers of lines start..stop-1, one row per base axis."""
        out = np.empty((len(self.spans), stop - start), dtype=np.int64)
        if isinstance(self.scheme, GridScheme):
            index = np.arange(start, stop, dtype=np.int64)
            for b in reversed(range(len(self.spans))):
                index, j = np.divmod(index, self.scheme.points_per_axis)
                out[b] = 2 * j + 1
        else:  # line i on base axis b draws counter (i + (k - 1) * samples) * m + b
            m = len(self.spans)
            first = np.uint64((start + (self.k - 1) * self.scheme.samples) * m % 2**64)
            bits = mix64_array(self.scheme.seed, first + np.arange(out.size, dtype=np.uint64))
            out[:] = (bits >> np.uint64(64 - UNIT_BITS)).reshape(stop - start, m).T
        return out

    def numerators(self, multipliers: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Base numerators of the lines in `dtype`: int64 for spans that `fits`, else object."""
        lows, widths = np.array(self.spans, dtype=dtype).reshape(-1, 2).T
        return lows[:, None] + multipliers * widths[:, None]

    def exact_counts(self, multipliers: np.ndarray) -> np.ndarray:
        """Counts of the lines in integer arithmetic, -1 for a line inside the zero set.

        The filter's rule on the exact q, with V from Sturm in place of Descartes."""
        values = _monomial_values(self.monomials, self.numerators(multipliers, dtype=object))
        out = []
        for q in (np.array(self.rows, dtype=object) @ values).T.tolist():
            inside = count_positive_roots(q)
            out.append(-1 if inside is None else inside + (q[0] == 0) + (q[-1] == 0))
        return np.array(out, dtype=np.int64)

    @cached_property
    def filter(self) -> _Filter | None:
        """The float filter, or None when numerators or factors leave int64 or float64."""
        if not self.fits:
            return None
        try:
            return _Filter(self.monomials, self.rows)
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

    def count(self) -> tuple[int, int]:
        """(sum of finite counts, number of lines inside the zero set) over every line."""
        total = degenerate = 0
        for i in range(0, self.lines, _SLAB_LINES):
            counts = self.batch_counts(self.multipliers(i, min(i + _SLAB_LINES, self.lines)))
            total += int(counts.sum())
            degenerate += int(np.count_nonzero(counts < 0))
        return total + degenerate, degenerate  # a line inside the zero set reads -1


def check_crofton(p: Polynomial, box: Box) -> None:
    """Every rule of the axis-line estimates: `check_bound`, and every float
    they report is finite.

    Those floats are at most 1.36 * d * D * M, with D the largest exponent in
    p (at least 1) and M the largest width (d >= 2) or projected volume.  The
    rule keeps d * D * M below 2**1022, from the logs of the integer widths,
    so it rejects only within 2 bits of the float64 limit: never a box with M
    below 2**1000 while d * D < 2**22.
    """
    check_bound(p, box)
    logs = [math.log2(n) - math.log2(e) for n, e in box.widths]
    top = max([sum(logs) - w for w in logs] + (logs if len(logs) > 1 else []))  # log2 M
    if top + math.log2(len(logs) * (max(map(max, p.terms)) or 1)) >= 1022:
        raise ValueError("the estimate's widths or volumes on the box pass the float64 range")


def _axis_integral(p: Polynomial, box: Box, k: int, scheme: Scheme) -> AxisEstimate:
    lines = _AxisLines(p, box, k, scheme)
    total, degenerate = lines.count()
    projected = box.project(k)
    exact = projected.volume * Fraction(total, lines.lines)
    if isinstance(scheme, GridScheme):
        n = scheme.points_per_axis
        halfwidth = float(max(((b - a) / n for a, b in projected.intervals), default=0))
    else:
        # Hoeffding: the integrand is integer-valued in [0, deg_{x_k} p].  A
        # point base has one line, counted exactly.
        spread = p.degree_in(k) if projected.dimension else 0
        halfwidth = float(projected.volume) * spread * math.sqrt(
            math.log(2.0 / (1.0 - DEFAULT_CONFIDENCE)) / (2.0 * lines.lines)
        )
    return AxisEstimate(
        axis=k,
        estimate=float(exact),
        error_halfwidth=halfwidth,
        degenerate_lines_hit=degenerate,
        exact=exact,
    )


def crofton_upper_estimate(p: Polynomial, box: Box, scheme: Scheme) -> CroftonResult:
    """Sum over axes of the per-line count integrals."""
    check_crofton(p, box)
    per_axis = tuple(_axis_integral(p, box, k, scheme) for k in range(1, box.dimension + 1))
    total_exact = sum((e.exact for e in per_axis), Fraction(0))
    return CroftonResult(
        per_axis=per_axis,
        total=math.fsum(e.estimate for e in per_axis),
        total_error_halfwidth=math.fsum(e.error_halfwidth for e in per_axis),
        total_exact=total_exact,
    )
