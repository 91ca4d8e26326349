import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeroset import (
    Box,
    GridScheme,
    MonteCarloScheme,
    Polynomial,
    TrivialPolynomialError,
    crofton_axis_integral,
    crofton_upper_estimate,
    line_count,
    parse_polynomial,
    theorem_bound,
)
from zeroset import cli, crofton
from zeroset.crofton import _AxisLines, _count_range, _line_counts
from zeroset.rng import mix64, mix64_array, unit_fraction
from zeroset.sturm import count_real_roots

from oracles import random_polynomial

UNIT_SQUARE = Box.cube(0, 1, 2)
BIG_SQUARE = Box.cube(-1, 1, 2)


class TestBox:
    def test_parse_cube_shorthand(self):
        box = Box.parse("0,1", 3)
        assert box.dimension == 3 and box.is_cube and box.side == 1

    def test_parse_general(self):
        box = Box.parse("0,1;-1/2,1/2", 2)
        assert box.intervals == ((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(1, 2)))
        assert not box.is_cube
        assert box.volume == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box(((1, 1),))
        with pytest.raises(ValueError):
            Box.parse("1,0", 1)

    def test_project(self):
        box = Box.parse("0,1;2,3;4,5", 3)
        assert box.project(2).intervals == ((Fraction(0), Fraction(1)), (Fraction(4), Fraction(5)))

    def test_side_requires_cube(self):
        with pytest.raises(ValueError):
            Box.parse("0,1;0,2", 2).side


class TestSchemes:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridScheme(0)
        with pytest.raises(ValueError):
            MonteCarloScheme(0)
        with pytest.raises(ValueError):
            MonteCarloScheme(10, confidence=1.0)

    def test_counter_rng_is_pure(self):
        assert mix64(7, 3) == mix64(7, 3)
        assert mix64(7, 3) != mix64(7, 4)
        u = unit_fraction(42, 0)
        assert 0 <= u < 1
        assert u.denominator & (u.denominator - 1) == 0  # dyadic


class TestTheoremBound:
    def test_hyperbola(self):
        assert theorem_bound(parse_polynomial("x1*x2 - 1/4", 2), UNIT_SQUARE) == 2

    def test_line(self):
        assert theorem_bound(parse_polynomial("x1 - 1/2", 2), UNIT_SQUARE) == 1

    def test_circle_side_two(self):
        assert theorem_bound(parse_polynomial("x1^2 + x2^2 - 1/4", 2), BIG_SQUARE) == 8

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            theorem_bound(Polynomial.zero(2), UNIT_SQUARE)

    def test_non_cube_rejected(self):
        with pytest.raises(ValueError, match="cube"):
            theorem_bound(parse_polynomial("x1", 2), Box.parse("0,1;0,2", 2))

    def test_d1(self):
        assert theorem_bound(parse_polynomial("x1^3 - x1", 1), Box.cube(-2, 2, 1)) == 3


class TestLineCount:
    def test_root_inside(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        assert line_count(p, UNIT_SQUARE, 1, (Fraction(1, 2),)).count == 1

    def test_root_outside_box(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        assert line_count(p, UNIT_SQUARE, 1, (Fraction(1, 8),)).count == 0

    def test_line_in_zero_set(self):
        p = parse_polynomial("x1 - 1/2", 2)
        assert line_count(p, UNIT_SQUARE, 2, (Fraction(1, 2),)).identically_zero

    def test_base_outside_rejected(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        with pytest.raises(ValueError, match="outside"):
            line_count(p, UNIT_SQUARE, 1, (Fraction(2),))


class TestAxisIntegral:
    def test_line_along_axis(self):
        p = parse_polynomial("x1 - 1/2", 2)
        estimate = crofton_axis_integral(p, UNIT_SQUARE, 1, GridScheme(256))
        assert estimate.exact == 1
        assert estimate.estimate == 1.0

    def test_line_across_axis(self):
        p = parse_polynomial("x1 - 1/2", 2)
        estimate = crofton_axis_integral(p, UNIT_SQUARE, 2, GridScheme(256))
        assert estimate.exact == 0
        assert estimate.degenerate_lines_hit == 0

    def test_degenerate_line_sampled(self):
        # with an odd midpoint count the base 1/2 is hit exactly
        p = parse_polynomial("x1 - 1/2", 2)
        for n in (1, 3):
            estimate = crofton_axis_integral(p, UNIT_SQUARE, 2, GridScheme(n))
            assert estimate.degenerate_lines_hit == 1
            assert estimate.exact == 0

    def test_circle_closed_form(self):
        # integrand is 2 on |y| < 1/2, 0 outside: the integral is exactly 2
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        estimate = crofton_axis_integral(p, BIG_SQUARE, 1, GridScheme(1024))
        assert estimate.exact == 2

    def test_grid_ceiling(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_polynomial(rng, 2, 3)
            k = rng.randint(1, 2)
            estimate = crofton_axis_integral(p, UNIT_SQUARE, k, GridScheme(16))
            assert estimate.exact <= p.degree_in(k) * 1  # projected volume is 1


class TestUpperEstimate:
    def test_equality_case(self):
        p = parse_polynomial("x1 - 1/2", 2)
        result = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(256))
        assert result.total == 1.0
        assert result.total_exact == 1
        assert result.theorem_bound == 1

    def test_circle(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        result = crofton_upper_estimate(p, BIG_SQUARE, GridScheme(256))
        assert result.total_exact == 4
        assert result.theorem_bound == 8

    def test_hyperbola_closed_form(self):
        # per axis the integrand is 1 for y in (c, 1]: integral 2*(1-c)
        c = Fraction(1, 5)
        p = Polynomial(2, {(1, 1): 1, (0, 0): -c})
        n = 64
        result = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(n))
        target = 2 * (1 - c)
        assert abs(result.total_exact - target) <= Fraction(2, n)

    def test_refinement_goldens(self):
        # recorded exact grid values for x1*x2 - 1/5 on the unit square
        p = Polynomial(2, {(1, 1): 1, (0, 0): Fraction(-1, 5)})
        goldens = {32: Fraction(13, 8), 64: Fraction(51, 32), 128: Fraction(51, 32)}
        values = {
            n: crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(n)).total_exact
            for n in goldens
        }
        assert values == goldens
        exact = 2 * (1 - Fraction(1, 5))
        assert abs(values[64] - exact) <= abs(values[32] - exact)

    def test_total_is_sum_of_axis_estimates(self):
        import math

        rng = random.Random(137)
        for _ in range(10):
            p = random_polynomial(rng, 2, 3)
            result = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(8))
            assert result.total == math.fsum(e.estimate for e in result.per_axis)
            assert result.total_exact == sum(e.exact for e in result.per_axis)

    def test_non_cube_box_no_bound(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        result = crofton_upper_estimate(p, Box.parse("0,1;0,2", 2), GridScheme(16))
        assert result.theorem_bound is None

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            crofton_upper_estimate(Polynomial.zero(2), UNIT_SQUARE, GridScheme(4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            crofton_upper_estimate(parse_polynomial("x1", 3), UNIT_SQUARE, GridScheme(64))

    def test_d1_convention(self):
        p = parse_polynomial("x1^2 - 1/4", 1)
        result = crofton_upper_estimate(p, Box.cube(0, 1, 1), GridScheme(7))
        assert result.total == 1.0  # the single root count
        assert result.theorem_bound == 2

    def test_grid_total_never_exceeds_bound(self):
        rng = random.Random(233)
        for _ in range(30):
            d = rng.randint(2, 3)
            p = random_polynomial(rng, d, 3)
            cube = Box.cube(0, 1, d)
            result = crofton_upper_estimate(p, cube, GridScheme(8 if d == 3 else 24))
            assert result.total_exact <= result.theorem_bound

    def test_monte_carlo_never_exceeds_bound(self):
        rng = random.Random(234)
        for seed in (1, 2, 3):
            p = random_polynomial(rng, 2, 3)
            result = crofton_upper_estimate(
                p, UNIT_SQUARE, MonteCarloScheme(500, seed=seed)
            )
            assert result.total - result.total_error_halfwidth <= result.theorem_bound
            assert result.total_exact <= result.theorem_bound
            for e in result.per_axis:
                assert e.estimate <= p.degree_in(e.axis) * 1 + e.error_halfwidth


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        a = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(2000, seed=42))
        b = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(2000, seed=42))
        assert a == b
        c = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(2000, seed=43))
        assert c != a

    def test_workers_do_not_change_results(self, capsys):
        # --workers is accepted and ignored; the reports stay byte-identical.
        for scheme in ("grid:40", "mc:3000"):
            reports = []
            for workers in ("1", "3", "4"):
                argv = ["crofton", "--poly", "x1^2*x2 - x2^2 + 1/3", "--dim", "2",
                        "--scheme", scheme, "--seed", "7", "--workers", workers]
                assert cli.main(argv) == 0
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1] == reports[2]

    def test_halfwidth_brackets_known_integral(self):
        # regression with the documented default seed: the circle's exact
        # per-axis integral is 2, total 4
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        result = crofton_upper_estimate(p, BIG_SQUARE, MonteCarloScheme(20000))
        assert abs(result.total - 4.0) <= result.total_error_halfwidth

    def test_halfwidth_shrinks_with_samples(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        small = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(100, seed=1))
        large = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(10000, seed=1))
        assert large.total_error_halfwidth < small.total_error_halfwidth


# Non-dyadic, non-unit boxes: base points and endpoints with odd denominators.
ODD_BOX_2 = Box.parse("-1/3,5/7;1/2,9/4", 2)
ODD_BOX_3 = Box.parse("-1/3,5/7;1/2,9/4;-2,-1/5", 3)


def reference_base_points(box, k, scheme):
    """Fraction base points of the axis-k lines, written from the scheme definitions."""
    intervals = box.project(k).intervals
    if isinstance(scheme, GridScheme):
        n = scheme.points_per_axis
        points = [()]
        for a, b in intervals:  # row-major: the last base axis varies fastest
            points = [
                pt + (a + (2 * i + 1) * (b - a) / (2 * n),) for pt in points for i in range(n)
            ]
        return points
    m = len(intervals)
    stream = (k - 1) * scheme.samples
    return [
        tuple(
            a + (b - a) * unit_fraction(scheme.seed, (stream + index) * m + j)
            for j, (a, b) in enumerate(intervals)
        )
        for index in range(scheme.samples)
    ]


def grid_midpoint(box, axis, n, i):
    a, b = box.interval(axis)
    return a + (2 * i + 1) * (b - a) / (2 * n)


@pytest.fixture
def exact_only(monkeypatch):
    """No float filter: every line is counted by the integer path."""
    monkeypatch.setattr(_AxisLines, "filter", None)


@pytest.mark.usefixtures("exact_only")
class TestIntegerLinePath:
    """The integer line loop against the Fraction reference, line by line."""

    def assert_matches_reference(self, p, box, scheme):
        for k in range(1, box.dimension + 1):
            lo, hi = box.interval(k)
            expected = [
                count_real_roots(p.restrict_to_line(k, base), lo, hi).count
                for base in reference_base_points(box, k, scheme)
            ]
            n_points = len(expected)
            assert list(_line_counts(p, box, k, scheme, 0, n_points)) == expected
            finite = [c for c in expected if c is not None]
            totals = (sum(finite), n_points - len(finite))
            assert _count_range(p, box, k, scheme, 0, n_points) == totals
            middle = n_points // 3
            head = _count_range(p, box, k, scheme, 0, middle)
            tail = _count_range(p, box, k, scheme, middle, n_points)
            assert (head[0] + tail[0], head[1] + tail[1]) == totals

    @pytest.mark.parametrize(
        "box,schemes",
        [
            (ODD_BOX_2, (GridScheme(7), MonteCarloScheme(12, seed=3))),
            (ODD_BOX_3, (GridScheme(3), MonteCarloScheme(6, seed=4))),
            (Box.cube(0, 1, 2), (GridScheme(5), MonteCarloScheme(10, seed=5))),
        ],
    )
    def test_random_sparse_polynomials(self, box, schemes):
        rng = random.Random(box.dimension * 1009 + len(str(box)))
        for _ in range(12):
            p = random_polynomial(rng, box.dimension, 4)
            for scheme in schemes:
                self.assert_matches_reference(p, box, scheme)

    def planted(self, n):
        x1 = parse_polynomial("x1", 2)
        x2 = parse_polynomial("x2", 2)
        m1 = grid_midpoint(ODD_BOX_2, 1, n, 2)
        m2 = grid_midpoint(ODD_BOX_2, 2, n, 1)
        return {
            # the axis-1 line x2 = m2 and the axis-2 line x1 = m1 lie in the zero set
            "zero_lines": (x2 - m2) * (x1 - m1),
            # roots exactly at both ends of the axis-1 interval, on every line
            "endpoint_roots_1": (x1 + Fraction(1, 3)) * (x1 - Fraction(5, 7)) * (x2 * x2 + 1),
            # ... and of the axis-2 interval
            "endpoint_roots_2": (x2 - Fraction(1, 2)) * (x2 - Fraction(9, 4)) * (x1 + 2),
            "double_root": (x1 - x2) ** 2,
            # the top coefficient in x1 vanishes at x2 = m2, the one in x2 at x1 = m1
            "vanishing_leading": (x2 - m2) * x1**2 + (x1 - m1) * x2**3 + x1 - Fraction(1, 4),
        }

    @pytest.mark.parametrize(
        "name",
        ["zero_lines", "endpoint_roots_1", "endpoint_roots_2", "double_root", "vanishing_leading"],
    )
    @pytest.mark.parametrize("scheme", [GridScheme(5), MonteCarloScheme(20, seed=11)])
    def test_planted_cases(self, name, scheme):
        p = self.planted(5)[name]
        self.assert_matches_reference(p, ODD_BOX_2, scheme)

    def test_planted_grid_counts(self):
        n = 5
        planted = self.planted(n)
        lines = lambda p, k: list(_line_counts(p, ODD_BOX_2, k, GridScheme(n), 0, n))
        zeros = planted["zero_lines"]
        assert lines(zeros, 1).count(None) == 1
        assert lines(zeros, 2).count(None) == 1
        assert lines(planted["endpoint_roots_1"], 1) == [2] * n
        assert lines(planted["endpoint_roots_2"], 2) == [2] * n
        # (x1 - x2)^2 on the line x2 = c has the one double root x1 = c
        assert lines(planted["double_root"], 1) == [
            1 if grid_midpoint(ODD_BOX_2, 2, n, i) <= Fraction(5, 7) else 0 for i in range(n)
        ]
        # the degree drops to 1 on the line x2 = m2: its one root x1 = 1/4 is inside
        assert lines(planted["vanishing_leading"], 1)[1] == 1


ODD_BOX_4 = Box.parse("-1/3,5/7;1/2,9/4;-2,-1/5;1/9,7/3", 4)


@pytest.fixture
def batched(monkeypatch):
    """Slabs of 7 lines, so slab seams fall mid-range."""
    monkeypatch.setattr(crofton, "_SLAB_LINES", 7)


def exact_line_counts(p, box, k, scheme, n_points):
    """Per-line counts on the integer path alone, without the float filter."""
    lines = _AxisLines(p, box, k, scheme)
    counts = lines.exact_counts(lines.multipliers(0, n_points)).tolist()
    return [None if c < 0 else c for c in counts]


def filter_verdicts(p, box, k, scheme, n_points):
    """The float filter's (counts, deferred) on every line, next to the integer counts."""
    lines = _AxisLines(p, box, k, scheme)
    multipliers = lines.multipliers(0, n_points)
    counts, deferred = lines.filter.counts(lines.numerators(multipliers))
    return counts, deferred, lines.exact_counts(multipliers)


class TestBatchedLinePath:
    """The batch (float filter, integer path for what it defers) against the integer path."""

    @pytest.mark.parametrize(
        "box,schemes",
        [
            (ODD_BOX_2, (GridScheme(9), MonteCarloScheme(30, seed=3))),
            (ODD_BOX_3, (GridScheme(4), MonteCarloScheme(20, seed=4))),
            (ODD_BOX_4, (GridScheme(3), MonteCarloScheme(12, seed=5))),
            (Box.cube(0, 1, 2), (GridScheme(8), MonteCarloScheme(30, seed=6))),
            (Box.cube(0, 1, 3), (GridScheme(4), MonteCarloScheme(20, seed=7))),
            (Box.cube(0, 1, 4), (GridScheme(3), MonteCarloScheme(12, seed=8))),
        ],
    )
    def test_seeded_corpus(self, batched, box, schemes):
        rng = random.Random(7919 * box.dimension + len(str(box)))
        for _ in range(10):
            p = random_polynomial(rng, box.dimension, 4)
            for scheme in schemes:
                for k in range(1, box.dimension + 1):
                    n_points = crofton._lines_per_axis(box, scheme)
                    expected = exact_line_counts(p, box, k, scheme, n_points)
                    assert list(_line_counts(p, box, k, scheme, 0, n_points)) == expected
                    finite = [c for c in expected if c is not None]
                    totals = (sum(finite), n_points - len(finite))
                    middle = n_points // 2 + 1
                    head = _count_range(p, box, k, scheme, 0, middle)
                    tail = _count_range(p, box, k, scheme, middle, n_points)
                    assert (head[0] + tail[0], head[1] + tail[1]) == totals

    def test_batch_matches_fraction_reference(self, batched):
        rng = random.Random(2027)
        for _ in range(6):
            p = random_polynomial(rng, 2, 4)
            scheme = MonteCarloScheme(40, seed=9)
            TestIntegerLinePath().assert_matches_reference(p, ODD_BOX_2, scheme)

    def test_estimates_unchanged(self, monkeypatch):
        p = parse_polynomial("x1^2*x2 - 3/2*x1*x2^3 + x3^2 - 1/5", 3)
        box = Box.cube(0, 1, 3)
        for scheme in (GridScheme(12), MonteCarloScheme(300, seed=12)):
            with monkeypatch.context() as patch:
                patch.setattr(_AxisLines, "filter", None)
                exact = crofton_upper_estimate(p, box, scheme)
            monkeypatch.setattr(crofton, "_SLAB_LINES", 50)
            assert crofton_upper_estimate(p, box, scheme) == exact

    @pytest.mark.parametrize("seed", [0, 2**63 + 5, -1, 2**70 + 3])
    def test_vectorized_mix64(self, seed):
        counters = [0, 1, 2, 3, 12345, 2**32 + 7, 2**40, 2**63, 2**64 - 2, 2**64 - 1]
        bits = mix64_array(seed, np.array(counters, dtype=np.uint64))
        assert bits.tolist() == [mix64(seed, c) for c in counters]


class TestFilterDeferral:
    """Lines the float filter must leave to the integer path, or decide exactly."""

    @pytest.mark.parametrize(
        "name",
        ["zero_lines", "endpoint_roots_1", "endpoint_roots_2", "double_root", "vanishing_leading"],
    )
    @pytest.mark.parametrize("scheme", [GridScheme(5), MonteCarloScheme(20, seed=11)])
    def test_planted_cases(self, batched, name, scheme):
        p = TestIntegerLinePath().planted(5)[name]
        TestIntegerLinePath().assert_matches_reference(p, ODD_BOX_2, scheme)

    def test_planted_grid_lines_are_decided_exactly(self):
        # Grid numerators stay small, so every float sum is exact: zero lines,
        # endpoint roots and the degree drop are decided by the filter itself.
        planted = TestIntegerLinePath().planted(5)
        for name, k in (("zero_lines", 1), ("endpoint_roots_1", 1), ("vanishing_leading", 1)):
            counts, deferred, exact = filter_verdicts(planted[name], ODD_BOX_2, k, GridScheme(5), 5)
            assert not deferred.any()
            assert counts.tolist() == exact.tolist()
        # a double root inside the interval has two sign variations
        double = planted["double_root"]
        counts, deferred, exact = filter_verdicts(double, ODD_BOX_2, 1, GridScheme(5), 5)
        assert deferred.tolist() == [c == 1 for c in exact.tolist()]

    def test_inexact_sum_with_exact_zero_is_deferred(self):
        # x1 + 3*x2^3 - x2^2 - (3c^3 - c^2) has its root at the lower end
        # x1 = 0 exactly on the Monte Carlo line x2 = c.  There q_0 is an exact
        # zero, but its float sum has terms beyond 2**300 and reads a few units
        # in the last place either side of 0: only the error bound keeps the
        # filter from deciding the line on the sign of a rounding error.
        scheme = MonteCarloScheme(8, seed=21)
        box = Box.cube(0, 1, 2)
        for i, (c,) in enumerate(reference_base_points(box, 1, scheme)):
            p = parse_polynomial("x1 + 3*x2^3 - x2^2", 2) - (3 * c**3 - c**2)
            counts, deferred, exact = filter_verdicts(p, box, 1, scheme, 8)
            assert deferred[i]
            assert exact[i] == 1
            assert list(_line_counts(p, box, 1, scheme, 0, 8))[i] == 1

    def test_grid_sum_past_2_53_is_bounded(self):
        # On grid:4 the axis-1 line x2 = 3/8 has its root at x1 = 0.  The two
        # terms of q_0, near 3 * 2**56, are not float64 integers, so their
        # float sum is 32 where the exact one is 0.
        p = parse_polynomial("x1", 2) - (2**53 + 1) * (parse_polynomial("x2", 2) - Fraction(3, 8))
        counts, deferred, exact = filter_verdicts(p, UNIT_SQUARE, 1, GridScheme(4), 4)
        assert deferred[1] and exact[1] == 1
        assert list(_line_counts(p, UNIT_SQUARE, 1, GridScheme(4), 0, 4))[1] == 1

    def test_overflow_and_nan_are_deferred(self):
        # Powers of a numerator near 2**62 overflow float64: the two terms of
        # the axis-2 line's q_1 are inf and -inf, and their sum is NaN.
        p = parse_polynomial("x1^20*x2 - x1^19*x2 - 1/3", 2)
        lines = _AxisLines(p, UNIT_SQUARE, 2, GridScheme(4))
        counts, deferred = lines.filter.counts(np.array([[2**62, 2**62 - 1, 3]], dtype=np.int64))
        assert deferred.tolist() == [True, True, False]

    def test_numerators_beyond_int64_go_exact(self):
        # Monte Carlo numerators of x1 in [0, 4096] reach 2**65.
        p = parse_polynomial("x1*x2 - 1000", 2)
        box = Box.parse("0,4096;0,1", 2)
        scheme = MonteCarloScheme(80, seed=4)
        assert _AxisLines(p, box, 2, scheme).filter is None
        TestIntegerLinePath().assert_matches_reference(p, box, scheme)

    @pytest.mark.parametrize("scheme", [GridScheme(70), MonteCarloScheme(70, seed=2)])
    def test_huge_coefficient_goes_exact(self, scheme):
        p = Polynomial(2, {(1, 1): 10**400, (0, 0): Fraction(-1, 3)})
        lines = _AxisLines(p, UNIT_SQUARE, 1, scheme)
        assert lines.filter is None
        assert list(_line_counts(p, UNIT_SQUARE, 1, scheme, 0, 70)) == exact_line_counts(
            p, UNIT_SQUARE, 1, scheme, 70
        )

    @pytest.mark.parametrize("scheme", [GridScheme(64), MonteCarloScheme(64, seed=17)])
    def test_high_degree(self, scheme):
        # On the axis-1 line x2 = c the root (1/(3c))^(1/300) is in [0, 1] iff
        # c >= 1/3; on the axis-2 line x1 = c the root 1/(3 c^300) is inside
        # iff c^300 >= 1/3.
        p = parse_polynomial("x1^300*x2 - 1/3", 2)
        assert _AxisLines(p, UNIT_SQUARE, 2, scheme).filter is None  # scale**300 overflows
        for k in (1, 2):
            bases = [c for (c,) in reference_base_points(UNIT_SQUARE, k, scheme)]
            expected = [
                int(c >= Fraction(1, 3)) if k == 1 else int(3 * c**300 >= 1) for c in bases
            ]
            assert list(_line_counts(p, UNIT_SQUARE, k, scheme, 0, 64)) == expected


_coefficients = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.integers(-(10**30), 10**30),
)
_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), _coefficients, min_size=1, max_size=6
)
_intervals = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=9), min_size=2, max_size=2, unique=True
).map(sorted)
_schemes = st.one_of(
    st.builds(GridScheme, st.integers(1, 24)),
    st.builds(MonteCarloScheme, st.integers(1, 40), st.integers(-(2**64), 2**64)),
)


@settings(max_examples=100)
@given(_terms, st.lists(_intervals, min_size=2, max_size=2), _schemes, st.integers(1, 2))
def test_filter_decides_only_exact_counts(terms, intervals, scheme, k):
    """Every line the filter decides has the count `count_int_roots` gives it."""
    p = Polynomial(2, terms)
    if p.is_trivial:
        return
    box = Box(intervals)
    n_points = crofton._lines_per_axis(box, scheme)
    lines = _AxisLines(p, box, k, scheme)
    if lines.filter is None:
        return
    counts, deferred, exact = filter_verdicts(p, box, k, scheme, n_points)
    decided = ~deferred
    assert counts[decided].tolist() == exact[decided].tolist()
