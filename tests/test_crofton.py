import random
from fractions import Fraction

import pytest

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
from zeroset.crofton import _count_range, _line_counts
from zeroset.rng import mix64, unit_fraction
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

    def test_workers_do_not_change_results(self):
        p = parse_polynomial("x1^2*x2 - x2^2 + 1/3", 2)
        grid1 = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(40), workers=1)
        grid3 = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(40), workers=3)
        assert grid1 == grid3
        mc1 = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(3000, seed=7), workers=1)
        mc4 = crofton_upper_estimate(p, UNIT_SQUARE, MonteCarloScheme(3000, seed=7), workers=4)
        assert mc1 == mc4

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
            assert _count_range((p, box, k, scheme, 0, n_points)) == totals
            middle = n_points // 3
            head = _count_range((p, box, k, scheme, 0, middle))
            tail = _count_range((p, box, k, scheme, middle, n_points))
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
