import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeroset import (
    Box,
    GridScheme,
    TrivialPolynomialError,
    crofton_upper_estimate,
    measure,
    parse_polynomial,
    theorem_bound,
)
from zeroset import cli, crofton
from zeroset.crofton import MonteCarloScheme, _AxisLines
from zeroset.polynomial import Polynomial
from zeroset.rng import mix64_array

from oracles import (
    Poly,
    UnivariatePolynomial,
    count_real_roots,
    line_count,
    line_counts,
    mix64,
    planted_univariate,
    random_polynomial,
    restrict_to_line,
    scale_vars,
    shift,
    swap_axes,
    unit_fraction,
)

UNIT_SQUARE = Box.cube(0, 1, 2)
BIG_SQUARE = Box.cube(-1, 1, 2)


class TestBox:
    def test_parse_cube_shorthand(self):
        box = Box.parse("0,1", 3)
        assert box.dimension == 3 and box.intervals == ((Fraction(0), Fraction(1)),) * 3

    def test_parse_general(self):
        box = Box.parse("0,1;-1/2,1/2", 2)
        assert box.intervals == ((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(1, 2)))
        assert box.volume == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box(((1, 1),))
        with pytest.raises(ValueError):
            Box.parse("1,0", 1)

    def test_project(self):
        box = Box.parse("0,1;2,3;4,5", 3)
        assert box.project(2).intervals == ((Fraction(0), Fraction(1)), (Fraction(4), Fraction(5)))


class TestSchemes:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridScheme(0)
        with pytest.raises(ValueError):
            MonteCarloScheme(0)

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
            theorem_bound(Poly.zero(2), UNIT_SQUARE)

    def test_non_cube_rejected(self):
        assert theorem_bound(parse_polynomial("x1", 2), Box.parse("0,1;0,2", 2)) == 2

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
        estimate = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(256)).per_axis[0]
        assert estimate.exact == 1
        assert estimate.estimate == 1.0

    def test_line_across_axis(self):
        p = parse_polynomial("x1 - 1/2", 2)
        estimate = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(256)).per_axis[1]
        assert estimate.exact == 0
        assert estimate.degenerate_lines_hit == 0

    def test_degenerate_line_sampled(self):
        # with an odd midpoint count the base 1/2 is hit exactly
        p = parse_polynomial("x1 - 1/2", 2)
        for n in (1, 3):
            estimate = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(n)).per_axis[1]
            assert estimate.degenerate_lines_hit == 1
            assert estimate.exact == 0

    def test_circle_closed_form(self):
        # integrand is 2 on |y| < 1/2, 0 outside: the integral is exactly 2
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        estimate = crofton_upper_estimate(p, BIG_SQUARE, GridScheme(1024)).per_axis[0]
        assert estimate.exact == 2

    def test_grid_ceiling(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_polynomial(rng, 2, 3)
            k = rng.randint(1, 2)
            estimate = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(16)).per_axis[k - 1]
            assert estimate.exact <= p.degree_in(k) * 1  # projected volume is 1


class TestUpperEstimate:
    def test_equality_case(self):
        p = parse_polynomial("x1 - 1/2", 2)
        result = crofton_upper_estimate(p, UNIT_SQUARE, GridScheme(256))
        assert result.total == 1.0
        assert result.total_exact == 1
        assert theorem_bound(p, UNIT_SQUARE) == 1

    def test_circle(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        result = crofton_upper_estimate(p, BIG_SQUARE, GridScheme(256))
        assert result.total_exact == 4
        assert theorem_bound(p, BIG_SQUARE) == 8

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
        box = Box.parse("0,1;0,2", 2)
        result = crofton_upper_estimate(p, box, GridScheme(16))
        assert result.total_exact <= theorem_bound(p, box) == 3

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            crofton_upper_estimate(Poly.zero(2), UNIT_SQUARE, GridScheme(4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            crofton_upper_estimate(parse_polynomial("x1", 3), UNIT_SQUARE, GridScheme(64))

    def test_d1_convention(self):
        p = parse_polynomial("x1^2 - 1/4", 1)
        result = crofton_upper_estimate(p, Box.cube(0, 1, 1), GridScheme(7))
        assert result.total == 1.0  # the single root count
        assert theorem_bound(p, Box.cube(0, 1, 1)) == 2

    def test_grid_total_never_exceeds_bound(self):
        rng = random.Random(233)
        for _ in range(30):
            d = rng.randint(2, 3)
            p = random_polynomial(rng, d, 3)
            cube = Box.cube(0, 1, d)
            result = crofton_upper_estimate(p, cube, GridScheme(8 if d == 3 else 24))
            assert result.total_exact <= theorem_bound(p, cube)

    def test_monte_carlo_never_exceeds_bound(self):
        rng = random.Random(234)
        for seed in (1, 2, 3):
            p = random_polynomial(rng, 2, 3)
            result = crofton_upper_estimate(
                p, UNIT_SQUARE, MonteCarloScheme(500, seed=seed)
            )
            assert result.total - result.total_error_halfwidth <= theorem_bound(p, UNIT_SQUARE)
            assert result.total_exact <= theorem_bound(p, UNIT_SQUARE)
            for e in result.per_axis:
                assert e.estimate <= p.degree_in(e.axis) * 1 + e.error_halfwidth


class TestFloatRange:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_volumes_below_2_to_1000_are_taken(self, d):
        # Sides of 2**(999 // (d - 1)): every width and projected volume is
        # below 2**1000, and every reported float is finite.
        p = parse_polynomial("*".join(f"x{k}^3" for k in range(1, d + 1)) + " - 1", d)
        box = Box.cube(0, 2 ** (999 // max(d - 1, 1)), d)
        crofton.check_crofton(p, box)
        for scheme in (GridScheme(2), MonteCarloScheme(3)):
            result = crofton_upper_estimate(p, box, scheme)
            assert math.isfinite(result.total)
            assert math.isfinite(result.total_error_halfwidth)

    def test_d1_reports_no_width(self):
        # In d = 1 the base is a point: its volume is 1, whatever the interval.
        box = Box(((0, 10**400),))
        crofton.check_crofton(parse_polynomial("x1 - 7", 1), box)
        assert crofton_upper_estimate(parse_polynomial("x1 - 7", 1), box, GridScheme(1)).total == 1

    @pytest.mark.parametrize(
        "poly, d, box",
        [
            ("x1*x2 - 1", 2, "0,1e400"),  # a width
            ("x1 + x2 + x3", 3, "0,1e200;0,1e200;0,1e-300"),  # a projected volume
            ("x1 + x2^1048576", 2, f"0,{2**1010};0,1"),  # deg_2 * vol_2
            ("x1*x2 - 1", 2, f"0,{2**1023};0,1"),  # a Monte Carlo half-width 1.36 * 2**1023
        ],
        ids=["width", "volume", "degree", "half-width"],
    )
    def test_floats_beyond_float64_rejected(self, poly, d, box):
        p, box = parse_polynomial(poly, d), Box.parse(box, d)
        with pytest.raises(ValueError, match="float64"):
            crofton.check_crofton(p, box)
        with pytest.raises(ValueError, match="float64"):
            crofton_upper_estimate(p, box, MonteCarloScheme(2))

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
ODD_BOX_4 = Box.parse("-1/3,5/7;1/2,9/4;-2,-1/5;1/9,7/3", 4)


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
                count_real_roots(restrict_to_line(p, k, base), lo, hi).count
                for base in reference_base_points(box, k, scheme)
            ]
            n_points = len(expected)
            assert line_counts(p, box, k, scheme) == expected
            finite = [c for c in expected if c is not None]
            totals = (sum(finite), n_points - len(finite))
            assert _AxisLines(p, box, k, scheme).count() == totals

    @pytest.mark.parametrize(
        "box,schemes",
        [
            (ODD_BOX_2, (GridScheme(7), MonteCarloScheme(12, seed=3))),
            (ODD_BOX_3, (GridScheme(3), MonteCarloScheme(6, seed=4))),
            (Box.cube(0, 1, 2), (GridScheme(5), MonteCarloScheme(10, seed=5))),
            (ODD_BOX_4, (MonteCarloScheme(8, seed=6),)),  # m = 3 base axes per draw
        ],
    )
    def test_random_sparse_polynomials(self, box, schemes):
        rng = random.Random(box.dimension * 1009 + len(str(box)))
        for _ in range(12):
            p = random_polynomial(rng, box.dimension, 4)
            for scheme in schemes:
                self.assert_matches_reference(p, box, scheme)

    def planted(self, n):
        x1 = Poly.parse("x1", 2)
        x2 = Poly.parse("x2", 2)
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
        lines = lambda p, k: line_counts(p, ODD_BOX_2, k, GridScheme(n))
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
                    lines = _AxisLines(p, box, k, scheme)
                    n_points = lines.lines
                    expected = exact_line_counts(p, box, k, scheme, n_points)
                    assert line_counts(p, box, k, scheme) == expected
                    finite = [c for c in expected if c is not None]
                    totals = (sum(finite), n_points - len(finite))
                    assert lines.count() == totals

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
            p = Poly.parse("x1 + 3*x2^3 - x2^2", 2) - (3 * c**3 - c**2)
            counts, deferred, exact = filter_verdicts(p, box, 1, scheme, 8)
            assert deferred[i]
            assert exact[i] == 1
            assert line_counts(p, box, 1, scheme)[i] == 1

    def test_grid_sum_past_2_53_is_bounded(self):
        # On grid:4 the axis-1 line x2 = 3/8 has its root at x1 = 0.  The two
        # terms of q_0, near 3 * 2**56, are not float64 integers, so their
        # float sum is 32 where the exact one is 0.
        p = Poly.parse("x1", 2) - (2**53 + 1) * (Poly.parse("x2", 2) - Fraction(3, 8))
        counts, deferred, exact = filter_verdicts(p, UNIT_SQUARE, 1, GridScheme(4), 4)
        assert deferred[1] and exact[1] == 1
        assert line_counts(p, UNIT_SQUARE, 1, GridScheme(4))[1] == 1

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
        assert line_counts(p, UNIT_SQUARE, 1, scheme) == exact_line_counts(
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
            assert line_counts(p, UNIT_SQUARE, k, scheme) == expected

    @pytest.mark.parametrize(
        "text,box,count,deferred",
        [
            # roots 0, 1/3, 2/3, 1: both ends and two inside, so q has V = 2
            ("x1^4 - 2*x1^3 + 11/9*x1^2 - 2/9*x1", "0,1", 4, True),
            # on [1/3, 1] only 2/3 is inside: V = 1, decided by the filter
            ("x1^4 - 2*x1^3 + 11/9*x1^2 - 2/9*x1", "1/3,1;0,1", 3, False),
            # roots -1, -1/3, 1/3, 1
            ("x1^4 - 10/9*x1^2 + 1/9", "-1,1", 4, True),
        ],
    )
    @pytest.mark.parametrize("scheme", [GridScheme(4), MonteCarloScheme(6, seed=3)])
    def test_roots_on_both_ends_and_inside(self, text, box, count, deferred, scheme):
        # A deferred line's exact count needs both end terms, [q_0 = 0] and
        # [q_kappa = 0], next to Sturm's V.
        p = parse_polynomial(text, 2)
        box = Box.parse(box, 2)
        n_points = len(reference_base_points(box, 1, scheme))
        _, verdicts, exact = filter_verdicts(p, box, 1, scheme, n_points)
        assert verdicts.tolist() == [deferred] * n_points
        assert exact.tolist() == [count] * n_points
        for k in (1, 2):
            bases = reference_base_points(box, k, scheme)
            assert line_counts(p, box, k, scheme) == [line_count(p, box, k, b).count for b in bases]


def test_monomial_values_exact_in_ints_and_below_2_53_in_floats():
    """The one evaluator gives Python ints in object dtype, and float64 values
    that equal them wherever the exact value is below 2**53 (`_EXACT_BELOW`)."""
    rng = random.Random(37)
    for _ in range(60):
        axes, lines = rng.randint(1, 3), 12
        monomials = list(dict.fromkeys(
            tuple((i, rng.randint(1, 5)) for i in sorted(rng.sample(range(axes), rng.randint(0, axes))))
            for _ in range(6)
        ))
        numerators = [
            [rng.choice((-1, 1)) * rng.randrange(1 << rng.choice((4, 12, 30, 70))) for _ in range(lines)]
            for _ in range(axes)
        ]
        exact = [[math.prod(numerators[i][c] ** e for i, e in mono) for c in range(lines)]
                 for mono in monomials]
        ints = crofton._monomial_values(monomials, np.array(numerators, dtype=object))
        assert all(type(v) is int for v in ints.flat)
        assert ints.tolist() == exact
        with np.errstate(over="ignore", invalid="ignore"):
            floats = crofton._monomial_values(monomials, np.array(numerators, dtype=np.float64))
        assert floats.dtype == np.float64
        for row, exact_row in zip(floats.tolist(), exact):
            for value, want in zip(row, exact_row):
                if abs(want) < crofton._EXACT_BELOW:
                    assert value == want


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
    """Every line the filter decides has the count `exact_counts` gives it: the
    same rule, with V from Sturm's count of the distinct positive roots of the
    exact Möbius image q, and the box ends from q_0 and q_kappa."""
    p = Polynomial(2, terms)
    if p.is_trivial:
        return
    box = Box(intervals)
    lines = _AxisLines(p, box, k, scheme)
    n_points = lines.lines
    if lines.filter is None:
        return
    counts, deferred, exact = filter_verdicts(p, box, k, scheme, n_points)
    decided = ~deferred
    assert counts[decided].tolist() == exact[decided].tolist()



_d1_intervals = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
    st.fractions(min_value=Fraction(1, 8), max_value=12, max_denominator=8),
)


@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    _d1_intervals,
    st.sampled_from(["repeated roots", "roots on both ends", "perturbed"]),
    _schemes,
)
def test_d1_batch_counter_matches_oracle(seed, interval, case, scheme):
    """In d = 1 the one line of the batch counter has the Fraction reference's count."""
    rng = random.Random(seed)
    u, roots = planted_univariate(rng, max_degree=10, max_multiplicity=3)
    lo, width = interval
    hi = lo + width
    if case == "roots on both ends" and roots:
        lo = roots[0] if len(roots) == 1 else rng.choice(roots[:-1])
        hi = rng.choice([r for r in roots if r > lo] or [lo + width])
    coefficients = list(u.coefficients)
    if case == "perturbed":
        i = rng.randrange(len(coefficients))
        coefficients[i] += Fraction(rng.choice((-1, 1)), 10 ** rng.randint(1, 12))
    u = UnivariatePolynomial(coefficients)
    expected = count_real_roots(u, lo, hi).count
    if case != "perturbed":
        assert expected == sum(1 for r in roots if lo <= r <= hi)
    p = Polynomial(1, {(i,): c for i, c in enumerate(u.coefficients)})
    box = Box([(lo, hi)])
    estimate = crofton_upper_estimate(p, box, scheme).per_axis[0]
    assert estimate.exact == expected
    assert (estimate.error_halfwidth, estimate.degenerate_lines_hit) == (0.0, 0)
    assert measure(p, box, 1).value == expected

def _polynomials(d):
    """Sparse nonzero polynomials in d variables, of degree at most 3 in each."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * d),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        min_size=1,
        max_size=5,
    ).map(lambda terms: Polynomial(d, terms)).filter(lambda p: not p.is_trivial)


def _boxes(d):
    return st.lists(_intervals, min_size=d, max_size=d).map(Box)


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(lambda d: st.tuples(_polynomials(d), _boxes(d), _intervals)),
    st.one_of(
        st.builds(GridScheme, st.integers(1, 4)),
        st.builds(MonteCarloScheme, st.integers(1, 30), st.integers(0, 2**64)),
    ),
)
def test_estimates_within_box_bound(problem, scheme):
    """Axis k integrates at most deg_k roots per line over the projected box."""
    p, box, (a, b) = problem
    result = crofton_upper_estimate(p, box, scheme)
    for e in result.per_axis:
        lo, hi = box.interval(e.axis)
        assert e.exact <= p.degree_in(e.axis) * box.volume / (hi - lo)
    assert result.total_exact <= theorem_bound(p, box)
    # The paper's statement: on a cube of side r the bound is (sum_k deg_k) * r^(d-1).
    d = box.dimension
    degrees = sum(p.degree_in(k) for k in range(1, d + 1))
    assert theorem_bound(p, Box.cube(a, b, d)) == degrees * (b - a) ** (d - 1)


# Exact metamorphic relations of the per-axis integrals on non-cube boxes.
# Estimates are exact rationals, so each relation holds with ==.
def _problems(d):
    return st.tuples(_polynomials(d), _boxes(d).filter(lambda b: len(set(b.intervals)) > 1))


_metamorphic_problems = st.sampled_from([2, 3]).flatmap(_problems)
_small_grids = st.builds(GridScheme, st.integers(1, 6))
_small_schemes = st.one_of(
    _small_grids, st.builds(MonteCarloScheme, st.integers(1, 30), st.integers(0, 2**64))
)


def _exact_per_axis(p, box, scheme):
    return [e.exact for e in crofton_upper_estimate(p, box, scheme).per_axis]


class TestMetamorphic:
    @settings(max_examples=30)
    @given(_metamorphic_problems, _small_grids)
    def test_reversing_variables_reverses_axes(self, problem, scheme):
        p, box = problem
        reversed_box = Box(box.intervals[::-1])
        assert _exact_per_axis(swap_axes(p), reversed_box, scheme) == (
            _exact_per_axis(p, box, scheme)[::-1]
        )

    @settings(max_examples=30)
    @given(_metamorphic_problems, _small_grids)
    def test_reflecting_x1_keeps_every_axis(self, problem, scheme):
        # q(x) = p(a1 + b1 - x1, x2, ...): negate x1, then shift it by a1 + b1.
        p, box = problem
        (a, b), d = box.intervals[0], box.dimension
        negated = Polynomial(d, {e: c * (-1) ** e[0] for e, c in p.terms.items()})
        q = shift(negated, (a + b,) + (0,) * (d - 1))
        assert _exact_per_axis(q, box, scheme) == _exact_per_axis(p, box, scheme)

    @settings(max_examples=30)
    @given(
        _metamorphic_problems,
        _small_schemes,
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6),
    )
    def test_scaling_scales_every_axis(self, problem, scheme, s):
        # q(x) = p(x / s) on s*B: each axis integral gains exactly s^(d-1).
        p, box = problem
        scaled = Box([(s * a, s * b) for a, b in box.intervals])
        factor = s ** (box.dimension - 1)
        assert _exact_per_axis(scale_vars(p, s), scaled, scheme) == [
            factor * e for e in _exact_per_axis(p, box, scheme)
        ]
