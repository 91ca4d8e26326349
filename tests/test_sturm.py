import bisect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from zeroset import IDENTICALLY_ZERO, UnivariatePolynomial, count_real_roots

from zeroset.sturm import _int_chain, _variations_at, count_int_roots

from oracles import bisection_root_count, expand_factors, planted_univariate


def _ratio(x, k=1) -> tuple[int, int]:
    """x as a (numerator, denominator) pair, unreduced by the factor k."""
    x = Fraction(x)
    return x.numerator * k, x.denominator * k


def _ints(u: UnivariatePolynomial) -> list[int]:
    """Coefficients of an integer-coefficient polynomial as a list of ints."""
    return [int(v) for v in u.coefficients]


class TestSturmChain:
    def test_linear(self):
        assert _int_chain([-1, 2]) == [[-1, 2], [1]]

    def test_square_deflated(self):
        # 4 (t - 1/2)^2: the chain is that of its square-free part 2t - 1
        assert _int_chain([1, -4, 4]) == [[-1, 2], [1]]

    def test_chain_invariants(self):
        rng = random.Random(42)
        for _ in range(50):
            u, _ = planted_univariate(rng, max_degree=8)
            chain = _int_chain(_ints(u))
            degrees = [len(c) - 1 for c in chain]
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            last = chain[-1]
            assert len(chain) == 1 or (len(last) == 1 and last[0] != 0)

    def test_variation_count_matches_bisection_oracle(self):
        # random degree-8 polynomials with simple planted roots
        rng = random.Random(4242)
        for _ in range(100):
            u, roots = planted_univariate(rng, max_degree=8, max_multiplicity=1)
            chain = _int_chain(_ints(u))
            half_open = _variations_at(chain, (-10, 1)) - _variations_at(chain, (10, 1))
            assert half_open == sum(1 for r in roots if -10 < r <= 10)
            closed = count_real_roots(u, -10, 10).count
            assert closed == bisection_root_count(u, -10, 10, depth=400)
            assert closed == sum(1 for r in roots if -10 <= r <= 10)


class TestCountRealRoots:
    def test_quadratic(self):
        u = UnivariatePolynomial((Fraction(-1, 4), 0, 1))
        assert count_real_roots(u, 0, 1).count == 1

    def test_zero_polynomial(self):
        assert count_real_roots(UnivariatePolynomial(()), 0, 1) is IDENTICALLY_ZERO
        assert count_real_roots(UnivariatePolynomial(()), 0, 1).identically_zero

    def test_factored_cubic(self):
        u = UnivariatePolynomial.from_roots([Fraction(1, 4), Fraction(3, 4), Fraction(5)])
        assert u.evaluate(Fraction(1, 4)) == 0
        assert count_real_roots(u, 0, 1).count == 2

    def test_constant(self):
        assert count_real_roots(UnivariatePolynomial((3,)), 0, 1).count == 0

    def test_malformed_interval(self):
        u = UnivariatePolynomial((1, 1))
        with pytest.raises(ValueError):
            count_real_roots(u, 1, 0)
        with pytest.raises(ValueError):
            count_real_roots(u, 1, 1)

    @pytest.mark.parametrize(
        "roots,mults,lo,hi,expected",
        [
            ([0, 1], [1, 1], 0, 1, 2),  # both endpoints are roots
            ([Fraction(1, 2)], [1], Fraction(1, 2), 1, 1),  # root at left endpoint
            ([Fraction(1, 2)], [1], 0, Fraction(1, 2), 1),  # root at right endpoint
            ([0], [2], 0, 1, 1),  # multiple root at endpoint, counted once
            ([0, Fraction(1, 3), 1], [3, 2, 1], 0, 1, 3),
        ],
    )
    def test_endpoint_conventions(self, roots, mults, lo, hi, expected):
        u = UnivariatePolynomial.from_roots(roots, mults)
        assert count_real_roots(u, lo, hi).count == expected

    def test_count_bounded_by_degree(self):
        rng = random.Random(77)
        for _ in range(200):
            u, _ = planted_univariate(rng)
            outcome = count_real_roots(u, -50, 50)
            assert outcome.count <= u.degree

    def test_planted_corpus(self):
        # smaller sibling of the acceptance-scale oracle suite
        rng = random.Random(2024)
        lo, hi = Fraction(-10), Fraction(10)
        for _ in range(1000):
            u, roots = planted_univariate(rng)
            expected = sum(1 for r in roots if lo <= r <= hi)
            assert count_real_roots(u, lo, hi).count == expected


class TestCountIntRoots:
    def test_degrees_zero_and_one(self):
        assert count_int_roots([], (0, 1), (1, 1)) is None
        assert count_int_roots([0, 0, 0], (0, 1), (1, 1)) is None
        assert count_int_roots([-5, 0], (0, 1), (1, 1)) == 0
        # 3t - 1 at t = 1/3, given as the unreduced interval [2/6, 4/6] and [0, 3/9]
        assert count_int_roots([-1, 3, 0], (2, 6), (4, 6)) == 1
        assert count_int_roots([-1, 3], (0, 1), (3, 9)) == 1
        assert count_int_roots([-1, 3], (1, 2), (1, 1)) == 0
        assert count_int_roots([1, 3], (0, 1), (1, 1)) == 0

    def test_matches_rational_counts(self):
        # positive integer multiples of planted polynomials, padded with zeros
        rng = random.Random(4049)
        ratio = lambda x: (x.numerator * 3, x.denominator * 3)  # unreduced on purpose
        for _ in range(300):
            u, _ = planted_univariate(rng, max_degree=6)
            lo = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 8))
            scale = rng.randint(1, 10**6)
            c = [int(v) * scale for v in u.coefficients] + [0] * rng.randint(0, 2)
            assert count_int_roots(c, ratio(lo), ratio(hi)) == count_real_roots(u, lo, hi).count

    def test_quadratics_match_sympy_real_roots(self):
        # Every a != 0, b, c in [-4, 4]; the endpoints are a fixed set plus the
        # polynomial's own rational roots and vertex, given unreduced, with
        # trailing zero padding on some lines.  sympy's exact real roots are
        # the oracle, each placed among the endpoints by exact comparisons.
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        fixed = {Fraction(v) for v in (-3, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(5, 2))}
        hits = {"root": 0, "double root": 0, "vertex": 0}
        for a, b, c in itertools.product(range(-4, 5), repeat=3):
            if a == 0:
                continue
            roots = set(sympy.real_roots(sympy.Poly([a, b, c], t)))  # distinct
            rational = {Fraction(int(r.p), int(r.q)) for r in roots if r.is_Rational}
            vertex = Fraction(-b, 2 * a)
            points = sorted(fixed | rational | {vertex})
            exact = [sympy.Rational(x.numerator, x.denominator) for x in points]
            # (points below r, points at or below r): r is in [points[i], points[j]]
            # iff right > i and left <= j.  An irrational root equals no point.
            ranks = []
            for r in roots:
                if r.is_Rational:
                    x = Fraction(int(r.p), int(r.q))
                    ranks.append((bisect.bisect_left(points, x), bisect.bisect_right(points, x)))
                else:
                    ranks.append((bisect.bisect_left(exact, r),) * 2)
            for (i, lo), (j, hi) in itertools.combinations(enumerate(points), 2):
                lo_r, hi_r = _ratio(lo, 1 + (i + j) % 3), _ratio(hi, 1 + j % 2)
                expected = sum(1 for left, right in ranks if right > i and left <= j)
                padded = [c, b, a] + [0] * ((i + j) % 2)
                assert count_int_roots(padded, lo_r, hi_r) == expected, (a, b, c, lo, hi)
                hits["root"] += lo in rational or hi in rational
                hits["double root"] += b * b == 4 * a * c and vertex in (lo, hi)
                hits["vertex"] += vertex in (lo, hi)
        assert min(hits.values()) > 0, hits

    @pytest.mark.parametrize(
        "factors,roots,lo,hi",
        [
            # t^2 (2t^2 - 1): double root at lo, and 1/sqrt(2) inside
            ([([0, 1], 2), ([-1, 0, 2], 1)], [0, -(2**-0.5), 2**-0.5], (0, 1), (1, 1)),
            ([([0, 1], 3)], [0], (0, 1), (1, 1)),
            # (t - 1)^2 (2t - 1): double root at hi
            ([([-1, 1], 2), ([-1, 2], 1)], [1, Fraction(1, 2)], (0, 1), (1, 1)),
            ([([-1, 1], 2), ([-1, 2], 1)], [1, Fraction(1, 2)], (1, 1), (2, 1)),
            # (3t - 1)^2 (t + 5) on the unreduced [2/6, 9/6]
            ([([-1, 3], 2), ([5, 1], 1)], [Fraction(1, 3), -5], (2, 6), (9, 6)),
            # (t - 1)^2 (t + 1)^2: double roots at both endpoints
            ([([-1, 1], 2), ([1, 1], 2)], [1, -1], (-3, 3), (2, 2)),
            # t^2 (t - 1)^3 (t^2 + 1)
            ([([0, 1], 2), ([-1, 1], 3), ([1, 0, 1], 1)], [0, 1], (0, 1), (1, 1)),
            # degree-2 double roots on either endpoint
            ([([-1, 2], 2)], [Fraction(1, 2)], (1, 2), (4, 4)),
            ([([-1, 2], 2)], [Fraction(1, 2)], (0, 1), (2, 4)),
        ],
    )
    def test_repeated_root_on_endpoint(self, factors, roots, lo, hi):
        c = expand_factors(factors)
        expected = sum(1 for r in roots if Fraction(*lo) <= r <= Fraction(*hi))
        assert count_int_roots(c, lo, hi) == expected
        assert count_int_roots(c + [0, 0], lo, hi) == expected
        assert count_int_roots([-v for v in c], lo, hi) == expected


# Polynomials with planted roots on a grid of sixths, so that roots often
# land on the sampled interval ends and split points.
_sixths = st.integers(-18, 18).map(lambda k: Fraction(k, 6))
_planted = st.builds(
    lambda roots, rest: expand_factors([([-n, d], 1) for n, d in roots] + [(rest, 1)]),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
)
_polys = st.one_of(_planted, st.lists(st.integers(-20, 20), min_size=1, max_size=6))


def _at(c, x: Fraction) -> Fraction:
    return sum(v * x**i for i, v in enumerate(c))


class TestCountIntRootsProperties:
    @given(_polys, st.lists(_sixths, min_size=3, max_size=3, unique=True), st.integers(1, 3))
    def test_additive_over_split(self, c, points, k):
        assume(any(c))
        lo, m, hi = sorted(points)
        whole = count_int_roots(c, _ratio(lo, k), _ratio(hi))
        left = count_int_roots(c, _ratio(lo), _ratio(m, k))
        right = count_int_roots(c, _ratio(m), _ratio(hi, k))
        assert whole == left + right - (_at(c, m) == 0)

    @given(_polys, st.lists(_sixths, min_size=2, max_size=2, unique=True), st.integers(1, 10**6))
    def test_positive_scaling(self, c, points, scale):
        assume(any(c))
        lo, hi = map(_ratio, sorted(points))
        assert count_int_roots([scale * v for v in c], lo, hi) == count_int_roots(c, lo, hi)

    @given(_polys, st.lists(_sixths, min_size=2, max_size=2, unique=True))
    def test_reflection(self, c, points):
        assume(any(c))
        lo, hi = sorted(points)
        mirrored = [v if i % 2 == 0 else -v for i, v in enumerate(c)]
        reflected = count_int_roots(mirrored, _ratio(-hi), _ratio(-lo))
        assert reflected == count_int_roots(c, _ratio(lo), _ratio(hi))
