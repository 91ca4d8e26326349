import random
from fractions import Fraction

import pytest

from zeroset import (
    IDENTICALLY_ZERO,
    TrivialPolynomialError,
    UnivariatePolynomial,
    count_real_roots,
    isolate_roots,
    sturm_chain,
)

from zeroset.sturm import count_int_roots

from oracles import bisection_root_count, planted_univariate


class TestSturmChain:
    def test_linear(self):
        chain = sturm_chain(UnivariatePolynomial((Fraction(-1, 2), 1)))
        assert [c.coefficients for c in chain.polys] == [
            (Fraction(-1, 2), Fraction(1)),
            (Fraction(1),),
        ]

    def test_square_deflated(self):
        u = UnivariatePolynomial.from_roots([Fraction(1, 2)], [2])
        chain = sturm_chain(u)
        assert [c.coefficients for c in chain.polys] == [
            (Fraction(-1, 2), Fraction(1)),
            (Fraction(1),),
        ]

    def test_chain_invariants(self):
        rng = random.Random(42)
        for _ in range(50):
            u, _ = planted_univariate(rng, max_degree=8)
            chain = sturm_chain(u).polys
            degrees = [len(c.coefficients) - 1 for c in chain]
            assert degrees == sorted(degrees, reverse=True)
            assert all(a > b for a, b in zip(degrees, degrees[1:]))
            last = chain[-1]
            assert len(chain) == 1 or (len(last.coefficients) == 1 and not last.is_zero)

    def test_zero_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            sturm_chain(UnivariatePolynomial(()))

    def test_variation_count_matches_bisection_oracle(self):
        # random degree-8 polynomials with simple planted roots
        rng = random.Random(4242)
        for _ in range(100):
            u, roots = planted_univariate(rng, max_degree=8, max_multiplicity=1)
            chain = sturm_chain(u)
            half_open = chain.variations_at(Fraction(-10)) - chain.variations_at(Fraction(10))
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


class TestIsolateRoots:
    def test_quadratic(self):
        u = UnivariatePolynomial((Fraction(-1, 4), 0, 1))
        (interval,) = isolate_roots(u, 0, 1)
        assert interval.lo <= Fraction(1, 2) <= interval.hi

    def test_cubic(self):
        u = UnivariatePolynomial.from_roots([-1, 0, 1])
        intervals = isolate_roots(u, -2, 2)
        assert len(intervals) == 3
        for interval, root in zip(intervals, (-1, 0, 1)):
            assert interval.lo <= root <= interval.hi

    def test_zero_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            isolate_roots(UnivariatePolynomial(()), 0, 1)

    def test_planted_roots_isolated(self):
        rng = random.Random(99)
        for _ in range(100):
            u, roots = planted_univariate(rng, max_degree=10)
            lo, hi = Fraction(-50), Fraction(50)
            intervals = isolate_roots(u, lo, hi)
            inside = [r for r in roots if lo <= r <= hi]
            assert len(intervals) == len(inside)
            assert len(intervals) == count_real_roots(u, lo, hi).count
            for interval, root in zip(intervals, inside):
                assert interval.lo <= root <= interval.hi
                if interval.exact is not None:
                    assert interval.exact == root
            # pairwise disjoint, in increasing order
            for a, b in zip(intervals, intervals[1:]):
                assert a.hi < b.lo

    def test_exact_endpoint_root(self):
        u = UnivariatePolynomial.from_roots([0, Fraction(2, 3)])
        intervals = isolate_roots(u, 0, 1)
        assert len(intervals) == 2
        assert intervals[0].exact == 0
