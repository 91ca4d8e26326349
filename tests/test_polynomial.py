import random
from fractions import Fraction

import pytest

from zeroset import ParseError, TrivialPolynomialError, parse_polynomial
from zeroset.polynomial import Polynomial

from oracles import (
    Poly,
    UnivariatePolynomial,
    assert_canonical,
    evaluate,
    naive_evaluate,
    random_point,
    random_polynomial,
    restrict_to_line,
)


class TestParsing:
    def test_basic_terms(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        assert p.terms == {(1, 1): Fraction(1), (0, 0): Fraction(-1, 4)}

    def test_zero_polynomial(self):
        p = parse_polynomial("0", 3)
        assert p.is_trivial
        assert p.terms == {}

    def test_expansion_matches_product(self):
        expanded = parse_polynomial("x1^2 + 2*x1 + 1", 1)
        factor = Poly.parse("x1 + 1", 1)
        assert expanded == factor * factor

    def test_decimal_literals_exact(self):
        assert parse_polynomial("0.25", 1).terms == {(0,): Fraction(1, 4)}
        assert parse_polynomial("1.5*x1", 1).terms == {(1,): Fraction(3, 2)}

    def test_leading_sign_and_collection(self):
        assert parse_polynomial("-x1 + 1", 1) == parse_polynomial("1 - x1", 1)
        assert parse_polynomial("x1 - x1", 1).is_trivial

    def test_repeated_factors_multiply(self):
        assert parse_polynomial("x1*x1*x2", 2).terms == {(2, 1): Fraction(1)}

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + @", 1)
        assert err.value.position == 5

    def test_variable_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_polynomial("x3", 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_polynomial("x0", 2)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_polynomial("x1^-2", 1)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="positive"):
            parse_polynomial("1/0", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 x2", 2)

    def test_roundtrip_through_str(self):
        rng = random.Random(101)
        for _ in range(50):
            p = random_polynomial(rng, rng.randint(1, 3), 3)
            assert parse_polynomial(str(p), p.dimension) == p


class TestDegree:
    def test_examples(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        assert p.degree_in(1) == 1
        q = parse_polynomial("x1^3 + x1*x2^2", 2)
        assert q.degree_in(2) == 2

    def test_trivial_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            Poly.zero(2).degree_in(1)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            parse_polynomial("x1", 1).degree_in(2)

    def test_additivity_on_products(self):
        rng = random.Random(202)
        for _ in range(40):
            d = rng.randint(1, 3)
            a = random_polynomial(rng, d, 3)
            b = random_polynomial(rng, d, 3)
            product = a * b
            assert_canonical(product)
            for k in range(1, d + 1):
                assert product.degree_in(k) == a.degree_in(k) + b.degree_in(k)


class TestEvaluate:
    def test_point_on_zero_set(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        assert evaluate(p, (Fraction(1, 2), Fraction(1, 2))) == 0

    def test_zero_polynomial(self):
        assert evaluate(Poly.zero(3), (1, 2, 3)) == 0

    def test_against_naive_oracle(self):
        rng = random.Random(303)
        for _ in range(60):
            d = rng.randint(1, 4)
            p = random_polynomial(rng, d, 4)
            x = random_point(rng, d)
            assert evaluate(p, x) == naive_evaluate(p, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(parse_polynomial("x1", 1), (1, 2))


class TestRestriction:
    def test_circle_vertical_line(self):
        p = parse_polynomial("x1^2 + x2^2 - 1/4", 2)
        u = restrict_to_line(p, 1, (Fraction(0),))
        assert u == UnivariatePolynomial((Fraction(-1, 4), 0, 1))

    def test_line_inside_zero_set(self):
        p = parse_polynomial("x1 - 1/2", 2)
        assert restrict_to_line(p, 2, (Fraction(1, 2),)).is_zero

    def test_hyperbola(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        u = restrict_to_line(p, 1, (Fraction(1, 2),))
        assert u == UnivariatePolynomial((Fraction(-1, 4), Fraction(1, 2)))

    def test_commutes_with_evaluation(self):
        rng = random.Random(404)
        for _ in range(60):
            d = rng.randint(2, 4)
            p = random_polynomial(rng, d, 3)
            k = rng.randint(1, d)
            base = random_point(rng, d - 1)
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            point = base[: k - 1] + (t,) + base[k - 1 :]
            assert restrict_to_line(p, k, base).evaluate(t) == evaluate(p, point)


class TestCoefficientsIn:
    def test_hyperbola(self):
        p = parse_polynomial("x1*x2 - 1/4", 2)
        q0, q1 = p.coefficients_in(2)
        assert q0 == Polynomial(1, {(0,): Fraction(-1, 4)})
        assert q1 == Polynomial(1, {(1,): 1})

    def test_degree_zero_in_axis(self):
        p = parse_polynomial("x1^2 + 1", 2)
        (q0,) = p.coefficients_in(2)
        assert q0 == Polynomial(1, {(2,): 1, (0,): 1})

    def test_recombination(self):
        rng = random.Random(505)
        for _ in range(40):
            d = rng.randint(1, 4)
            p = random_polynomial(rng, d, 4)
            k = rng.randint(1, d)
            coefficients = p.coefficients_in(k)
            assert not coefficients[-1].is_trivial
            rebuilt: dict = {}
            for j, q in enumerate(coefficients):
                for e, c in q.terms.items():
                    lifted = e[: k - 1] + (j,) + e[k - 1 :]
                    rebuilt[lifted] = c
            assert Polynomial(d, rebuilt) == p

    def test_trap_set_equivalence(self):
        # restriction is identically zero iff every coefficient vanishes at base
        rng = random.Random(606)
        planted = Poly.parse("x1 - 1/2", 2) * Poly.parse("x2 + x1", 2)
        assert restrict_to_line(planted, 2, (Fraction(1, 2),)).is_zero
        for _ in range(40):
            d = rng.randint(2, 3)
            p = random_polynomial(rng, d, 3)
            k = rng.randint(1, d)
            base = random_point(rng, d - 1)
            all_vanish = all(evaluate(q, base) == 0 for q in p.coefficients_in(k))
            assert restrict_to_line(p, k, base).is_zero == all_vanish


class TestCanonicalClosure:
    def test_arithmetic_stays_canonical(self):
        rng = random.Random(707)
        for _ in range(40):
            d = rng.randint(1, 3)
            a = random_polynomial(rng, d, 3)
            b = random_polynomial(rng, d, 3)
            for result in (a + b, a - b, a * b, -a, a - a):
                assert_canonical(result)
        assert (a - a).is_trivial


class TestUnivariate:
    def test_trailing_zeros_stripped(self):
        assert UnivariatePolynomial((1, 2, 0, 0)).coefficients == (1, 2)
        assert UnivariatePolynomial((0, 0)).is_zero

    def test_degree_of_zero_rejected(self):
        with pytest.raises(TrivialPolynomialError):
            UnivariatePolynomial(()).degree

    def test_from_roots(self):
        u = UnivariatePolynomial.from_roots([Fraction(1, 2)], [2])
        assert u == UnivariatePolynomial((Fraction(1, 4), -1, 1))
        assert u.evaluate(Fraction(1, 2)) == 0

    def test_derivative(self):
        u = UnivariatePolynomial((1, 2, 3))  # 3t^2 + 2t + 1
        assert u.derivative() == UnivariatePolynomial((2, 6))
