import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zeroset import ParseError, TrivialPolynomialError, parse_polynomial
from zeroset.crofton import _coefficient_tables

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



class TestParseErrors:
    @pytest.mark.parametrize(
        "text, dimension, position, message",
        [
            ("x1 + @", 1, 5, "unexpected character '@'"),
            ("x", 1, 0, "unexpected character 'x'"),
            ("1.", 1, 1, "unexpected character '.'"),
            ("", 1, 0, "expected a term"),
            ("-", 1, 1, "expected a term"),
            ("x1 +", 1, 4, "expected a term"),
            ("*x1", 1, 0, "expected a coefficient or variable, got '*'"),
            ("+-x1", 1, 1, "expected a coefficient or variable, got '-'"),
            ("x1 x2", 2, 3, "expected '+' or '-' before 'x2'"),
            ("1.5/2", 1, 3, "expected '+' or '-' before '/'"),
            ("x1^2^3", 1, 4, "expected '+' or '-' before '^'"),
            ("1/", 1, 2, "unexpected end of input"),
            ("x1*", 1, 3, "unexpected end of input"),
            ("x1^", 1, 3, "unexpected end of input"),
            ("1/x1", 1, 2, "expected a positive integer denominator, got 'x1'"),
            ("1/0", 1, 2, "denominator must be positive"),
            ("2*3", 1, 2, "expected a variable, got '3'"),
            ("x3", 2, 0, "variable index 3 out of range 1..2"),
            ("x0", 2, 0, "variable index 0 out of range 1..2"),
            ("x1^-2", 1, 3, "negative exponent"),
            ("x1^1.5", 1, 3, "expected a nonnegative integer exponent, got '1.5'"),
            ("x1^x1", 1, 3, "expected a nonnegative integer exponent, got 'x1'"),
        ],
    )
    def test_message_and_position(self, text, dimension, position, message):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, dimension)
        assert (err.value.message, err.value.position) == (message, position)
        assert str(err.value).endswith(f"(at position {position})")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digit limit"
    )
    @pytest.mark.parametrize(
        "text, position",
        [
            ("1" * 5000, 0),
            ("x" + "1" * 5000, 0),
            ("x1^" + "1" * 5000, 3),
            ("1/" + "1" * 5000, 2),
            ("0." + "1" * 5000, 0),
            ("x1 - " + "2" * 5000 + "*x1", 5),
        ],
        ids=["coefficient", "index", "exponent", "denominator", "decimal", "second-term"],
    )
    def test_number_past_the_int_limit(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, 1)
        assert err.value.position == position
        assert f"{sys.get_int_max_str_digits()}-digit" in err.value.message


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
_ZEROS = st.sampled_from(["", "", "0", "00"])


@st.composite
def _term(draw, dimension):
    """The tokens of one unsigned term, with the coefficient and exponents it denotes."""
    kind = draw(st.sampled_from(["none", "int", "fraction", "decimal"]))
    whole = draw(st.integers(0, 999))
    tokens, coefficient = [], Fraction(1)
    if kind == "int":
        tokens, coefficient = [draw(_ZEROS) + str(whole)], Fraction(whole)
    elif kind == "fraction":
        denominator = draw(st.integers(1, 99))
        tokens = [draw(_ZEROS) + str(whole), "/", draw(_ZEROS) + str(denominator)]
        coefficient = Fraction(whole, denominator)
    elif kind == "decimal":
        digits = draw(st.text("0123456789", min_size=1, max_size=4))
        tokens = [f"{draw(_ZEROS)}{whole}.{digits}"]
        coefficient = whole + Fraction(int(digits), 10 ** len(digits))
    exponents = [0] * dimension
    factors = st.tuples(st.integers(1, dimension), st.none() | st.integers(0, 3))
    for index, power in draw(st.lists(factors, min_size=kind == "none", max_size=4)):
        if tokens:
            tokens.append("*")
        tokens.append(f"x{draw(_ZEROS)}{index}")
        if power is not None:
            tokens += ["^", draw(_ZEROS) + str(power)]
        exponents[index - 1] += 1 if power is None else power
    return tokens, coefficient, tuple(exponents)


@st.composite
def _polynomial_texts(draw):
    """A text in the grammar, its dimension, and the terms it denotes in Fractions."""
    dimension = draw(st.integers(1, 3))
    terms = draw(st.lists(_term(dimension), min_size=1, max_size=5))
    terms += draw(st.lists(st.sampled_from(terms), max_size=3))  # repeated terms add or cancel
    tokens, expected = [], {}
    for k, (term, coefficient, exponents) in enumerate(terms):
        sign = draw(st.sampled_from(["+", "-", ""] if k == 0 else ["+", "-"]))
        tokens += [sign, *term] if sign else term
        value = -coefficient if sign == "-" else coefficient
        expected[exponents] = expected.get(exponents, Fraction(0)) + value
    text = draw(_SPACE) + "".join(token + draw(_SPACE) for token in tokens)
    return text, dimension, {e: c for e, c in expected.items() if c}


@st.composite
def _mutated_texts(draw):
    """A grammar text with one character inserted, deleted or replaced, and its dimension."""
    text, dimension, _ = draw(_polynomial_texts())
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["insert", "delete", "replace"]))
    character = draw(st.sampled_from(list("+-*/^x0123456789. \t") + ["@", "y", "e", "(", "\u0663"]))
    text = text[:at] + ("" if how == "delete" else character) + text[at + (how != "insert"):]
    return text, dimension


class TestParserProperties:
    @settings(max_examples=200)
    @given(case=_polynomial_texts())
    def test_text_parses_to_the_terms_it_was_built_from(self, case):
        text, dimension, expected = case
        p = parse_polynomial(text, dimension)
        assert (p.dimension, p.terms) == (dimension, expected)

    @settings(max_examples=250)
    @given(case=_mutated_texts())
    def test_mutated_text_parses_or_raises_parse_error(self, case):
        text, dimension = case
        try:
            parse_polynomial(text, dimension)
        except ParseError as err:
            # An error at the end of the text is the only one not at a character.
            at_end = err.message in ("expected a term", "unexpected end of input")
            assert err.position == len(text) if at_end else not text[err.position].isspace()
            assert str(err).endswith(f"(at position {err.position})")
        else:
            assert all(1 <= int(k) <= dimension for k in re.findall(r"x(\d+)", text))


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


def _row_values(table, monomials, numerators):
    """Each row of a `_coefficient_tables` table evaluated at the base numerators."""
    powers = [math.prod(numerators[i] ** e for i, e in mono) for mono in monomials]
    return [sum(f * v for f, v in zip(row, powers)) for row in table]


class TestCoefficientsIn:
    """The integer monomial table of p in x_k that the axis-line counter reads."""

    def test_hyperbola(self):
        # 4 * 4**1 * (N/4 * x - 1/4) = 4*N*x - 4
        p = parse_polynomial("x1*x2 - 1/4", 2)
        monomials, table = _coefficient_tables(p, 2, 4)
        assert monomials == [(), ((0, 1),)]
        assert table == [[-4, 0], [0, 4]]

    def test_degree_zero_in_axis(self):
        p = parse_polynomial("x1^2 + 1", 2)
        monomials, table = _coefficient_tables(p, 2, 3)
        assert monomials == [((0, 2),), ()]
        assert table == [[1, 9]]

    def test_recombination(self):
        # sum_j sum_r table[j][r] * N**mono_r * x**j = L * scale**m * p(N/scale, x)
        rng = random.Random(505)
        for _ in range(40):
            d = rng.randint(1, 4)
            p = random_polynomial(rng, d, 4)
            k = rng.randint(1, d)
            scale = rng.randint(1, 12)
            monomials, table = _coefficient_tables(p, k, scale)
            assert len(table) == p.degree_in(k) + 1 and any(table[-1])
            assert len(set(monomials)) == len(monomials)
            lcm = math.lcm(*(c.denominator for c in p.terms.values()))
            m = max(sum(e) - e[k - 1] for e in p.terms)
            for _ in range(5):
                numerators = [rng.randint(-50, 50) for _ in range(d - 1)]
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                point = [Fraction(n, scale) for n in numerators]
                point.insert(k - 1, x)
                rows = _row_values(table, monomials, numerators)
                assert sum(v * x**j for j, v in enumerate(rows)) == lcm * scale**m * evaluate(p, point)

    def test_trap_set_equivalence(self):
        # restriction is identically zero iff every row vanishes at N
        rng = random.Random(606)
        planted = Poly.parse("x1 - 1/2", 2) * Poly.parse("x2 + x1", 2)
        cases = [(planted, 2, (Fraction(1, 2),))]
        for _ in range(40):
            d = rng.randint(2, 3)
            p = random_polynomial(rng, d, 3)
            cases.append((p, rng.randint(1, d), random_point(rng, d - 1)))
        assert restrict_to_line(*cases[0]).is_zero
        for p, k, base in cases:
            scale = math.lcm(*(x.denominator for x in base))
            monomials, table = _coefficient_tables(p, k, scale)
            rows = _row_values(table, monomials, [int(x * scale) for x in base])
            assert restrict_to_line(p, k, base).is_zero == (not any(rows))


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
