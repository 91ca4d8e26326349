"""Exact sparse multivariate polynomials over the rationals, and their parser.

A polynomial in d variables is a map from exponent vectors (length-d tuples
of nonnegative ints) to nonzero Fraction coefficients:

    x1*x2 - 1/4  ->  {(1, 1): Fraction(1), (0, 0): Fraction(-1, 4)}

The zero polynomial is the empty map.  Decimal literals in the text form are
converted to rationals without rounding (0.25 -> 1/4).  Variables are
1-based (x1 .. xd) throughout the public API, matching the text syntax.
The module neither evaluates nor does arithmetic: the line counter reads
the terms into one integer monomial table per axis, and the mesher
evaluates them in float64.

Polynomials are immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

Exponent = tuple[int, ...]
RationalLike = Union[Fraction, int, str]


class TrivialPolynomialError(ValueError):
    """An operation that requires a nontrivial polynomial got the zero one."""


class ParseError(ValueError):
    """Malformed polynomial text.  `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _coerce(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping[Exponent, RationalLike] | None = None):
        if dimension < 0:
            raise ValueError(f"dimension must be nonnegative, got {dimension}")
        clean: dict[Exponent, Fraction] = {}
        for exponents, coefficient in (terms or {}).items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != dimension:
                raise ValueError(
                    f"exponent vector {exponents} has length {len(exponents)}, expected {dimension}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            coefficient = _coerce(coefficient)
            if coefficient:
                clean[exponents] = clean.get(exponents, Fraction(0)) + coefficient
                if not clean[exponents]:
                    del clean[exponents]
        self.dimension = dimension
        self.terms = clean

    # -- basic queries ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        """True for the zero polynomial (empty term map)."""
        return not self.terms

    def degree_in(self, k: int) -> int:
        """Largest exponent of x_k over all stored terms."""
        self._check_axis(k)
        if self.is_trivial:
            raise TrivialPolynomialError("degree of the zero polynomial is undefined")
        return max(e[k - 1] for e in self.terms)

    def _check_axis(self, k: int) -> None:
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis {k} out of range 1..{self.dimension}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    __hash__ = None  # mutating dict field; identity hashing would mislead

    def __repr__(self) -> str:
        return f"Polynomial({self.dimension}, {self.terms!r})"

    def __str__(self) -> str:
        if self.is_trivial:
            return "0"
        parts = []
        for exponents in sorted(self.terms, reverse=True):
            coefficient = self.terms[exponents]
            factors = [
                f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exponents)
                if e
            ]
            magnitude = -coefficient if coefficient < 0 else coefficient
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            sign = "-" if coefficient < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace insignificant, variable indices 1-based):
#   expression  := ['+'|'-'] term (('+'|'-') term)*
#   term        := coefficient ('*' factor)* | factor ('*' factor)*
#   factor      := 'x'INDEX ('^' NONNEG_INT)?
#   coefficient := INT | INT'/'POSINT | DECIMAL
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<var>x\d+)|(?P<dec>\d+\.\d+)|(?P<int>\d+)|(?P<op>[-+*/^])")


@dataclass(frozen=True)
class _Token:
    kind: str  # "var" | "dec" | "int" | "op"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return token

    def parse(self) -> Polynomial:
        terms: dict[Exponent, Fraction] = {}
        sign = 1
        token = self.peek()
        if token is not None and token.kind == "op" and token.text in "+-":
            self.next()
            sign = -1 if token.text == "-" else 1
        self.parse_term(terms, sign)
        while (token := self.peek()) is not None:
            if token.kind != "op" or token.text not in "+-":
                raise ParseError(f"expected '+' or '-' before {token.text!r}", token.position)
            self.next()
            self.parse_term(terms, -1 if token.text == "-" else 1)
        return Polynomial(self.dimension, terms)

    def parse_term(self, terms: dict[Exponent, Fraction], sign: int) -> None:
        token = self.peek()
        if token is None:
            raise ParseError("expected a term", len(self.text))
        coefficient = Fraction(1)
        exponents = [0] * self.dimension
        if token.kind in ("int", "dec"):
            coefficient = self.parse_coefficient()
        elif token.kind == "var":
            self.parse_factor(exponents)
        else:
            raise ParseError(f"expected a coefficient or variable, got {token.text!r}", token.position)
        while (token := self.peek()) is not None and token.kind == "op" and token.text == "*":
            self.next()
            self.parse_factor(exponents)
        key = tuple(exponents)
        terms[key] = terms.get(key, Fraction(0)) + sign * coefficient

    def parse_coefficient(self) -> Fraction:
        token = self.next()
        if token.kind == "dec":
            return Fraction(token.text)  # exact: 0.25 -> 1/4
        if token.kind != "int":
            raise ParseError(f"expected a number, got {token.text!r}", token.position)
        numerator = int(token.text)
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "/":
            self.next()
            den_token = self.next()
            if den_token.kind != "int":
                raise ParseError(
                    f"expected a positive integer denominator, got {den_token.text!r}",
                    den_token.position,
                )
            denominator = int(den_token.text)
            if denominator == 0:
                raise ParseError("denominator must be positive", den_token.position)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def parse_factor(self, exponents: list[int]) -> None:
        token = self.next()
        if token.kind != "var":
            raise ParseError(f"expected a variable, got {token.text!r}", token.position)
        index = int(token.text[1:])
        if not 1 <= index <= self.dimension:
            raise ParseError(
                f"variable index {index} out of range 1..{self.dimension}", token.position
            )
        power = 1
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "^":
            self.next()
            exp_token = self.next()
            if exp_token.kind == "op" and exp_token.text == "-":
                raise ParseError("negative exponent", exp_token.position)
            if exp_token.kind != "int":
                raise ParseError(
                    f"expected a nonnegative integer exponent, got {exp_token.text!r}",
                    exp_token.position,
                )
            power = int(exp_token.text)
        exponents[index - 1] += power


def parse_polynomial(text: str, dimension: int) -> Polynomial:
    """Parse an expression like ``"x1*x2 - 1/4"`` into a canonical Polynomial."""
    return _Parser(text, dimension).parse()
