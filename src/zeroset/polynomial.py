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

`parse_polynomial` reads the text in one pass over its tokens.  Malformed
text, a digit run past Python's integer conversion limit included, raises
`ParseError` with a message and the 0-based position of the fault.

Polynomials are immutable after construction.
"""

from __future__ import annotations

import re
import sys
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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, closed by an ("end", "", len(text)) sentinel."""
    tokens, pos, n = [], 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


def _read(digits: str, position: int) -> int | Fraction:
    """The value of a digit run or decimal; a run past the int limit is a ParseError."""
    try:
        return Fraction(digits) if "." in digits else int(digits)
    except ValueError:  # raised only by the digit limit of Python >= 3.10.7
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"digit run longer than the {limit}-digit integer limit", position) from None


def _unexpected(token: tuple[str, str, int], expected: str) -> ParseError:
    kind, text, position = token
    message = "unexpected end of input" if kind == "end" else f"expected {expected}, got {text!r}"
    return ParseError(message, position)


def parse_polynomial(text: str, dimension: int) -> Polynomial:
    """Parse an expression like ``"x1*x2 - 1/4"`` into a canonical Polynomial."""
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    tokens = _tokenize(text)  # an unexpected character anywhere is the first error
    terms: dict[Exponent, Fraction] = {}
    i = 0
    while True:  # one signed term per pass; only the first may omit its sign
        sign = -1 if tokens[i][1] == "-" else 1
        i += tokens[i][1] in ("+", "-")
        coefficient, exponents, start = Fraction(1), [0] * dimension, i
        while True:  # the term's '*'-joined items; only the first may be a number
            kind, word, at = tokens[i]
            if kind == "var":
                index = _read(word[1:], at)
                if not 1 <= index <= dimension:
                    raise ParseError(f"variable index {index} out of range 1..{dimension}", at)
                power = 1
                if tokens[i + 1][1] == "^":
                    i += 2
                    kind, word, at = tokens[i]
                    if word == "-":
                        raise ParseError("negative exponent", at)
                    if kind != "int":
                        raise _unexpected(tokens[i], "a nonnegative integer exponent")
                    power = _read(word, at)
                exponents[index - 1] += power
            elif i > start:
                raise _unexpected(tokens[i], "a variable")
            elif kind == "end":
                raise ParseError("expected a term", at)
            elif kind == "op":
                raise ParseError(f"expected a coefficient or variable, got {word!r}", at)
            else:
                coefficient = _read(word, at)  # exact: 0.25 -> 1/4
                if kind == "int" and tokens[i + 1][1] == "/":
                    i += 2
                    kind, word, at = tokens[i]
                    if kind != "int":
                        raise _unexpected(tokens[i], "a positive integer denominator")
                    denominator = _read(word, at)
                    if not denominator:
                        raise ParseError("denominator must be positive", at)
                    coefficient = Fraction(coefficient, denominator)
            i += 1
            if tokens[i][1] != "*":
                break
            i += 1
        key = tuple(exponents)
        terms[key] = terms.get(key, Fraction(0)) + sign * coefficient
        kind, word, at = tokens[i]
        if kind == "end":
            return Polynomial(dimension, terms)
        if word not in ("+", "-"):
            raise ParseError(f"expected '+' or '-' before {word!r}", at)
