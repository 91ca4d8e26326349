"""Exact sparse multivariate polynomials over the rationals.

A polynomial in d variables is a map from exponent vectors (length-d tuples
of nonnegative ints) to nonzero Fraction coefficients:

    x1*x2 - 1/4  ->  {(1, 1): Fraction(1), (0, 0): Fraction(-1, 4)}

The zero polynomial is the empty map.  All arithmetic is exact; decimal
literals in the text form are converted to rationals without rounding
(0.25 -> 1/4).  Variables are 1-based (x1 .. xd) throughout the public API,
matching the text syntax.

Polynomials are immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value: RationalLike) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, dimension: int, k: int) -> "Polynomial":
        """The monomial x_k (1-based)."""
        if not 1 <= k <= dimension:
            raise ValueError(f"variable index {k} out of range 1..{dimension}")
        exponents = [0] * dimension
        exponents[k - 1] = 1
        return cls(dimension, {tuple(exponents): 1})

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

    def degree_sum(self) -> int:
        """Sum over k of the degree in x_k (the bound's degree constant)."""
        if self.is_trivial:
            raise TrivialPolynomialError("degree of the zero polynomial is undefined")
        return sum(self.degree_in(k) for k in range(1, self.dimension + 1))

    def _check_axis(self, k: int) -> None:
        if not 1 <= k <= self.dimension:
            raise ValueError(f"axis {k} out of range 1..{self.dimension}")

    # -- evaluation and restriction ---------------------------------------

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point of length d."""
        if len(point) != self.dimension:
            raise ValueError(f"point has length {len(point)}, expected {self.dimension}")
        values = [_coerce(v) for v in point]
        total = Fraction(0)
        for exponents, coefficient in self.terms.items():
            term = coefficient
            for value, e in zip(values, exponents):
                if e:
                    term *= value**e
            total += term
        return total

    def restrict_to_line(self, k: int, base: Sequence[RationalLike]) -> "UnivariatePolynomial":
        """Restriction to the axis-k line through `base`.

        `base` lists the d-1 frozen coordinates in axis order with axis k
        skipped; the result is t -> p(base_1, .., t, .., base_{d-1}).  The
        zero univariate polynomial comes back exactly when the whole line
        lies in the zero set.
        """
        self._check_axis(k)
        if len(base) != self.dimension - 1:
            raise ValueError(f"base has length {len(base)}, expected {self.dimension - 1}")
        values = [_coerce(v) for v in base]
        coeffs: dict[int, Fraction] = {}
        for exponents, coefficient in self.terms.items():
            factor = coefficient
            jj = 0
            for j, e in enumerate(exponents):
                if j == k - 1:
                    continue
                if e:
                    factor *= values[jj] ** e
                jj += 1
            if factor:
                power = exponents[k - 1]
                coeffs[power] = coeffs.get(power, Fraction(0)) + factor
        if not coeffs:
            return UnivariatePolynomial(())
        top = max(coeffs)
        return UnivariatePolynomial(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))

    def coefficients_in(self, k: int) -> tuple["Polynomial", ...]:
        """Coefficients (q_0, .., q_kappa) of p viewed as a polynomial in x_k.

        Each q_j is a polynomial in the remaining d-1 variables and
        sum_j q_j * x_k^j recombines to p exactly.  The leading q_kappa is
        nontrivial.  For the zero polynomial the tuple is empty.
        """
        self._check_axis(k)
        if self.is_trivial:
            return ()
        kappa = self.degree_in(k)
        buckets: list[dict[Exponent, Fraction]] = [{} for _ in range(kappa + 1)]
        for exponents, coefficient in self.terms.items():
            reduced = exponents[: k - 1] + exponents[k:]
            buckets[exponents[k - 1]][reduced] = coefficient
        return tuple(Polynomial(self.dimension - 1, b) for b in buckets)

    # -- arithmetic (exact, canonical results) -----------------------------

    def _coerce_operand(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.dimension != self.dimension:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.dimension, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exponents, coefficient in other.terms.items():
            out[exponents] = out.get(exponents, Fraction(0)) + coefficient
        return Polynomial(self.dimension, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dimension, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce_operand(other)
        if other is None:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return Polynomial(self.dimension, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.dimension, 1)
        for _ in range(n):
            out = out * self
        return out

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


class UnivariatePolynomial:
    """Dense univariate polynomial; coefficients[i] multiplies t**i.

    The trailing coefficient is nonzero unless the polynomial is zero
    (empty tuple).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [_coerce(c) for c in coefficients]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @classmethod
    def from_roots(
        cls, roots: Sequence[RationalLike], multiplicities: Sequence[int] | None = None
    ) -> "UnivariatePolynomial":
        """Monic polynomial with the given roots (and multiplicities)."""
        if multiplicities is None:
            multiplicities = [1] * len(roots)
        out = cls((1,))
        for root, m in zip(roots, multiplicities):
            factor = cls((-_coerce(root), 1))
            for _ in range(m):
                out = out * factor
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise TrivialPolynomialError("degree of the zero polynomial is undefined")
        return len(self.coefficients) - 1

    def evaluate(self, x: RationalLike) -> Fraction:
        x = _coerce(x)
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients))[1:]
        )

    def __add__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        n = max(len(self.coefficients), len(other.coefficients))
        a = list(self.coefficients) + [Fraction(0)] * (n - len(self.coefficients))
        for i, c in enumerate(other.coefficients):
            a[i] += c
        return UnivariatePolynomial(a)

    __radd__ = __add__

    def __neg__(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "UnivariatePolynomial":
        return (-self) + other

    def __mul__(self, other) -> "UnivariatePolynomial":
        if isinstance(other, (int, Fraction)):
            other = UnivariatePolynomial((other,))
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UnivariatePolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return UnivariatePolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    __hash__ = None

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.coefficients!r})"


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
