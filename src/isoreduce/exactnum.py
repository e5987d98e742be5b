"""Exact scalar arithmetic: polynomials over the rationals and rational
functions in one indeterminate.

The indeterminate is rendered as ``x`` in all text forms. Every value is
immutable and canonical from the moment it is constructed:

* a polynomial stores a rational content times a primitive integer part
  (dense, ascending, no trailing zero, gcd 1, positive leading entry);
* a rational function is fully reduced (numerator and denominator are
  coprime) and its denominator is monic.

Canonical form makes equality and is-zero tests exact, which the degree
counting in the reduction pipeline depends on. Nothing on this path ever
touches floating point; floats appear only in the evaluation helpers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "PoleError",
    "Polynomial",
    "RatFun",
    "poly_gcd",
    "poly_to_str",
    "poly_from_str",
    "ratfun_to_str",
    "ratfun_from_str",
]

NEG_INF = float("-inf")


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at (or too near) a pole."""

    def __init__(self, x: float):
        super().__init__(f"evaluation at pole x = {x!r}")
        self.x = x


class Polynomial:
    """Dense univariate polynomial over Q, stored as content * primitive part.

    The content ``_c`` is a Fraction; ``_prim[i]`` is the int multiplying
    x**i, with no trailing zero, gcd 1 and a positive leading entry. Only
    the zero polynomial has content 0; its ``_prim`` is () and its degree -inf.
    """

    __slots__ = ("_c", "_prim")

    ZERO: "Polynomial"
    ONE: "Polynomial"
    X: "Polynomial"

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        # a list: *generator builds a resized tuple, which piles up on CPython's free lists
        d = math.lcm(*[c.denominator for c in cs])
        return _poly([c.numerator * (d // c.denominator) for c in cs], Fraction(1, d))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        c = self._c
        return tuple([c * v for v in self._prim])

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._prim) - 1 if self._prim else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._prim

    @property
    def leading(self) -> Fraction:
        return self._c * self._prim[-1] if self._prim else self._c

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        if self.leading == 1:
            return self
        return _poly(list(self._prim), Fraction(1, self._prim[-1]))

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._prim)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._prim == other._prim and self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._c, self._prim))

    def __neg__(self) -> "Polynomial":
        return _poly(list(self._prim), -self._c)

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if not other._prim:
            return self
        if not self._prim:
            return other
        a, b = self, other
        if len(a._prim) < len(b._prim):
            a, b = b, a
        # a + b = (c_a/v) * (v*A + u*B) with u/v = c_b/c_a in lowest terms
        ratio = b._c / a._c
        u, v = ratio.numerator, ratio.denominator
        out = [c * v for c in a._prim]
        for i, c in enumerate(b._prim):
            out[i] += c * u
        return _poly(out, a._c / v)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return _poly(list(self._prim), self._c * other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._prim, other._prim
        if not a or not b:
            return Polynomial.ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return _poly(out, self._c * other._c)

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q: self = q*other + r with deg r < deg other.

        Pseudo-division of the primitive parts A and B gives s*A = Q*B + R,
        so q = Q*c_self/(s*c_other) and r = R*c_self/s exactly.
        """
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.ZERO, self
        q, r, s = _pseudo_divmod(self._prim, other._prim)
        scale = self._c / s
        return _poly(q, scale / other._c), _poly(r, scale)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        """Horner evaluation in double precision; each coefficient n*v/d rounds once."""
        n, d = self._c.numerator, self._c.denominator
        acc = 0.0
        for v in reversed(self._prim):
            acc = acc * x + n * v / d
        return acc

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        return poly_to_str(self)


def _poly(ints: list[int], scale: Fraction) -> Polynomial:
    """The canonical polynomial scale * sum(ints[i] * x**i); consumes ints."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints or not scale:
        return Polynomial.ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        scale = scale * g
    p = object.__new__(Polynomial)
    object.__setattr__(p, "_c", scale)
    object.__setattr__(p, "_prim", tuple(ints))
    return p


# _poly returns this for every zero, so it is built by hand.
Polynomial.ZERO = object.__new__(Polynomial)
object.__setattr__(Polynomial.ZERO, "_c", Fraction(0))
object.__setattr__(Polynomial.ZERO, "_prim", ())
Polynomial.ONE = Polynomial((1,))
Polynomial.X = Polynomial((0, 1))


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


# -- integer division and gcd ------------------------------------------------


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer sequences, b nonzero: s*a = q*b + r, deg r < deg b.

    Returns q, r (lists, no trailing zeros) and s = lc(b)**max(deg a - deg b + 1, 0).
    """
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        lead = r.pop()
        q[i] = lead * lb**i
        r = [c * lb for c in r]
        for j, c in enumerate(b[:-1]):
            r[i + j] -= lead * c
    while r and r[-1] == 0:
        r.pop()
    return q, r, lb ** len(q)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean remainder sequence.

    The trivial cases are decided first: gcd(0, 0) raises ValueError, a
    zero argument gives the other argument's monic form, and a nonzero
    constant argument gives Polynomial.ONE. Otherwise the loop pseudo-divides
    the stored primitive parts and keeps only the primitive part of each
    remainder, which holds coefficient growth in check; rescaling by a
    nonzero rational does not change the gcd.
    """
    if a.is_zero:
        if b.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Polynomial.ONE
    while b:
        a, b = b, _poly(_pseudo_divmod(a._prim, b._prim)[1], Fraction(1))
    return a.monic()


def _exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    if b == Polynomial.ONE:
        return a
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ArithmeticError("inexact polynomial division")
    return q


# -- rational functions --------------------------------------------------------


class RatFun:
    """Rational function num/den in canonical form.

    Canonical means gcd(num, den) = 1 and den is monic; zero is 0/1. All
    operations return canonical values, so equality and is-zero checks are
    plain structural comparisons.
    """

    __slots__ = ("_num", "_den")

    ZERO: "RatFun"
    ONE: "RatFun"
    X: "RatFun"

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        if num is None:
            raise TypeError("numerator must be a Polynomial or exact number")
        if den is None:
            den = Polynomial.ONE
        else:
            den = _coerce_poly(den)
            if den is None:
                raise TypeError("denominator must be a Polynomial or exact number")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        g = poly_gcd(num, den)
        canon = RatFun._reduced(_exact_div(num, g), _exact_div(den, g))
        object.__setattr__(self, "_num", canon._num)
        object.__setattr__(self, "_den", canon._den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RatFun":
        # Internal: num, den already coprime; only monic scaling remains.
        obj = object.__new__(cls)
        if num.is_zero:
            object.__setattr__(obj, "_num", Polynomial.ZERO)
            object.__setattr__(obj, "_den", Polynomial.ONE)
            return obj
        lc = den.leading
        if lc != 1:
            num, den = num * (1 / lc), den.monic()
        object.__setattr__(obj, "_num", num)
        object.__setattr__(obj, "_den", den)
        return obj

    @classmethod
    def constant(cls, value) -> "RatFun":
        return cls(Polynomial.constant(value))

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_constant(self) -> bool:
        return self._den == Polynomial.ONE and self._num.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self._num.leading

    # -- field operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return not self._num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFun):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RatFun(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    def __neg__(self) -> "RatFun":
        return RatFun._reduced(-self._num, self._den)

    def __add__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        a, b = self._num, self._den
        c, d = other._num, other._den
        if a.is_zero:
            return other
        if c.is_zero:
            return self
        if b == Polynomial.ONE and d == Polynomial.ONE:
            return RatFun._reduced(a + c, Polynomial.ONE)
        # Inputs are canonical, so gcd(a, b) = gcd(c, d) = 1 and the
        # classical reduced-sum identities apply.
        g = poly_gcd(b, d)
        if g == Polynomial.ONE:
            return RatFun._reduced(a * d + c * b, b * d)
        b1, d1 = _exact_div(b, g), _exact_div(d, g)
        t = a * d1 + c * b1
        h = poly_gcd(t, g)
        return RatFun._reduced(_exact_div(t, h), b1 * d1 * _exact_div(g, h))

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        a, b = self._num, self._den
        c, d = other._num, other._den
        if b == Polynomial.ONE and d == Polynomial.ONE:
            return RatFun._reduced(a * c, Polynomial.ONE)
        g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
        return RatFun._reduced(
            _exact_div(a, g1) * _exact_div(c, g2), _exact_div(b, g2) * _exact_div(d, g1)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFun._reduced(other._den, other._num)

    def __rtruediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: float, pole_tol: float = 1e-12) -> float:
        """num(x)/den(x) by Horner evaluation of both polynomials.

        Raises PoleError when |den(x)| does not exceed pole_tol.
        """
        dv = self._den(x)
        if abs(dv) <= pole_tol:
            raise PoleError(x)
        return self._num(x) / dv

    def __repr__(self):
        return f"RatFun({ratfun_to_str(self)!r})"

    def __str__(self):
        return ratfun_to_str(self)


RatFun.ZERO = RatFun(Polynomial.ZERO)
RatFun.ONE = RatFun(Polynomial.ONE)
RatFun.X = RatFun(Polynomial.X)


def _coerce_rf(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (int, Fraction, Polynomial)):
        return RatFun(value)
    return None


# -- text form -----------------------------------------------------------------
#
# Grammar (round-trips exactly):
#   ratfun  := "(" poly ")/(" poly ")" | poly          denominator 1 is omitted
#   poly    := term (" + " term | " - " term)*         descending powers,
#   term    := coef | coef "*" power | power           zero terms omitted
#   power   := "x" | "x^" int
#   coef    := int | int "/" int                       exact p/q, q > 0


def _frac_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _term_str(c: Fraction, k: int) -> str:
    # c is positive here; the caller renders signs.
    if k == 0:
        return _frac_str(c)
    power = "x" if k == 1 else f"x^{k}"
    if c == 1:
        return power
    return f"{_frac_str(c)}*{power}"


def poly_to_str(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    cs = p.coeffs
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        if not parts:
            parts.append(("-" if c < 0 else "") + _term_str(abs(c), k))
        else:
            parts.append((" - " if c < 0 else " + ") + _term_str(abs(c), k))
    return "".join(parts)


def ratfun_to_str(f: RatFun) -> str:
    if f.den == Polynomial.ONE:
        return poly_to_str(f.num)
    return f"({poly_to_str(f.num)})/({poly_to_str(f.den)})"


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)(?:\*(?=x))?)?(?:(?P<x>x)(?:\^(?P<pow>\d+))?)?$"
)


def _parse_term(text: str) -> tuple[Fraction, int]:
    m = _TERM_RE.match(text)
    if not m or (m.group("coef") is None and m.group("x") is None):
        raise ValueError(f"malformed polynomial term: {text!r}")
    coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
    if m.group("x") is None:
        return coef, 0
    power = int(m.group("pow")) if m.group("pow") else 1
    return coef, power


def poly_from_str(text: str) -> Polynomial:
    t = text.strip()
    if not t:
        raise ValueError("empty polynomial text")
    sign = 1
    if t.startswith("-"):
        sign = -1
        t = t[1:].lstrip()
    chunks = re.split(r" ([+-]) ", t)
    coeffs: dict[int, Fraction] = {}

    def accumulate(term: str, s: int):
        c, k = _parse_term(term.strip())
        coeffs[k] = coeffs.get(k, 0) + s * c

    accumulate(chunks[0], sign)
    for op, term in zip(chunks[1::2], chunks[2::2]):
        accumulate(term, 1 if op == "+" else -1)
    return Polynomial([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


_RATFUN_RE = re.compile(r"^\((?P<num>[^()]+)\)/\((?P<den>[^()]+)\)$")


def ratfun_from_str(text: str) -> RatFun:
    t = text.strip()
    m = _RATFUN_RE.match(t)
    if m:
        return RatFun(poly_from_str(m.group("num")), poly_from_str(m.group("den")))
    return RatFun(poly_from_str(t))
