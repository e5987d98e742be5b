"""Exact scalar arithmetic: polynomials over the rationals and rational
functions in one indeterminate.

The indeterminate is rendered as ``x`` in all text forms. Every value is
immutable and canonical from the moment it is constructed:

* a polynomial stores dense, ascending coefficients with no trailing zeros;
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient required, got {type(value).__name__}")


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored ascending: coeffs[i] multiplies x**i. The zero
    polynomial has an empty coefficient tuple and degree -inf.
    """

    __slots__ = ("_coeffs",)

    ZERO: "Polynomial"
    ONE: "Polynomial"
    X: "Polynomial"

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((_as_fraction(value),))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lc = self._coeffs[-1]
        if lc == 1:
            return self
        return Polynomial(c / lc for c in self._coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

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
            f = _as_fraction(other)
            if f == 0:
                return Polynomial.ZERO
            return Polynomial(c * f for c in self._coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial.ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q: self = q*other + r with deg r < deg other.

        Pseudo-division of the integer forms A = d_a*self and B = d_b*other
        gives s*A = Q*B + R, so q = Q*d_b/(s*d_a) and r = R/(s*d_a) exactly.
        """
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.ZERO, self
        a, d_a = _scaled_int(self)
        b, d_b = _scaled_int(other)
        q, r, s = _pseudo_divmod(a, b)
        d = s * d_a
        return Polynomial(Fraction(c * d_b, d) for c in q), Polynomial(Fraction(c, d) for c in r)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        """Horner evaluation in double precision."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + float(c)
        return acc

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    def __str__(self):
        return poly_to_str(self)


Polynomial.ZERO = Polynomial()
Polynomial.ONE = Polynomial((1,))
Polynomial.X = Polynomial((0, 1))


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


# -- integer division and gcd ------------------------------------------------


def _primitive(ints: list[int]) -> list[int]:
    """An integer list divided by its content; the empty list stays empty."""
    content = math.gcd(*ints)
    return [v // content for v in ints]


def _scaled_int(p: Polynomial) -> tuple[list[int], int]:
    """Integer coefficients of d*p, with d the lcm of p's denominators, and d."""
    # a list: *generator builds a resized tuple, which piles up on CPython's free lists
    d = math.lcm(*[c.denominator for c in p.coeffs])
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer lists, b nonzero: s*a = q*b + r, deg r < deg b.

    Returns q, r (no trailing zeros) and s = lc(b)**max(deg a - deg b + 1, 0).
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

    The trivial cases are decided here, before any integer conversion:
    gcd(0, 0) raises ValueError, a zero argument gives the other argument's
    monic form, and a nonzero constant argument gives Polynomial.ONE.
    Otherwise the remainders are rescaled to primitive integer form at each
    step to keep coefficient growth in check; rescaling by a nonzero
    rational does not change the gcd.
    """
    if a.is_zero:
        if b.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Polynomial.ONE
    fa, fb = _primitive(_scaled_int(a)[0]), _primitive(_scaled_int(b)[0])
    while fb:
        fa, fb = fb, _primitive(_pseudo_divmod(fa, fb)[1])
    return Polynomial(fa).monic()


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
            inv = 1 / lc
            num = num * inv
            den = den * inv
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
        return self._num.leading if self._num else Fraction(0)

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
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
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
        coeffs[k] = coeffs.get(k, Fraction(0)) + s * c

    accumulate(chunks[0], sign)
    for op, term in zip(chunks[1::2], chunks[2::2]):
        accumulate(term, 1 if op == "+" else -1)
    if not coeffs:
        return Polynomial.ZERO
    size = max(coeffs) + 1
    out = [Fraction(0)] * size
    for k, c in coeffs.items():
        out[k] = c
    return Polynomial(out)


_RATFUN_RE = re.compile(r"^\((?P<num>[^()]+)\)/\((?P<den>[^()]+)\)$")


def ratfun_from_str(text: str) -> RatFun:
    t = text.strip()
    m = _RATFUN_RE.match(t)
    if m:
        return RatFun(poly_from_str(m.group("num")), poly_from_str(m.group("den")))
    return RatFun(poly_from_str(t))
