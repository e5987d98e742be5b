"""Exact scalar arithmetic: rational functions in one indeterminate, and the
polynomials among them.

The indeterminate is rendered as ``x`` in all text forms. Every value is
immutable and canonical from the moment it is constructed. It stores a
rational k times N/D, with N and D coprime primitive integer parts (dense,
ascending, no trailing zero, gcd 1, positive leading entry); num and den
read it with a monic denominator. A value with D = (1,) is a polynomial,
and its class says so: the one trusted constructor builds a Polynomial
exactly when D = (1,), so one value always has one class.

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
    "ratfun_to_str",
    "ratfun_from_str",
]

NEG_INF = float("-inf")


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated where its denominator is 0.0."""

    def __init__(self, x: float):
        super().__init__(f"evaluation at pole x = {x!r}")
        self.x = x


class RatFun:
    """Rational function k * N/D in canonical form.

    k is a Fraction; N and D are coprime int tuples, each primitive with a
    positive leading entry; zero is 0 * ()/(1,). The form is unique, so
    equality and is-zero checks are plain structural comparisons. num and
    den give the value as Polynomials with a monic denominator. Every value
    with D = (1,) is a Polynomial instance, whatever operation made it.
    """

    __slots__ = ("_k", "_n", "_d")

    ZERO: "Polynomial"
    ONE: "Polynomial"
    X: "Polynomial"

    def __new__(cls, num, den=None):
        f = _coerce_rf(num)
        if f is None:
            raise TypeError(f"expected a RatFun or exact number, got {type(num).__name__}")
        if den is None:
            return f
        d = _coerce_rf(den)
        if d is None:
            raise TypeError(f"expected a RatFun or exact number, got {type(den).__name__}")
        return f / d

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def num(self) -> "Polynomial":
        return _rf(self._n, (1,), self._k / self._d[-1])

    @property
    def den(self) -> "Polynomial":
        return _rf(self._d, (1,), Fraction(1, self._d[-1]))

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_constant(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self._k

    # -- field operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return self._k == other._k and self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if self.is_constant:
            return hash(self._k)
        return hash((self._k, self._n, self._d))

    def __neg__(self) -> "RatFun":
        return _rf(self._n, self._d, -self._k)

    def __add__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if not self._n:
            return other
        if not other._n:
            return self
        # Inputs are canonical, so gcd(N1, D1) = gcd(N2, D2) = 1 and the
        # classical reduced-sum identities apply.
        g, d1, d2 = _gcd_cof(self._d, other._d)
        t = _sum(_mul_ints(self._n, d2), self._k, _mul_ints(other._n, d1), other._k)
        if not t._n:
            return t
        _, n, e = _gcd_cof(t._n, g)  # e = g / gcd(T, g)
        return _rf(n, tuple(_mul_ints(_mul_ints(d1, d2), e)), t._k)

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
        if not self._n or not other._n:
            return RatFun.ZERO
        _, n1, d2 = _gcd_cof(self._n, other._d)
        _, n2, d1 = _gcd_cof(other._n, self._d)
        return _rf(tuple(_mul_ints(n1, n2)), tuple(_mul_ints(d1, d2)), self._k * other._k)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("division by the zero rational function")
        return self * _rf(other._d, other._n, 1 / other._k)

    def __rtruediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        """num(x)/den(x) by Horner evaluation; PoleError when den(x) is 0.0, and a
        large float near a pole. A polynomial's den(x) is 1.0, so it evaluates
        as its own Horner sum."""
        k, lc = self._k, self._d[-1]
        dv = _horner(self._d, 1, lc, x)
        if dv == 0.0:
            raise PoleError(x)
        return _horner(self._n, k.numerator, k.denominator * lc, x) / dv

    def __repr__(self):
        return f"{type(self).__name__}({ratfun_to_str(self)!r})"

    def __str__(self):
        return ratfun_to_str(self)


class Polynomial(RatFun):
    """Dense univariate polynomial over Q: a RatFun whose D is (1,).

    k is the content and N the primitive part, so k * N[i] multiplies x**i.
    Equality, hashing and the field operations are RatFun's; only the zero
    polynomial has k = 0 and N = (), and its degree is -inf.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        # a list: *generator builds a resized tuple, which piles up on CPython's free lists
        d = math.lcm(*[c.denominator for c in cs])
        return _poly([c.numerator * (d // c.denominator) for c in cs], Fraction(1, d))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        k = self._k
        return tuple([k * v for v in self._n])

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._n) - 1 if self._n else NEG_INF

    @property
    def leading(self) -> Fraction:
        return self._k * self._n[-1] if self._n else self._k

    def monic(self) -> "Polynomial":
        if not self._n:
            raise ValueError("the zero polynomial has no monic form")
        if self.leading == 1:
            return self
        return _rf(self._n, (1,), Fraction(1, self._n[-1]))

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q: self = q*other + r with deg r < deg other.

        Pseudo-division of the primitive parts A and B gives s*A = Q*B + R,
        so q = Q*k_self/(s*k_other) and r = R*k_self/s exactly.
        """
        other = _coerce_rf(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self._n, other._n)
        scale = self._k / s
        return _poly(q, scale / other._k), _poly(r, scale)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]


def _rf(n: tuple[int, ...], d: tuple[int, ...], k: Fraction) -> RatFun:
    """Trusted constructor of k * N/D; the caller guarantees the canonical form.
    A primitive D of length 1 is (1,), so the value is a Polynomial."""
    f = object.__new__(Polynomial if len(d) == 1 else RatFun)
    object.__setattr__(f, "_k", k)
    object.__setattr__(f, "_n", n)
    object.__setattr__(f, "_d", d)
    return f


RatFun.ZERO = _rf((), (1,), Fraction(0))
RatFun.ONE = _rf((1,), (1,), Fraction(1))
RatFun.X = _rf((0, 1), (1,), Fraction(1))


def _coerce_rf(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (int, Fraction)):
        return _rf((1,), (1,), Fraction(value)) if value else RatFun.ZERO
    return None


def _poly(ints: list[int], scale: Fraction) -> Polynomial:
    """The canonical polynomial scale * sum(ints[i] * x**i); consumes ints."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints or not scale:
        return RatFun.ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        scale = scale * g
    return _rf(tuple(ints), (1,), scale)


def _horner(prim, n: int, d: int, x: float) -> float:
    """(n/d) * sum(prim[i] * x**i) by Horner in double precision; each coefficient
    n*v/d is one correctly rounded int division, whatever form n/d comes in."""
    acc = 0.0
    for v in reversed(prim):
        acc = acc * x + n * v / d
    return acc


# -- integer kernels ------------------------------------------------------------
# Int sequences, ascending, no trailing zero. By Gauss's lemma products and
# exact quotients of primitive parts are primitive, so they need no gcd pass.


def _mul_ints(a, b) -> list[int]:
    """Coefficient convolution of two nonempty int sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _sum(a, ca: Fraction, b, cb: Fraction) -> Polynomial:
    """The canonical polynomial ca*A + cb*B, for nonempty A, B and nonzero ca, cb."""
    if len(a) < len(b):
        a, ca, b, cb = b, cb, a, ca
    # ca*A + cb*B = (ca/v) * (v*A + u*B) with u/v = cb/ca in lowest terms
    ratio = cb / ca
    u, v = ratio.numerator, ratio.denominator
    out = [c * v for c in a]
    for i, c in enumerate(b):
        out[i] += c * u
    return _poly(out, ca / v)


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int]:
    """Pseudo-division of int sequences, b nonzero: s*a = q*b + r, deg r < deg b.
    A step rescales by lc(b) only when lc(b) does not divide its leading
    coefficient, so s is a power of lc(b), and s = 1 when b is monic or
    divides a over Z; q and r are lists without trailing zeros."""
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    s = 1
    for i in reversed(range(len(q))):
        lead = r.pop()
        c, rem = divmod(lead, lb)
        if rem:
            r = [v * lb for v in r]
            q = [v * lb for v in q]
            s *= lb
            c = lead
        q[i] = c
        for j, v in enumerate(b[:-1]):
            r[i + j] -= c * v
    while r and r[-1] == 0:
        r.pop()
    return q, r, s


def _gcd_cof(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(g, a/g, b/g) for nonzero primitive parts, g their primitive gcd: the end
    of the Euclidean remainder sequence, keeping only each remainder's
    primitive part against growth. g divides both over Z, so pseudo-division
    by it is exact; a g of 1 divides nothing."""
    g, r = (a, b) if len(a) > 1 and len(b) > 1 else ((1,), ())
    while r:
        g, r = r, _poly(_pseudo_divmod(g, r)[1], 1)._n
    if len(g) == 1:
        return (1,), a, b
    return g, tuple(_pseudo_divmod(a, g)[0]), tuple(_pseudo_divmod(b, g)[0])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor: _gcd_cof of the stored primitive parts
    made monic, as rescaling by a nonzero rational keeps the gcd. A zero
    argument gives the other's monic form; gcd(0, 0) raises ValueError."""
    if not (a and b):
        if not (a or b):
            raise ValueError("gcd(0, 0) is undefined")
        return (a or b).monic()
    g = _gcd_cof(a._n, b._n)[0]
    return _rf(g, (1,), Fraction(1, g[-1]))


# -- text form -----------------------------------------------------------------
#
# Grammar (round-trips exactly):
#   ratfun  := "(" poly ")/(" poly ")" | poly          denominator 1 is omitted
#   poly    := term (" + " term | " - " term)*         descending powers,
#   term    := coef | coef "*" power | power           zero terms omitted
#   power   := "x" | "x^" int
#   coef    := int | int "/" int                       exact p/q, q > 0


def _term_str(c: Fraction, k: int) -> str:
    # c is positive here; the caller renders signs.
    if k == 0:
        return str(c)
    power = "x" if k == 1 else f"x^{k}"
    if c == 1:
        return power
    return f"{c}*{power}"


def _poly_to_str(p: Polynomial) -> str:
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
    if isinstance(f, Polynomial):
        return _poly_to_str(f)
    return f"({_poly_to_str(f.num)})/({_poly_to_str(f.den)})"


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


def _poly_from_str(text: str) -> Polynomial:
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
        return RatFun(_poly_from_str(m.group("num")), _poly_from_str(m.group("den")))
    return RatFun(_poly_from_str(t))
