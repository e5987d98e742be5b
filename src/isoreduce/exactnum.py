"""Exact scalar arithmetic: rational functions in one indeterminate, and the
polynomials among them.

The indeterminate is rendered as ``x`` in all text forms. Every value is
immutable and canonical from the moment it is constructed. It stores a
rational p/q times N/D: p and q are ints in lowest terms with q > 0, and N
and D are coprime primitive integer parts (dense, ascending, no trailing
zero, gcd 1, positive leading entry); num and den read it with a monic
denominator. A value with D = (1,) is a polynomial, and its class says so:
the one trusted constructor builds a Polynomial exactly when D = (1,), so
one value always has one class.

The arithmetic builds no Fraction: the scalar p/q is carried as two ints
and kept in lowest terms by cross-cancelled gcds (Knuth, TAOCP Vol. 2,
4.5.1). A Fraction appears only at the public boundary: as_fraction,
coeffs, leading, exact inputs, the text form, the hash and polynomial
divmod, which the reduction path never calls.

Canonical form makes equality and is-zero tests exact, which the degree
counting in the reduction pipeline depends on. Nothing on this path ever
touches floating point; floats appear only in the evaluation helpers.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

__all__ = [
    "PoleError",
    "Polynomial",
    "RatFun",
    "count_nonzero",
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
    """Rational function (p/q) * N/D in canonical form.

    p and q are coprime ints with q > 0; N and D are coprime int tuples,
    each primitive with a positive leading entry; zero is (0/1) * ()/(1,).
    The form is unique, so equality and is-zero checks are plain structural
    comparisons. num and den give the value as Polynomials with a monic
    denominator. Every value with D = (1,) is a Polynomial instance,
    whatever operation made it.
    """

    __slots__ = ("_p", "_q", "_n", "_d")

    ZERO: "Polynomial"
    ONE: "Polynomial"
    X: "Polynomial"

    def __new__(cls, num, den=None):
        f = _coerce_rf(num)
        if f is None:
            raise TypeError(f"expected a RatFun or exact number, got {type(num).__name__}")
        return f if den is None else f / RatFun(den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def num(self) -> "Polynomial":
        # p is coprime to q, so gcd(p, q*lc) = gcd(p, lc)
        p, lc = self._p, self._d[-1]
        g = math.gcd(p, lc)
        return _rf(self._n, (1,), p // g, self._q * (lc // g))

    @property
    def den(self) -> "Polynomial":
        return _rf(self._d, (1,), 1, self._d[-1])

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_constant(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return Fraction(self._p, self._q)

    # -- field operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._n == other._n
            and self._d == other._d
        )

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        k = Fraction(self._p, self._q)
        return hash(k) if self.is_constant else hash((k, self._n, self._d))

    def __neg__(self) -> "RatFun":
        return _rf(self._n, self._d, -self._p, self._q)

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
        g, d1, d2 = _gcd_cof_cached(self._d, other._d)
        a, b = _mul_ints(self._n, d2), _mul_ints(other._n, d1)
        t = _sum(a, self._p, self._q, b, other._p, other._q)
        if not t._n:
            return t
        _, n, e = _gcd_cof(t._n, g)  # e = g / gcd(T, g)
        return _rf(n, tuple(_mul_ints(_mul_ints(d1, d2), e)), t._p, t._q)

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
        _, n1, d2 = _gcd_cof_cached(self._n, other._d)
        _, n2, d1 = _gcd_cof_cached(other._n, self._d)
        # the scalars cancel the same way: each p against the other's q
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        g1, g2 = math.gcd(p1, q2), math.gcd(p2, q1)
        n, d = tuple(_mul_ints(n1, n2)), tuple(_mul_ints(d1, d2))
        return _rf(n, d, (p1 // g1) * (p2 // g2), (q1 // g2) * (q2 // g1))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_rf(other)
        if other is None:
            return NotImplemented
        p, q = other._p, other._q
        if not p:
            raise ZeroDivisionError("division by the zero rational function")
        if p < 0:  # keep the inverse's denominator positive
            p, q = -p, -q
        return self * _rf(other._d, other._n, q, p)

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
        lc = self._d[-1]
        dv = _horner(self._d, 1, lc, x)
        if dv == 0.0:
            raise PoleError(x)
        return _horner(self._n, self._p, self._q * lc, x) / dv

    def __repr__(self):
        return f"{type(self).__name__}({ratfun_to_str(self)!r})"

    def __str__(self):
        return ratfun_to_str(self)


class Polynomial(RatFun):
    """Dense univariate polynomial over Q: a RatFun whose D is (1,).

    p/q is the content and N the primitive part, so (p/q) * N[i] multiplies
    x**i. Equality, hashing and the field operations are RatFun's; only the
    zero polynomial has p = 0 and N = (), and its degree is -inf.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        # a list: *generator builds a resized tuple, which piles up on CPython's free lists
        d = math.lcm(*[c.denominator for c in cs])
        return _poly([c.numerator * (d // c.denominator) for c in cs], 1, d)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        p, q = self._p, self._q
        return tuple([Fraction(p * v, q) for v in self._n])

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self._n) - 1 if self._n else NEG_INF

    @property
    def leading(self) -> Fraction:
        return Fraction(self._p * self._n[-1], self._q) if self._n else Fraction(0)

    def monic(self) -> "Polynomial":
        if not self._n:
            raise ValueError("the zero polynomial has no monic form")
        return _rf(self._n, (1,), 1, self._n[-1])

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q: self = q*other + r with deg r < deg other,
        by schoolbook long division of the Fraction coefficients."""
        other = _coerce_rf(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("polynomial division by zero")
        r, b = list(self.coeffs), other.coeffs
        q = [0] * (len(r) - len(b) + 1)
        for i in reversed(range(len(q))):
            c = q[i] = r.pop() / b[-1]
            for j, v in enumerate(b[:-1]):
                r[i + j] -= c * v
        return Polynomial(q), Polynomial(r)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]


_set_p = RatFun._p.__set__
_set_q = RatFun._q.__set__
_set_n = RatFun._n.__set__
_set_d = RatFun._d.__set__


def _rf(n: tuple[int, ...], d: tuple[int, ...], p: int, q: int) -> RatFun:
    """Trusted constructor of (p/q) * N/D; the caller guarantees the canonical
    form. A primitive D of length 1 is (1,), so the value is a Polynomial.
    The slots are set through their descriptors, past the immutability guard."""
    f = object.__new__(Polynomial if len(d) == 1 else RatFun)
    _set_p(f, p)
    _set_q(f, q)
    _set_n(f, n)
    _set_d(f, d)
    return f


RatFun.ZERO = _rf((), (1,), 0, 1)
RatFun.ONE = _rf((1,), (1,), 1, 1)
RatFun.X = _rf((0, 1), (1,), 1, 1)


def _coerce_rf(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, (int, Fraction)):
        return _rf((1,), (1,), value.numerator, value.denominator) if value else RatFun.ZERO
    return None


def count_nonzero(values) -> int:
    """How many of the RatFuns are nonzero: the exact is-zero test, read off
    the canonical numerator."""
    return sum(1 for v in values if v._n)


def _poly(ints: list[int], p: int, q: int) -> Polynomial:
    """The canonical polynomial (p/q) * sum(ints[i] * x**i), p/q in lowest
    terms with q > 0; consumes ints."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints or not p:
        return RatFun.ZERO
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
        # p is coprime to q, so only g can share a factor with q
        h = math.gcd(g, q)
        p, q = p * (g // h), q // h
    return _rf(tuple(ints), (1,), p, q)


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
    # A unit factor is the common case: equal or unit denominators in a sum.
    if len(b) == 1 and b[0] == 1:
        return list(a)
    if len(a) == 1 and a[0] == 1:
        return list(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return out


def _sum(a, pa: int, qa: int, b, pb: int, qb: int) -> Polynomial:
    """The canonical polynomial (pa/qa)*A + (pb/qb)*B, for nonempty A, B and
    nonzero scalars in lowest terms with positive denominators."""
    if len(a) < len(b):
        a, pa, qa, b, pb, qb = b, pb, qb, a, pa, qa
    # With g = gcd(pa, pb) and h = gcd(qa, qb), write pa = g*a1, qa = h*a2,
    # pb = g*b1, qb = h*b2. Then the sum is (g/(h*a2*b2)) * (a1*b2*A + b1*a2*B),
    # and that scalar is in lowest terms: g divides pa and pb, and h*a2*b2
    # divides qa*qb, which pa and pb are each coprime to.
    g = math.gcd(pa, pb)
    h = math.gcd(qa, qb)
    a2, b2 = qa // h, qb // h
    u, v = pa // g * b2, pb // g * a2
    out = [c * u for c in a]
    for i, c in enumerate(b):
        out[i] += c * v
    return _poly(out, g, h * a2 * b2)


def _eval_int(a, xi: int) -> int:
    """sum(a[i] * xi**i) by Horner over Z."""
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _lift(v: int, xi: int) -> tuple[int, ...]:
    """The primitive part of the polynomial whose coefficients are the
    symmetric base-xi digits of v, each in (-xi/2, xi/2]; v is positive, and
    so is the top digit: the last step must see 1 <= v <= xi/2, or v would
    not reach 0."""
    half = xi // 2
    out = []
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        out.append(d)
    g = math.gcd(*out)
    return tuple(out) if g == 1 else tuple([d // g for d in out])


def _quo(a, b) -> tuple[int, ...] | None:
    """a/b over Z for int sequences, b nonzero; None when b does not divide a there."""
    n = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - n)
    for i in reversed(range(len(q))):
        c, rem = divmod(r[i + n], lb)
        if rem:
            return None
        q[i] = c
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    return None if any(r[:n]) else tuple(q)


def _gcd_cof(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(g, a/g, b/g) for nonzero primitive parts, g their primitive gcd.

    GCDHEU, the heuristic gcd (Char, Geddes & Gonnet, J. Symb. Comp. 1989;
    Liao & Fateman 1995). Evaluate a and b at an integer
    xi >= 2*min(|a|, |b|) + 29, |.| the max norm, and take the integer gcd
    c of a(xi) and b(xi). The candidate h is the primitive part of the
    polynomial spelled by c's symmetric base-xi digits. h is accepted only
    if it divides both a and b over Z, and those exact divisions are the
    cofactors. Otherwise xi grows by the schedule of sympy's
    dup_zz_heu_gcd, and the steps repeat.

    Every root of the input s of smaller norm has modulus below
    1 + |s| <= xi/2 - 13. So s(xi) is not 0 and c >= 1, and every
    nonconstant factor u of s has |u(xi)| > xi/2. An accepted h is the gcd
    G. h divides both inputs, so G = h*u over Z, and u divides s. But G(xi)
    divides c = k*h(xi), k the content of c's digits, so u(xi) divides k,
    and |k| <= xi/2. So u is a constant, and h = G, as both are primitive
    with a positive leading entry. A constant h divides both inputs, so it
    is returned without the divisions.

    The loop ends. Write a = G*P, b = G*Q with P, Q coprime. Then
    S*P + T*Q = r over Z for the resultant r of P and Q, a nonzero integer,
    so c = |G(xi)|*gamma with gamma dividing r. Once xi > 2*|r|*|G| and
    neither input vanishes at xi, c's symmetric digits spell +-gamma*G, and
    the candidate is G. Each step multiplies xi by more than 5."""
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    if a == b:
        return a, (1,), (1,)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        h = _lift(math.gcd(_eval_int(a, xi), _eval_int(b, xi)), xi)
        if len(h) == 1:
            return (1,), a, b
        ca = _quo(a, h)
        cb = ca and _quo(b, h)
        if cb:
            return h, ca, cb
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


@functools.lru_cache(maxsize=2048)
def _gcd_cof_cached(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """_gcd_cof(a, b), remembered for the 2048 most recent argument pairs.

    Three gcd sites ask the same question again and again: the denominator
    gcd in RatFun.__add__ and the two cross gcds in RatFun.__mul__, which
    division goes through. A reduction's entries share few distinct
    denominators: a 60x40 bipartite hierarchy asks 179 distinct pairs in
    21,345 calls, and removing 30 of its 100 nodes at once asks 1,762. The
    bound of 2048 holds those and keeps a long-running caller's memory flat.
    The answer is an immutable triple, so a hit returns exactly what a call
    would. The gcd of a sum against g in __add__ stays uncached: its
    numerators rarely repeat (13,506 distinct pairs in 17,407 calls on that
    removal), so caching it would churn the memo and hold large tuples.
    _gcd_cof is looked up when this is called, so a wrapper put on the
    module attribute sees every miss."""
    return _gcd_cof(a, b)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor: _gcd_cof of the stored primitive parts
    made monic, as rescaling by a nonzero rational keeps the gcd. A zero
    argument gives the other's monic form; gcd(0, 0) raises ValueError."""
    if not (a and b):
        if not (a or b):
            raise ValueError("gcd(0, 0) is undefined")
        return (a or b).monic()
    g = _gcd_cof(a._n, b._n)[0]
    return _rf(g, (1,), 1, g[-1])


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
    for k in range(len(p._n) - 1, -1, -1):
        if not p._n[k]:
            continue
        c = Fraction(p._p * p._n[k], p._q)
        if not parts:
            parts.append(("-" if c < 0 else "") + _term_str(abs(c), k))
        else:
            parts.append((" - " if c < 0 else " + ") + _term_str(abs(c), k))
    return "".join(parts)


def ratfun_to_str(f: RatFun) -> str:
    if isinstance(f, Polynomial):
        return _poly_to_str(f)
    return f"({_poly_to_str(f.num)})/({_poly_to_str(f.den)})"


# Far above any degree the package produces: a reduced entry's degree is at
# most the number of removed nodes, and the package aims at networks of a few
# thousand nodes. Arithmetic on a parsed value sets the bound: GCDHEU's
# integer Horner evaluation grows with the square of the degree, so a
# quotient of degree 10**5 takes about a second and one of 10**6 does not
# finish.
_MAX_EXPONENT = 10**4

_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)(?:\*(?=x))?)?(?:(?P<x>x)(?:\^(?P<pow>\d+))?)?$"
)


def _parse_term(text: str) -> tuple[Fraction, int]:
    m = _TERM_RE.match(text)
    if not m or (m.group("coef") is None and m.group("x") is None):
        raise ValueError(f"malformed polynomial term: {text!r}")
    try:
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in polynomial term: {text!r}") from None
    if m.group("x") is None:
        return coef, 0
    power = int(m.group("pow")) if m.group("pow") else 1
    if power > _MAX_EXPONENT:
        # the text form is dense, so a 13-character term could ask for 10**11 coefficients
        raise ValueError(f"exponent above {_MAX_EXPONENT} in polynomial term: {text!r}")
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
        den = _poly_from_str(m.group("den"))
        if den.is_zero:
            raise ValueError(f"zero denominator polynomial: {text!r}")
        return RatFun(_poly_from_str(m.group("num")), den)
    return RatFun(_poly_from_str(t))
