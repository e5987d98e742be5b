import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isoreduce.exactnum import (
    NEG_INF,
    PoleError,
    Polynomial,
    RatFun,
    _gcd_cof,
    _pseudo_divmod,
    poly_gcd,
    ratfun_from_str,
    ratfun_to_str,
)
from isoreduce.netmat import RfMatrix

X = Polynomial.X


def P(*ascending):
    return Polynomial(ascending)


# -- polynomial basics ---------------------------------------------------------


def test_canonical_storage_strips_trailing_zeros():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero
    assert P().degree == NEG_INF
    assert P(5).degree == 0


def test_float_inputs_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        RatFun(0.5)


def test_scalar_zero_is_canonical_zero():
    p = P(1, Fraction(2, 3), -4)
    for zero in (p * 0, p * Fraction(0), 0 * p):
        assert zero == Polynomial.ZERO and zero.is_zero
        assert hash(zero) == hash(Polynomial.ZERO)


def test_add_additive_inverse():
    assert P(1, 1) + P(-1, -1) == Polynomial.ZERO


def test_mul_difference_of_squares():
    assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)


def _convolve(a, b):
    # schoolbook coefficient convolution, the independent oracle for mul
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    return out


def test_mul_matches_convolution_oracle():
    a, b = (3, 0, 2), (0, 1)  # 2x^2+3 times x
    assert P(*a) * P(*b) == Polynomial(_convolve(a, b)) == P(0, 3, 0, 2)


def test_divmod_exact_factorization():
    q, r = divmod(P(-1, 0, 1), P(-1, 1))
    assert q == P(1, 1) and r.is_zero


def test_divmod_low_degree_numerator():
    q, r = divmod(X, X * X)
    assert q.is_zero and r == X


def test_divmod_reconstruction_oracle():
    a, b = P(1, 2, 0, 1), P(1, 1)  # x^3+2x+1 by x+1
    q, r = divmod(a, b)
    assert q == P(3, -1, 1) and r == P(-2)
    assert b * q + r == a


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Polynomial.ZERO)


def _integer_roots(p, bound=9):
    return [r for r in range(-bound, bound + 1) if (p % Polynomial((-r, 1))).is_zero]


def test_gcd_shared_factor():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)


def test_gcd_coprime():
    assert poly_gcd(X, P(1, 1)) == Polynomial.ONE


def test_gcd_via_integer_root_factoring_oracle():
    a, b = P(0, -1, 0, 1), P(-1, 0, 1)  # x^3-x and x^2-1
    shared = set(_integer_roots(a)) & set(_integer_roots(b))
    assert shared == {-1, 1}
    expected = Polynomial.ONE
    for root in sorted(shared):
        expected = expected * P(-root, 1)
    assert poly_gcd(a, b) == expected == P(-1, 0, 1)


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(ValueError):
        poly_gcd(Polynomial.ZERO, Polynomial.ZERO)


# -- rational functions ---------------------------------------------------------


def test_ratfun_like_denominators():
    f = RatFun(1, X)
    assert f + f == RatFun(2, X)


def test_ratfun_multiplicative_inverse():
    assert RatFun(1, X) * RatFun.X == RatFun.ONE


def test_ratfun_add_cross_multiply_oracle():
    a = RatFun(1, P(-1, 1))
    b = RatFun(1, P(1, 1))
    # oracle: plain cross-multiplication, canonicalized by the constructor
    oracle = RatFun(a.num * b.den + b.num * a.den, a.den * b.den)
    assert a + b == oracle == RatFun(P(0, 2), P(-1, 0, 1))


def test_ratfun_canonical_form():
    f = RatFun(P(0, 2), P(0, 0, 4))  # 2x / 4x^2 reduces to (1/2)/x
    assert f.num == P(Fraction(1, 2)) and f.den == P(0, 1)
    assert f.den.leading == 1
    assert RatFun(P(-1, 0, 1), P(-1, 1)) == RatFun(P(1, 1))


def test_ratfun_zero_representation():
    z = RatFun(0, P(3, 1))
    assert z.num.is_zero and z.den == Polynomial.ONE
    assert z == RatFun.ZERO


def test_ratfun_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFun(1, Polynomial.ZERO)


def test_ratfun_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFun.ONE / RatFun.ZERO


def test_eval_simple():
    assert RatFun(1, X)(2.0) == 0.5


def test_eval_cancels_first():
    assert RatFun(P(-1, 0, 1), P(-1, 1))(3.0) == 4.0


@pytest.mark.parametrize("c", [-3, Fraction(-7, 4), Fraction(5, 6), Fraction(-1, 9), 0, 12])
def test_constant_as_fraction_round_trip(c):
    assert RatFun(c).as_fraction() == c


def test_eval_pole():
    with pytest.raises(PoleError) as err:
        RatFun(1, X)(0.0)
    assert err.value.x == 0.0


def test_eval_raises_only_where_the_denominator_is_zero():
    f = RatFun(1, X - 1)
    assert f(1 + 2**-40) == 2.0**40
    with pytest.raises(PoleError):
        f(1.0)


# -- one value, one class ----------------------------------------------------------


def test_constants_shared_between_classes():
    assert RatFun.ZERO is Polynomial.ZERO
    assert RatFun.ONE is Polynomial.ONE
    assert RatFun.X is Polynomial.X
    assert RatFun(Polynomial.X) is Polynomial.X
    assert repr(Polynomial.X) == "Polynomial('x')"
    assert repr(RatFun(1, X)) == "RatFun('(1)/(x)')"


def test_equal_values_hash_equal():
    for values in (
        {3, Fraction(3), RatFun(3), Polynomial([3])},
        {Fraction(-7, 4), RatFun(Fraction(-7, 4))},
        {0, RatFun.ZERO, RatFun(0, Polynomial.X)},
        {Polynomial.X, RatFun.X},
    ):
        assert len(values) == 1


def test_rf_matrix_accepts_polynomial_entries():
    assert RfMatrix(("a",), [[Polynomial.X]]).entry("a", "a") is Polynomial.X


# -- text form -------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (RatFun.ZERO, "0"),
        (RatFun.ONE, "1"),
        (RatFun(Fraction(-3, 2)), "-3/2"),
        (RatFun(P(1, 1)), "x + 1"),
        (RatFun(P(0, -1, 2)), "2*x^2 - x"),
        (RatFun(1, X), "(1)/(x)"),
        (RatFun(P(0, 2), P(-1, 0, 1)), "(2*x)/(x^2 - 1)"),
        (RatFun(P(Fraction(1, 2), -1), P(0, 0, 1)), "(-x + 1/2)/(x^2)"),
    ],
)
def test_known_renderings_round_trip(value, text):
    assert ratfun_to_str(value) == text
    assert ratfun_from_str(text) == value


def test_poly_parse_rejects_garbage():
    for bad in ("", "x^", "2**x", "y + 1", "1 +"):
        with pytest.raises(ValueError):
            ratfun_from_str(bad)


# -- randomized properties --------------------------------------------------------

coeffs = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
polys = st.lists(coeffs, max_size=7).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuns = st.builds(RatFun, polys, nonzero_polys)
nonzero_ratfuns = ratfuns.filter(lambda f: not f.is_zero)


def _to_sympy(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _from_sympy(p):
    return Polynomial(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@settings(max_examples=200)
@given(polys, nonzero_polys, st.fractions(-9, 9, max_denominator=6))
def test_arithmetic_results_are_canonical(a, b, c):
    # a value reached by arithmetic is the one its coefficients construct
    for p in ((a * b) // b, -(-a), a * c, a + b - b, (a * b) % b, a.monic() if a else a):
        rebuilt = Polynomial(p.coeffs)
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert p.coeffs == rebuilt.coeffs and p.leading == rebuilt.leading


@settings(max_examples=300)
@given(polys, nonzero_polys)
def test_divmod_reconstruction(a, b):
    q, r = divmod(a, b)
    assert b * q + r == a
    assert r.degree < b.degree
    # the independent oracle: sympy's division over QQ
    sq, sr = sympy.div(_to_sympy(a), _to_sympy(b))
    assert (q, r) == (_from_sympy(sq), _from_sympy(sr))


def _sympy_monic_gcd(a, b):
    # the independent oracle: sympy's gcd over QQ is monic
    return _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)))


@settings(max_examples=300)
@given(polys, polys)
def test_gcd_divides_both(a, b):
    if a.is_zero and b.is_zero:
        return
    g = poly_gcd(a, b)
    assert g.leading == 1
    for p in (a, b):
        if not p.is_zero:
            assert (p % g).is_zero
    assert g == _sympy_monic_gcd(a, b)


@settings(max_examples=300)
@given(ratfuns, ratfuns, ratfuns)
def test_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=200)
@given(nonzero_ratfuns)
def test_multiplicative_inverse(f):
    assert f * (RatFun.ONE / f) == RatFun.ONE


@settings(max_examples=300)
@given(ratfuns, ratfuns)
def test_fast_ops_agree_with_plain_cross_multiplication(f, g):
    assert f + g == RatFun(f.num * g.den + g.num * f.den, f.den * g.den)
    assert f - g == RatFun(f.num * g.den - g.num * f.den, f.den * g.den)
    assert f * g == RatFun(f.num * g.num, f.den * g.den)
    if not g.is_zero:
        assert f / g == RatFun(f.num * g.den, f.den * g.num)


@settings(max_examples=300)
@given(ratfuns, nonzero_polys)
def test_canonical_form_unique(f, junk):
    # inflating by any common factor reconstructs the identical representation
    inflated = RatFun(f.num * junk, f.den * junk)
    assert inflated == f
    assert inflated.num == f.num and inflated.den == f.den
    assert f.den.leading == 1
    if not f.is_zero:
        assert poly_gcd(f.num, f.den) == Polynomial.ONE


@settings(max_examples=200)
@given(ratfuns)
def test_text_round_trip(f):
    text = ratfun_to_str(f)
    back = ratfun_from_str(text)
    assert back == f
    assert ratfun_to_str(back) == text


@settings(max_examples=200)
@given(ratfuns, nonzero_polys)
def test_zero_results_are_canonical_zero(f, p):
    for z in (f - f, f * RatFun.ZERO, RatFun.ZERO * f, RatFun(0, p)):
        assert z == RatFun.ZERO and z.is_zero and hash(z) == hash(RatFun.ZERO)
        assert ratfun_to_str(z) == "0"


@settings(max_examples=300)
@given(ratfuns, st.floats(-20, 20, allow_nan=False))
def test_eval_rounds_like_num_over_den(f, x):
    # evaluation is fixed to num(x)/den(x) bit for bit: verify residuals depend on it
    dv = f.den(x)
    assume(dv != 0.0)
    assert f(x).hex() == (f.num(x) / dv).hex()


@settings(max_examples=300)
@given(ratfuns | polys, ratfuns | polys)
def test_class_follows_denominator(f, g):
    results = [f + g, f - g, f * g, -f]
    if not g.is_zero:
        results.append(f / g)
    for h in results:
        assert isinstance(h, Polynomial) == (h.den == Polynomial.ONE)


@settings(max_examples=200)
@given(polys, nonzero_polys, coeffs)
def test_polynomial_operations_return_polynomials(a, b, c):
    for p in (a + b, a - b, a * b, a * c, c * a, -a, *divmod(a, b), a // b, a % b):
        assert type(p) is Polynomial


@settings(max_examples=300)
@given(polys, st.floats(-20, 20, allow_nan=False))
def test_polynomial_eval_is_horner_over_float_coeffs(p, x):
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    assert p(x).hex() == acc.hex()


def _strip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _pad(a, n):
    return list(a) + [0] * (n - len(a))


small_ints = st.integers(-20, 20)
int_seqs = st.lists(small_ints, max_size=6).map(_strip)
int_divisors = st.builds(
    lambda low, lead: low + [lead], st.lists(small_ints, max_size=3), st.sampled_from([1, 2, -3, 6])
)


@settings(max_examples=300)
@given(int_seqs, int_divisors)
def test_pseudo_divmod_identity(a, b):
    q, r, s = _pseudo_divmod(a, b)
    n = len(a) + len(b)
    assert _pad([s * v for v in a], n) == [u + v for u, v in zip(_pad(_convolve(q, b), n), _pad(r, n))]
    assert len(r) < len(b) and r == _strip(r)
    assert s in {b[-1] ** i for i in range(len(a) + 1)}
    if b[-1] == 1:
        assert s == 1


@settings(max_examples=300)
@given(int_divisors, int_divisors)
def test_pseudo_divmod_exact_over_z_needs_no_scaling(b, c):
    a = [int(v) for v in _convolve(b, c)]
    assert _pseudo_divmod(a, b) == (c, [], 1)


def _primitive(seq):
    seq = _strip(int(v) for v in seq)
    g = math.gcd(*seq) if seq[-1] > 0 else -math.gcd(*seq)
    return tuple(v // g for v in seq)


def _sympy_zz_gcd(a, b):
    # the independent oracle: sympy's gcd over ZZ, primitive with a positive leading coefficient
    x = sympy.Symbol("x")
    g = sympy.Poly(a[::-1], x, domain="ZZ").gcd(sympy.Poly(b[::-1], x, domain="ZZ"))
    g = g.primitive()[1]
    return tuple(int(c) for c in reversed((g if g.LC() > 0 else -g).all_coeffs()))


prim_parts = st.lists(small_ints, min_size=1, max_size=6).filter(any).map(_primitive)

# Knuth's coprime pair, whose remainder sequence takes five divisions
KNUTH_A = (-5, 2, 8, -3, -3, 0, 1, 0, 1)
KNUTH_B = (21, -9, -4, 0, 5, 0, 3)


@settings(max_examples=300)
@given(prim_parts, prim_parts, prim_parts)
@example((1,), (1, 2, 1), (1,))
@example((3, 1), (1,), (-1, 1))
@example(KNUTH_A, KNUTH_B, (1,))
@example(KNUTH_A, KNUTH_B, (2, -1, 3))
def test_gcd_cof_matches_sympy_over_zz(a, b, common):
    for a, b in ((a, b), (_primitive(_convolve(a, common)), _primitive(_convolve(b, common)))):
        g, ca, cb = _gcd_cof(a, b)
        assert g == _sympy_zz_gcd(a, b)
        assert _strip(_convolve(g, ca)) == list(a)
        assert _strip(_convolve(g, cb)) == list(b)
