import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dgg_expected import BLOCK_KEEP
from helpers import (
    P,
    block_formula,
    field_rows,
    from_roots,
    integer_roots,
    sympy_divmod,
    sympy_monic_gcd,
    sympy_zz_gcd,
    to_field,
)
from isoreduce import exactnum
from isoreduce.exactnum import (
    NEG_INF,
    PoleError,
    Polynomial,
    RatFun,
    _gcd_cof,
    _quo,
    poly_gcd,
    ratfun_from_str,
    ratfun_to_str,
)
from isoreduce.hierarchy import sequential_reduce
from isoreduce.isored import reduce
from isoreduce.netmat import RfMatrix, bipartite_adjacency, parse_incidence_csv

X = Polynomial.X


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
    with pytest.raises(TypeError, match="got float"):
        RatFun(1, 0.5)
    for op in (
        lambda: X + 1.5,
        lambda: 1.5 + X,
        lambda: X - 1.5,
        lambda: 1.5 - X,
        lambda: X * 1.5,
        lambda: X / 1.5,
        lambda: 1.5 / X,
    ):
        with pytest.raises(TypeError):
            op()
    assert (X == 1.5) is False


def test_reflected_operands():
    assert ratfun_to_str(1 - X) == "-x + 1"
    assert ratfun_to_str(Fraction(1, 2) - X) == "-x + 1/2"
    assert ratfun_to_str(2 / X) == "(2)/(x)"
    with pytest.raises(ZeroDivisionError):
        1 / RatFun.ZERO


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
    # a divisor whose leading coefficient does not divide the dividend's
    assert divmod(P(0, 0, 1), P(1, 2)) == (P(Fraction(-1, 4), Fraction(1, 2)), P(Fraction(1, 4)))


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Polynomial.ZERO)


def test_misuse_raises():
    with pytest.raises(ValueError, match="no monic form"):
        Polynomial.ZERO.monic()
    with pytest.raises(TypeError):
        divmod(X, RatFun(1, X))
    for value in (X, RatFun(1, X)):
        with pytest.raises(AttributeError, match="immutable"):
            value._p = 2


def test_gcd_shared_factor():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)


def test_gcd_coprime():
    assert poly_gcd(X, P(1, 1)) == Polynomial.ONE


def test_gcd_via_integer_root_factoring_oracle():
    a, b = P(0, -1, 0, 1), P(-1, 0, 1)  # x^3-x and x^2-1
    # the independent oracle: sympy finds the roots and multiplies their factors out
    shared = set(integer_roots(a)) & set(integer_roots(b))
    assert shared == {-1, 1}
    assert poly_gcd(a, b) == from_roots(shared) == P(-1, 0, 1)


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
    # oracle: the sum in sympy's QQ(x)
    assert to_field(a + b) == to_field(a) + to_field(b)
    assert a + b == RatFun(P(0, 2), P(-1, 0, 1))


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
    bad_inputs = ("", "x^", "2**x", "y + 1", "1 +")
    zero_denominators = ("1/0", "(1)/(0)", "(x)/(0*x)", "x + 3/0*x^2")
    huge_exponents = ("x^99999999999",)  # would ask for 10**11 dense coefficients
    for bad in bad_inputs + zero_denominators + huge_exponents:
        with pytest.raises(ValueError):
            ratfun_from_str(bad)


def test_poly_parse_names_the_term_and_the_exponent_limit():
    limit = exactnum._MAX_EXPONENT
    with pytest.raises(ValueError, match=rf"above {limit} .*'3\*x\^{limit + 1}'"):
        ratfun_from_str(f"x + 3*x^{limit + 1}")
    text = f"-x^{limit} + 1/2*x"
    value = ratfun_from_str(text)
    assert value.degree == limit
    assert ratfun_to_str(value) == text


def test_quotient_at_the_exponent_limit_parses_and_round_trips():
    # building a quotient runs GCDHEU, whose integer Horner evaluation grows
    # with the square of the degree: at the limit it takes a fraction of a second
    limit = exactnum._MAX_EXPONENT
    for den in ("x^3 + 2", f"x^{limit} + 2"):
        text = f"(3/2*x^{limit} - 1)/({den})"
        assert ratfun_to_str(ratfun_from_str(text)) == text


# -- randomized properties --------------------------------------------------------

coeffs = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)
polys = st.lists(coeffs, max_size=7).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfuns = st.builds(RatFun, polys, nonzero_polys)
nonzero_ratfuns = ratfuns.filter(lambda f: not f.is_zero)


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
    assert (q, r) == sympy_divmod(a, b)


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
    assert g == sympy_monic_gcd(a, b)


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
    # the independent oracle: the same operation in sympy's QQ(x)
    a, b = to_field(f), to_field(g)
    pairs = [(f + g, a + b), (f - g, a - b), (f * g, a * b)]
    if not g.is_zero:
        pairs.append((f / g, a / b))
    for got, want in pairs:
        assert to_field(got) == want


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


# -- the int scalar ---------------------------------------------------------------


def _assert_int_scalar(f):
    """f's scalar p/q is two ints in lowest terms with q > 0, and the
    Fractions f gives out at its public boundary agree with them."""
    p, q = f._p, f._q
    assert type(p) is int and type(q) is int
    assert q > 0 and math.gcd(p, q) == 1
    if isinstance(f, Polynomial):
        cs = f.coeffs
        assert cs == tuple(Fraction(p * v, q) for v in f._n)
        assert f.leading == (cs[-1] if cs else 0)
        rebuilt = Polynomial(cs)
    else:
        rebuilt = RatFun(Polynomial(f.num.coeffs), Polynomial(f.den.coeffs))
    assert f == rebuilt and hash(f) == hash(rebuilt)
    if f.is_constant:
        c = f.as_fraction()
        assert c == Fraction(p, q) and f == c and hash(f) == hash(c)


@settings(max_examples=100)
@given(ratfuns, nonzero_ratfuns, polys, nonzero_polys)
@example(RatFun(Fraction(1, 2)), RatFun(-2), P(Fraction(2, 3)), P(-4))  # negative divisor
@example(RatFun(Fraction(2, 3)), RatFun(Fraction(-9, 4)), P(6), P(3, 0, Fraction(-3, 2)))
# sums whose scalar needs the content's gcd against the denominator: (2/3)x + (4/9)x
# = (10/9)x; (1/2)(1 + x) + (1/2)(1 - x) = 1; and the first over a shared x + 1
@example(P(0, Fraction(2, 3)), P(0, Fraction(4, 9)), P(0, 2), P(0, 4))
@example(P(Fraction(1, 2), Fraction(1, 2)), P(Fraction(1, 2), Fraction(-1, 2)), P(1, 1), P(1, -1))
@example(RatFun(P(0, Fraction(2, 3)), P(1, 1)), RatFun(P(0, Fraction(4, 9)), P(1, 1)), P(1), P(1, 1))
def test_scalar_stays_a_coprime_int_pair(f, g, a, b):
    results = [f + g, f - g, f * g, g * f, f / g, g / f if f else g, -f, -g, f.num, f.den, g.num]
    results += [g.den, RatFun(a, b), *divmod(a, b), *divmod(b, a if a else b), b.monic()]
    results += [ratfun_from_str(str(r)) for r in results]
    for r in results:
        _assert_int_scalar(r)


scalars = st.integers(-50, 50) | st.fractions(-9, 9, max_denominator=12)


@settings(max_examples=300)
@given(scalars, scalars.filter(bool), polys)
@example(Fraction(1, 2), 2, P(Fraction(2, 3)))  # each cross-gcd cancels on its own
@example(2, Fraction(1, 2), P(Fraction(2, 3)))
@example(Fraction(3, 4), -6, P(1))  # a negative divisor
@example(0, 1, P(1))
def test_constant_arithmetic_matches_fractions(a, b, p):
    ra, rb = RatFun(a), RatFun(b)
    pairs = [(ra + rb, a + b), (ra - rb, a - b), (ra * rb, a * b), (rb * ra, b * a)]
    pairs += [(ra / rb, Fraction(a) / b), (-ra, -a)]
    if a:
        pairs.append((rb / ra, Fraction(b) / a))
    for got, want in pairs:
        _assert_int_scalar(got)
        assert got.as_fraction() == want and got == want and hash(got) == hash(want)
    assert (ra * p).coeffs == (tuple(a * c for c in p.coeffs) if a else ())
    assert (p / rb).coeffs == tuple(c / b for c in p.coeffs)
    assert (p * rb).leading == b * p.leading


def _strip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


small_ints = st.integers(-20, 20)


def _primitive(seq):
    seq = _strip(int(v) for v in seq)
    g = math.gcd(*seq) if seq[-1] > 0 else -math.gcd(*seq)
    return tuple(v // g for v in seq)


prim_parts = (
    st.lists(small_ints | st.integers(-(2**100), 2**100), min_size=1, max_size=6)
    .filter(any)
    .map(_primitive)
)

# Knuth's coprime pair, whose remainder sequence takes five divisions
KNUTH_A = (-5, 2, 8, -3, -3, 0, 1, 0, 1)
KNUTH_B = (21, -9, -4, 0, 5, 0, 3)


def _assert_gcd_cof(a, b):
    g, ca, cb = _gcd_cof(a, b)
    # the independent oracle: sympy's gcd over ZZ
    assert g == sympy_zz_gcd(a, b)
    assert _strip(_convolve(g, ca)) == list(a)
    assert _strip(_convolve(g, cb)) == list(b)


@settings(max_examples=300)
@given(prim_parts, prim_parts, prim_parts)
@example((1,), (1, 2, 1), (1,))
@example((3, 1), (1,), (-1, 1))
@example(KNUTH_A, KNUTH_B, (1,))
@example(KNUTH_A, KNUTH_B, (2, -1, 3))
@example(KNUTH_A, KNUTH_A, (1,))  # equal inputs
@example((5, 2**90, 3), (5, 2**90, 3), (-7, 2))
@example((-1, 1), (-1, 0, 1), (3, 1))  # one input a multiple of the other
@example((1, 1), (-31, 1), (1,))  # b vanishes at the first point, 2*1 + 29
# b = (x+1)(x-35) vanishes at the first point 35; the candidate there,
# (x+1)(x+2), does not divide b, and the grown point 191 gives x + 1
@example((2, 3, 1), (-35, -34, 1), (1,))
@example((2**99 + 1, -3, 1), (2, 1), (2**99 + 1, -3, 1))  # a gcd with a 2^99 coefficient
def test_gcd_cof_matches_sympy_over_zz(a, b, common):
    for a, b in ((a, b), (_primitive(_convolve(a, common)), _primitive(_convolve(b, common)))):
        _assert_gcd_cof(a, b)


# Pairs whose first evaluation point misses. A scan of 200,000 random pairs
# a = g*p, b = g*q (coefficients in [-9, 9], degrees up to 3 each), recording
# the points each call evaluated at, found pairs answered at a grown point.
# The scan's pair has the gcd x + 1. The other two are built from a gcd wider
# than its multiple: BINOM_6 = (x+1)^6 has the coefficient 20, over half of
# the first point 2*5 + 29 = 39 (5 is the norm of BINOM_6 * (x-1)(x^2-x+1)),
# so digits cannot spell it there, and the candidate misses at 39. The grown
# point 213 spells it, and the candidate there is (x+1)^6.
BINOM_6 = (1, 6, 15, 20, 15, 6, 1)
SMALL_COFACTOR = _primitive(_convolve(BINOM_6, _convolve((-1, 1), (1, -1, 1))))


def _points_used(monkeypatch, a, b):
    points = set()

    def spy(seq, xi):
        points.add(xi)
        return eval_int(seq, xi)

    eval_int = exactnum._eval_int
    monkeypatch.setattr(exactnum, "_eval_int", spy)
    _assert_gcd_cof(a, b)
    return sorted(points)


@pytest.mark.parametrize(
    "a, b, points",
    [
        ((-9, -8, 1), (-5, 3, 0, -1, 7), [43, 234]),
        (SMALL_COFACTOR, _primitive(_convolve(BINOM_6, (2, 1))), [39, 213]),
        (_primitive(_convolve(BINOM_6, (50, 1))), SMALL_COFACTOR, [39, 213]),
    ],
    ids=["scan-pair", "binom6-small-a", "binom6-small-b"],
)
def test_gcd_cof_grows_the_point_after_a_miss(monkeypatch, a, b, points):
    assert _points_used(monkeypatch, a, b) == points


def test_gcd_cof_starts_at_the_bound():
    # Pins the first point at the bound 2*19601 + 29 = 39231, the one the
    # proof in _gcd_cof's docstring uses. At a point below it, such as
    # 99*isqrt(39231) = 19602, the common factor x - 19601 evaluates to 1, so
    # it drops out of the integer gcd, and the candidate 1 would be returned.
    a = _primitive(_convolve((-19601, 1), (1, 1)))
    b = _primitive(_convolve((-19601, 1), (2, 1)))
    _assert_gcd_cof(a, b)
    assert _gcd_cof(a, b)[0] == (-19601, 1)


def test_gcd_cof_rejects_a_candidate_longer_than_the_dividend():
    # The shorter input has the larger norm, so the first point is
    # 2*3 + 29 = 35, and both inputs take the value 128696 there. The
    # candidate is then the longer input, which cannot divide the shorter.
    a, b = (1, 3677), (1, 2, 0, 3)
    assert _quo(a, b) is None
    assert _gcd_cof(a, b) == ((1,), a, b)


# -- the gcd memo ------------------------------------------------------------------

MEMO = exactnum._gcd_cof_cached


def test_gcd_memo_is_bounded():
    # a library caller must not see memory grow without bound
    assert isinstance(MEMO.cache_info().maxsize, int)


def test_gcd_memo_hits_on_the_synth_hierarchy(synth_csv):
    m = bipartite_adjacency(parse_incidence_csv(synth_csv.read_text(encoding="utf-8")))
    MEMO.cache_clear()
    sequential_reduce(m)
    info = MEMO.cache_info()
    assert info.hits > 0
    assert info.currsize <= info.maxsize
    # every distinct pair fits: nothing was evicted
    assert info.misses == info.currsize


def test_gcd_of_a_sum_against_g_is_not_memoized(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return gcd_cof(a, b)

    # 1/((x+1)(x+2)) + 1/((x+1)(x+3)): g = x + 1 and T = (x + 3) + (x + 2)
    f, h, total = RatFun(1, P(2, 3, 1)), RatFun(1, P(3, 4, 1)), RatFun(P(5, 2), P(6, 11, 6, 1))
    gcd_cof = exactnum._gcd_cof
    monkeypatch.setattr(exactnum, "_gcd_cof", spy)
    MEMO.cache_clear()
    assert f + h == total
    assert f + h == total
    # the denominator gcd is asked once, the gcd of T against g every time
    denominators, sum_against_g = ((2, 3, 1), (3, 4, 1)), ((5, 2), (1, 1))
    assert calls == [denominators, sum_against_g, sum_against_g]


def test_block_reduce_equal_with_cold_and_warm_memo(dgg_matrix):
    keep = BLOCK_KEEP.split()
    MEMO.cache_clear()
    cold = reduce(dgg_matrix, keep).reduced
    misses = MEMO.cache_info().misses
    warm = reduce(dgg_matrix, keep).reduced
    assert MEMO.cache_info().misses == misses
    assert warm == cold
    # the independent oracle, in sympy's QQ(x)
    assert field_rows(cold.entries) == block_formula(dgg_matrix, keep)
