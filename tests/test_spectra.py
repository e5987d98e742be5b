import json
import math
import random

import pytest
import sympy

from isoreduce.exactnum import Polynomial, RatFun
from isoreduce import isored, spectra
from isoreduce.cli import spectrum_json
from isoreduce.isored import ReductionResult, reduce
from isoreduce.netmat import RfMatrix
from isoreduce.spectra import eval_det, sym_eigenvalues, verify_spectrum

X = RatFun.X


def P(*ascending):
    return Polynomial(ascending)


def path3():
    return RfMatrix(("1", "2", "3"), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def _charpoly_int(matrix):
    """Characteristic polynomial det(tI - M) by fraction-free (Bareiss)
    elimination over integer polynomials; the oracle for the Jacobi solver."""

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return out

    def psub(a, b):
        out = list(a) + [0] * (len(b) - len(a))
        for i, cb in enumerate(b):
            out[i] -= cb
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def pdiv_exact(a, b):
        # exact long division of integer polynomials
        a = list(a)
        q = [0] * max(1, len(a) - len(b) + 1)
        while len(a) >= len(b) and any(a):
            shift = len(a) - len(b)
            c = a[-1] // b[-1]
            assert c * b[-1] == a[-1]
            q[shift] = c
            for i, cb in enumerate(b):
                a[shift + i] -= c * cb
            while len(a) > 1 and a[-1] == 0:
                a.pop()
            if not any(a):
                break
        return q

    n = len(matrix)
    a = [[[-matrix[i][j], 1] if i == j else [-matrix[i][j]] for j in range(n)] for i in range(n)]
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if a[k][k] == [0] or not any(a[k][k]):
            swap = next((r for r in range(k + 1, n) if any(a[r][k])), None)
            if swap is None:
                continue
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(a[i][j], a[k][k]), pmul(a[i][k], a[k][j]))
                a[i][j] = pdiv_exact(num, prev)
        prev = a[k][k]
    out = a[n - 1][n - 1]
    return [sign * c for c in out]


# -- jacobi ---------------------------------------------------------------------


def test_diagonal_matrix():
    assert sym_eigenvalues([[2.0, 0.0], [0.0, 3.0]]) == [2.0, 3.0]


def test_exchange_matrix():
    vals = sym_eigenvalues([[0.0, 1.0], [1.0, 0.0]])
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_path3_eigenvalues():
    # characteristic polynomial of the path is t^3 - 2t, roots 0 and +-sqrt(2)
    vals = sym_eigenvalues([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert vals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-10)


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_sweep_cap_raises(monkeypatch):
    from isoreduce import spectra

    monkeypatch.setattr(spectra, "_SWEEP_CAP", 0)
    with pytest.raises(spectra.ConvergenceError):
        sym_eigenvalues([[0.0, 1.0], [1.0, 0.0]])


def test_jacobi_against_charpoly_roots():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 8)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
        got = sym_eigenvalues(m)
        coeffs = _charpoly_int(m)
        charpoly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("t"))
        # exact real roots, repeated by multiplicity, in ascending order
        roots = [float(r) for r in sympy.real_roots(charpoly)]
        assert len(roots) == n
        assert got == pytest.approx(roots, abs=1e-8)


# -- determinant evaluation -------------------------------------------------------


def test_eval_det_identity_constants():
    grid = [[RatFun.ONE, RatFun.ZERO], [RatFun.ZERO, RatFun.ONE]]
    assert eval_det(grid, 17.5) == 1.0


def test_eval_det_reciprocal():
    assert eval_det([[RatFun(1, Polynomial.X)]], 2.0) == 0.5


def test_eval_det_path3_reduction_root():
    red = reduce(path3(), ("1", "3")).reduced
    grid = [
        [red.entries[0][0] - X, red.entries[0][1]],
        [red.entries[1][0], red.entries[1][1] - X],
    ]
    # symbolic 2x2 determinant collapses to x^2 - 2
    det = grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    assert det == RatFun(P(-2, 0, 1))
    assert abs(eval_det(grid, math.sqrt(2))) < 1e-9


def test_eval_det_matches_symbolic_determinant():
    rng = random.Random(55)

    def sym_det(g):
        n = len(g)
        if n == 1:
            return g[0][0]
        total = RatFun.ZERO
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in g[1:]]
            term = g[0][j] * sym_det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    for _ in range(15):
        n = rng.randint(1, 4)
        grid = [
            [
                RatFun(P(rng.randint(-3, 3), rng.randint(-2, 2)), P(rng.randint(1, 3), 1))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        x = rng.uniform(2.0, 5.0)
        expected = sym_det(grid)(x)
        assert eval_det(grid, x) == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


def test_eval_det_pole_propagates():
    from isoreduce.exactnum import PoleError

    with pytest.raises(PoleError):
        eval_det([[RatFun(1, Polynomial.X)]], 0.0)


def test_eval_det_raises_only_at_an_exact_pole():
    from isoreduce.exactnum import PoleError

    grid = [[RatFun(1, Polynomial.X - 1)]]
    assert eval_det(grid, 1 + 2**-40) == 2.0**40
    with pytest.raises(PoleError):
        eval_det(grid, 1.0)


# -- full verification --------------------------------------------------------------


def test_verify_path3_excludes_shared_zero():
    report = verify_spectrum(path3(), ("1", "3"), tol=1e-9)
    assert report.passed
    by_value = {round(c.eigenvalue, 6): c for c in report.checks}
    assert by_value[0.0].excluded
    assert not by_value[round(math.sqrt(2), 6)].excluded
    assert by_value[round(math.sqrt(2), 6)].residual < 1e-9
    assert by_value[round(-math.sqrt(2), 6)].residual < 1e-9
    assert report.eigenvalues_removed_block == (0.0,)


def test_verify_checks_everything_when_no_overlap():
    # removed block [[0]] shares no eigenvalue with the edge's spectrum {-1, 1}
    m = RfMatrix(("a", "b"), [[0, 1], [1, 0]])
    report = verify_spectrum(m, ("a",), tol=1e-8)
    assert report.passed
    assert not any(c.excluded for c in report.checks)
    assert len(report.checks) == 2


def test_verify_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 8)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = rng.randint(0, 1)
        m = RfMatrix(tuple(str(i) for i in range(n)), grid)
        keep = tuple(str(i) for i in sorted(rng.sample(range(n), rng.randint(1, n - 1))))
        report = verify_spectrum(m, keep, tol=1e-6)
        assert report.passed, f"n={n} keep={keep}"
    # deep removals: half of the nodes go, so the removed block often has
    # repeated eigenvalues and the reduced entries share denominators
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(8, 14)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    grid[i][j] = grid[j][i] = 1
        m = RfMatrix(tuple(str(i) for i in range(n)), grid)
        keep = tuple(str(i) for i in sorted(rng.sample(range(n), n // 2)))
        report = verify_spectrum(m, keep, tol=1e-6)
        assert report.passed, f"n={n} keep={keep}"


def test_verify_detects_a_wrong_reduction(monkeypatch):
    # sanity: the residual has teeth; a wrong kept matrix must fail
    m = path3()
    wrong = RfMatrix(("1", "3"), [[RatFun(1, Polynomial.X), RatFun.ZERO],
                                  [RatFun.ZERO, RatFun(1, Polynomial.X)]])
    import isoreduce.spectra as spectra_mod

    report = verify_spectrum(m, ("1", "3"), tol=1e-6)
    good = [c.residual for c in report.checks if not c.excluded]
    grid = [
        [wrong.entries[0][0] - X, wrong.entries[0][1]],
        [wrong.entries[1][0], wrong.entries[1][1] - X],
    ]
    lam = math.sqrt(2)
    det = abs(spectra_mod.eval_det(grid, lam))
    den_scale = lam  # the only denominator is x itself
    gap_scale = abs(-lam - lam) * abs(0 - lam)
    bogus_residual = det * den_scale / gap_scale
    assert max(good) < 1e-9
    assert bogus_residual > 1e-2

    monkeypatch.setattr(isored, "reduce", lambda m, s: ReductionResult(wrong, ("2",)))
    assert verify_spectrum(m, ("1", "3"), tol=1e-6).passed is False

    # a large removed eigenvalue divides the residual down unless the poles
    # are cleared by det(M_RR - xI), not by the denominators of the entries
    big = RfMatrix(("1", "2", "3"), [[0, 1, 0], [1, 0, 1], [0, 1, 10**8]])
    zero = RfMatrix(("1", "2"), [[0, 0], [0, 0]])
    monkeypatch.setattr(isored, "reduce", lambda m, s: ReductionResult(zero, ("3",)))
    assert verify_spectrum(big, ("1", "2"), tol=1e-6).passed is False


def test_verify_dgg_removal_with_repeated_block_eigenvalues(dgg_matrix):
    # the removed block has eigenvalue 0 four times, so the product of the
    # reduced entries' distinct denominators is not det(M_RR - xI)
    labels = list(dgg_matrix.labels)
    removed = random.Random(9).sample(labels, 10)
    report = verify_spectrum(dgg_matrix, [lab for lab in labels if lab not in removed])
    assert report.passed
    assert max(c.residual for c in report.checks if not c.excluded) < 1e-9


def test_verify_residuals_stay_finite_when_products_overflow(monkeypatch):
    # every float product over 30 eigenvalues near 1e11..3e12 overflows
    n = 30
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = (i + 1) * 10**11
        if i + 1 < n:
            grid[i][i + 1] = grid[i + 1][i] = 1
    labels = tuple(f"n{i}" for i in range(n))
    m = RfMatrix(labels, grid)
    report = verify_spectrum(m, labels[2:])
    assert report.passed
    assert all(math.isfinite(c.residual) for c in report.checks if not c.excluded)
    json.dumps(spectrum_json(report), allow_nan=False)

    # an overflowing residual is capped: finite, and still a failure
    wrong = RfMatrix(labels[2:], [[v + 10**300 * (i == j) for j, v in enumerate(row[2:])]
                                  for i, row in enumerate(grid[2:])])
    monkeypatch.setattr(isored, "reduce", lambda m, s: ReductionResult(wrong, labels[:2]))
    report = verify_spectrum(m, labels[2:])
    assert not report.passed
    assert all(1e300 < c.residual < math.inf for c in report.checks if not c.excluded)


def test_verify_requires_proper_subset():
    with pytest.raises(ValueError):
        verify_spectrum(path3(), ("1", "2", "3"))
    with pytest.raises(ValueError):
        verify_spectrum(path3(), ())


def test_verify_names_first_unknown_label(monkeypatch):
    # labels are checked in the order given, not as a set
    unknown = [f"zz{i}" for i in range(10)]
    with pytest.raises(ValueError, match="unknown node label 'zz0'"):
        verify_spectrum(path3(), ["1", *unknown])
    # before the proper-subset check, and before any eigenvalue is computed
    def no_float_work(matrix):
        raise AssertionError("eigenvalues computed for an unknown label")

    monkeypatch.setattr(spectra, "sym_eigenvalues", no_float_work)
    for keep in (["1", "2", "3", "zz"], ["1", "zz"]):
        with pytest.raises(ValueError, match="unknown node label 'zz'"):
            verify_spectrum(path3(), keep)


def test_verify_rejects_a_reduction_that_lost_a_label(monkeypatch, dgg_matrix):
    # an isospectral reduction over any keep set preserves the spectrum, so the
    # residuals alone pass a reduction that dropped a kept label
    real = isored.reduce

    def drops_a_label(m, keep):
        return real(m, sorted(keep, key=m.index)[:-1])

    monkeypatch.setattr(isored, "reduce", drops_a_label)
    keep = "W_1 W_2 W_5 W_6 W_8 W_10 W_11 W_12 W_14 W_17 W_18 E_2 E_5 E_9 E_11 E_13".split()
    with pytest.raises(RuntimeError, match="requested labels"):
        verify_spectrum(dgg_matrix, keep)


def test_verify_rejects_nonconstant_matrix():
    m = RfMatrix(("a", "b"), [[RatFun(1, Polynomial.X), 0], [0, 1]])
    with pytest.raises(ValueError):
        verify_spectrum(m, ("a",))


def test_report_json(dgg_matrix):
    report = verify_spectrum(path3(), ("1", "3"))
    doc = spectrum_json(report)
    assert doc["passed"] is True
    assert any(c["excluded"] and c["residual"] is None for c in doc["checks"])
