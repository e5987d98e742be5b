"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import functools
import math
import random
from fractions import Fraction

from isoreduce.exactnum import Polynomial, RatFun, poly_gcd
from isoreduce.hierarchy import restrict_hierarchy, sequential_reduce
from isoreduce.isored import reduce
from isoreduce.netmat import RfMatrix, project_cols, project_rows
from isoreduce.spectra import eval_det, verify_spectrum
from isoreduce.dynamics import (
    chronological_order,
    classify_activity,
    group_attendance,
    level_mean_attendance,
    series_stats,
)

import dgg_expected as exp
from helpers import random_symmetric


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")

        return wrapper

    return deco


@criterion(1, "two-mode hierarchy, all eight levels exact")
def test_c1_dgg_hierarchy(dgg_hierarchy):
    assert set(dgg_hierarchy.core) == set(exp.CORE)
    assert len(dgg_hierarchy.levels) == 7
    for got, want in zip(dgg_hierarchy.levels, exp.LEVELS):
        assert set(got) == set(want)
    assert "E_14" in dgg_hierarchy.levels[5]


@criterion(2, "restrictions to each mode and to both groups")
def test_c2_restrictions(dgg_hierarchy):
    cases = [
        (exp.W, exp.RESTRICT_WOMEN),
        (exp.E, exp.RESTRICT_EVENTS),
        (exp.G1, exp.RESTRICT_G1),
        (exp.G2, exp.RESTRICT_G2),
    ]
    for subset, want in cases:
        got = restrict_hierarchy(dgg_hierarchy, subset)
        assert got.core == want["core"]
        assert got.levels == want["levels"]


@criterion(3, "per-stage degree tables, cell for cell")
def test_c3_degree_trace(dgg_hierarchy):
    assert len(dgg_hierarchy.trace) == 8
    for step, t in enumerate(dgg_hierarchy.trace):
        assert t.degrees == exp.TRACE_DEGREES[step], f"stage {step}"
        assert t.removed == exp.TRACE_REMOVED[step], f"stage {step}"
    assert dgg_hierarchy.trace[1].degrees["E_8"] == 15
    assert set(dgg_hierarchy.trace[7].degrees.values()) == {9}


@criterion(4, "both single-mode projections, entry for entry")
def test_c4_projections(dgg):
    w2w = project_rows(dgg)
    for i in range(18):
        for j in range(18):
            assert w2w.entries[i][j] == exp.TABLE_W2W[i][j], (i, j)
    e2e = project_cols(dgg)
    for i in range(14):
        for j in range(14):
            assert e2e.entries[i][j] == exp.TABLE_E2E[i][j], (i, j)


@criterion(5, "single-mode hierarchies")
def test_c5_single_mode_hierarchies(dgg):
    hw = sequential_reduce(project_rows(dgg))
    assert hw.core == exp.ROWS_MODE["core"]
    assert hw.levels == exp.ROWS_MODE["levels"]
    he = sequential_reduce(project_cols(dgg))
    assert he.core == exp.COLS_MODE["core"]
    assert he.levels == exp.COLS_MODE["levels"]


@criterion(6, "spectrum preservation at 1e-6")
def test_c6_spectrum_preservation(dgg_matrix):
    # the hand-checkable case first: reducing the path to its endpoints
    p3 = RfMatrix(("1", "2", "3"), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    red = reduce(p3, ("1", "3")).reduced
    x = RatFun.X
    grid = [
        [red.entries[0][0] - x, red.entries[0][1]],
        [red.entries[1][0], red.entries[1][1] - x],
    ]
    det = grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    assert det == RatFun(Polynomial((-2, 0, 1)))  # roots are exactly +-sqrt(2)
    for root in (math.sqrt(2), -math.sqrt(2)):
        assert abs(eval_det(grid, root)) < 1e-9
    report = verify_spectrum(p3, ("1", "3"), tol=1e-9)
    assert report.passed
    assert any(c.excluded and abs(c.eigenvalue) < 1e-9 for c in report.checks)

    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(2, 8)
        m = random_symmetric(rng, n, (0, 1))
        keep = tuple(str(i) for i in sorted(rng.sample(range(n), rng.randint(1, n - 1))))
        rep = verify_spectrum(m, keep, tol=1e-6)
        assert rep.passed, f"trial {trial}: n={n} keep={keep}"

    labels = set(dgg_matrix.labels) - {"W_16", "W_17", "W_18"}
    assert verify_spectrum(dgg_matrix, labels, tol=1e-6).passed


@criterion(7, "two-step reduction equals direct reduction, exactly")
def test_c7_composition():
    rng = random.Random(4181)
    done = 0
    while done < 50:
        n = rng.randint(3, 6)
        m = random_symmetric(rng, n, (-3, -2, -1, 0, 1, 2, 3))
        size1 = rng.randint(2, n - 1)
        s1 = sorted(rng.sample(range(n), size1))
        s2 = sorted(rng.sample(s1, rng.randint(1, size1 - 1)))
        keep1 = tuple(str(i) for i in s1)
        keep2 = tuple(str(i) for i in s2)
        two_step = reduce(reduce(m, keep1).reduced, keep2).reduced
        assert two_step == reduce(m, keep2).reduced
        done += 1


@criterion(8, "attendance dynamics, exact statistics")
def test_c8_dynamics(dgg, dgg_hierarchy):
    g1 = group_attendance(dgg, exp.G1, chronological_order(dgg, exp.GROUP1_EVENTS))
    g2 = group_attendance(dgg, exp.G2, chronological_order(dgg, exp.GROUP2_EVENTS))
    assert g1 == (8, 3, 6, 3, 4)
    assert g2 == (4, 6, 5, 3, 3)

    j1 = group_attendance(dgg, exp.G1, chronological_order(dgg, exp.JOINT_EVENTS))
    j2 = group_attendance(dgg, exp.G2, chronological_order(dgg, exp.JOINT_EVENTS))
    assert j1 == (6, 3, 6, 7) and series_stats(j1) == (Fraction(11, 2), Fraction(3))
    assert j2 == (4, 7, 1, 5) and series_stats(j2) == (Fraction(17, 4), Fraction(25, 4))

    active, popular = classify_activity(dgg)
    assert active == exp.ACTIVE_WOMEN
    assert popular == exp.POPULAR_EVENTS

    means = level_mean_attendance(dgg, dgg_hierarchy)
    assert means["core"]["rows"] == Fraction(15, 2)
    assert means["h_5"]["rows"] == 4
    assert means["h_6"]["rows"] == 3
    assert means["h_7"]["rows"] == 2
    low_women = [
        lab for level in dgg_hierarchy.levels[:4] for lab in level if lab in dgg.row_labels
    ]
    assert Fraction(sum(dgg.row_sum(w) for w in low_women), len(low_women)) == Fraction(13, 2)
    assert means["core"]["cols"] == Fraction(46, 5)
    assert means["h_1"]["cols"] == 12
    assert means["h_3"]["cols"] == Fraction(11, 2)
    assert means["h_5"]["cols"] == 4
    assert means["h_6"]["cols"] == 3


@criterion(9, "exact arithmetic property suite, 1100 randomized cases")
def test_c9_exact_arithmetic_properties():
    rng = random.Random(89)

    def rand_poly(max_deg=6):
        return Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, max_deg + 1))])

    def rand_ratfun():
        den = rand_poly()
        while den.is_zero:
            den = rand_poly()
        return RatFun(rand_poly(), den)

    for _ in range(300):  # divmod reconstruction
        a, b = rand_poly(), rand_poly()
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert b * q + r == a and r.degree < b.degree

    for _ in range(300):  # gcd divides both
        a, b = rand_poly(), rand_poly()
        if a.is_zero and b.is_zero:
            continue
        g = poly_gcd(a, b)
        for p in (a, b):
            if not p.is_zero:
                assert (p % g).is_zero

    for _ in range(300):  # field axioms
        f, g, h = rand_ratfun(), rand_ratfun(), rand_ratfun()
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        if not f.is_zero:
            assert f * (RatFun.ONE / f) == RatFun.ONE

    for _ in range(200):  # canonical form is a fixed point and order-independent
        f = rand_ratfun()
        junk = rand_poly()
        if junk.is_zero:
            continue
        inflated = RatFun(f.num * junk, f.den * junk)
        assert inflated.num == f.num and inflated.den == f.den
        assert f.den.leading == 1
        if not f.is_zero:
            assert poly_gcd(f.num, f.den) == Polynomial.ONE
