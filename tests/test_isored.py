import json
import random

import pytest

from helpers import (
    P,
    block_formula,
    field_identity,
    field_matrix,
    field_rows,
    path3,
    random_symmetric,
)
from isoreduce.cli import reduction_json
from isoreduce.exactnum import Polynomial, RatFun, ratfun_from_str
from isoreduce.isored import SingularMatrixError, invert_over_field, reduce
from isoreduce.netmat import RfMatrix

X = RatFun.X


# -- inversion -----------------------------------------------------------------


def test_invert_1x1():
    inv = invert_over_field([[-X]])
    assert inv == [[RatFun(-1, Polynomial.X)]]


def test_invert_diagonal():
    inv = invert_over_field([[-X, RatFun.ZERO], [RatFun.ZERO, -X]])
    minus = RatFun(-1, Polynomial.X)
    assert inv == [[minus, RatFun.ZERO], [RatFun.ZERO, minus]]


def test_invert_2x2_adjugate_oracle():
    b = [[-X, RatFun.ONE], [RatFun.ONE, -X]]
    # the adjugate over the determinant, in sympy's QQ(x)
    (p, q), (r, s) = field_rows(b)
    det = p * s - q * r
    oracle = [[s / det, -q / det], [-r / det, p / det]]
    inv = invert_over_field(b)
    assert field_rows(inv) == oracle
    den = P(-1, 0, 1)
    assert inv[0][0] == RatFun(P(0, -1), den)
    assert inv[0][1] == RatFun(P(-1), den)
    assert inv[1] == [inv[0][1], inv[0][0]]
    assert field_matrix(b) * field_matrix(inv) == field_identity(2)


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert_over_field([[RatFun.ZERO]])


def test_invert_times_original_is_identity():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        block = [
            [RatFun(rng.randint(-2, 2)) - (X if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        inv = invert_over_field(block)
        # the product in sympy's QQ(x)
        assert field_matrix(block) * field_matrix(inv) == field_identity(n)


def test_invert_swaps_rows_for_a_zero_pivot():
    # a zero on the diagonal: the pivot comes from a row below
    one, zero = RatFun.ONE, RatFun.ZERO
    exchange = [[zero, one], [one, zero]]  # its own inverse
    block = [[zero, one], [one, -X]]
    for b, expected in ((exchange, exchange), (block, [[X, one], [one, zero]])):
        inv = invert_over_field(b)
        assert inv == expected
        # the product in sympy's QQ(x)
        assert field_matrix(b) * field_matrix(inv) == field_identity(2)


def test_invert_rejects_a_non_square_grid():
    with pytest.raises(ValueError, match="square"):
        invert_over_field([[RatFun.ONE, RatFun.ZERO]])


# -- single reductions -----------------------------------------------------------


def test_reduce_over_all_labels_is_identity_operation():
    m = path3()
    out = reduce(m, m.labels)
    assert out.reduced == m
    assert out.removed == ()


def test_reduce_edge_to_self_loop():
    m = RfMatrix(("1", "2"), [[0, 1], [1, 0]])
    out = reduce(m, ("1",))
    assert out.reduced.labels == ("1",)
    assert out.reduced.entries[0][0] == RatFun(1, Polynomial.X)
    assert out.removed == ("2",)


def test_reduce_path_endpoints_hand_derivation():
    # keep the endpoints of 1-2-3: the middle contributes 1/x on every entry
    out = reduce(path3(), ("1", "3"))
    w = RatFun(1, Polynomial.X)
    assert out.reduced.labels == ("1", "3")
    assert list(map(list, out.reduced.entries)) == [[w, w], [w, w]]


def test_reduce_keeps_original_label_order():
    m = RfMatrix(("a", "b", "c", "d"), [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    out = reduce(m, ("d", "a", "c"))  # scrambled request, ordered result
    assert out.reduced.labels == ("a", "c", "d")
    assert out.removed == ("b",)


def test_reduce_errors():
    m = path3()
    with pytest.raises(ValueError):
        reduce(m, ())
    with pytest.raises(ValueError):
        reduce(m, ("1", "nope"))


def test_reduce_names_first_unknown_label():
    # the error names the first unknown label given, whatever the hash seed
    unknown = [f"zz{i}" for i in range(10)]
    with pytest.raises(ValueError, match="unknown node label 'zz0'"):
        reduce(path3(), ["1", *unknown])


def test_reduce_singular_shifted_block():
    # a diagonal entry equal to x makes the pivot e_aa - x vanish identically;
    # in the 3x3 case the shifted block is invertible only by swapping rows
    one, zero = RatFun.ONE, RatFun.ZERO
    cases = [
        (RfMatrix(("a", "b"), [[X, one], [one, X]]), ("b",)),
        (RfMatrix(("a", "b", "c"), [[X, one, zero], [one, X, one], [zero, one, zero]]), ("c",)),
    ]
    for m, keep in cases:
        with pytest.raises(SingularMatrixError):
            reduce(m, keep)


def _assert_block_formula(m, keep):
    out = reduce(m, keep).reduced
    assert out.labels == keep
    assert field_rows(out.entries) == block_formula(m, keep)


def _assert_matches_block_formula(rng, m):
    # a first reduction turns the constant entries into rational functions
    rational = reduce(m, rng.sample(m.labels, rng.randint(2, len(m) - 1))).reduced
    for mat in (m, rational):
        keep = tuple(sorted(rng.sample(mat.labels, rng.randint(1, len(mat) - 1)), key=mat.index))
        _assert_block_formula(mat, keep)


def test_reduce_matches_block_formula_on_directed_and_rational_matrices():
    rng = random.Random(19)
    values = (-2, -1, 0, 0, 1, 3)
    for _ in range(20):
        n = rng.randint(3, 6)
        labels = tuple(str(i) for i in range(n))
        m = RfMatrix(labels, [[rng.choice(values) for _ in range(n)] for _ in range(n)])
        _assert_matches_block_formula(rng, m)


def test_reduce_matches_block_formula_on_symmetric_and_rational_matrices():
    # symmetric inputs take the upper-triangle update with mirrored entries;
    # the oracle reads the whole matrix, so a stale or missing mirror shows
    rng = random.Random(23)
    for _ in range(20):
        m = random_symmetric(rng, rng.randint(3, 7), values=(-2, -1, 0, 0, 1, 3))
        _assert_matches_block_formula(rng, m)


def _pivots(monkeypatch, eliminate):
    # the entries e_rr of the pivots x - e_rr that eliminate() takes, in order
    seen = []
    sub = RatFun.__sub__

    def spy(self, other):
        if self is X:
            seen.append(other)
        return sub(self, other)

    with monkeypatch.context() as mp:
        mp.setattr(RatFun, "__sub__", spy)
        eliminate()
    return seen


def _reduce_in_label_order(m, keep):
    for lab in m.labels:
        if lab not in keep:
            m = reduce(m, [k for k in m.labels if k != lab]).reduced


def test_reduce_matches_block_formula_in_minimum_degree_order(monkeypatch):
    # six removed nodes that reduce eliminates out of label order, on a
    # symmetric, a directed and a rational matrix: the result must not
    # depend on the order, and the symmetric update's i > j break must hold
    rng = random.Random(30)
    labels = tuple(str(i) for i in range(9))
    values = (-1, 0, 0, 0, 1, 2)
    symmetric = random_symmetric(rng, 9, values=values)
    directed = RfMatrix(labels, [[rng.choice(values) for _ in labels] for _ in labels])
    rational = reduce(random_symmetric(rng, 10, values=values), labels).reduced
    keep = ("1", "4", "7")
    for m in (symmetric, directed, rational):
        in_one_call = _pivots(monkeypatch, lambda: reduce(m, keep))
        in_label_order = _pivots(monkeypatch, lambda: _reduce_in_label_order(m, keep))
        assert len(in_one_call) == len(in_label_order) == 6
        assert in_one_call != in_label_order
        _assert_block_formula(m, keep)


def test_reduce_counts_fill_when_picking_pivots():
    # The removed 4-cycle a-c-b-d-a: every node has two removed neighbours,
    # so a goes first and fills in c-d. Then b, c and d all have two, and b
    # wins the tie; its pivot x - e_bb = x - x vanishes. A pick that ignored
    # the fill would see c and d with one neighbour and take c second, whose
    # pivot x - (x - 1/x + 1/x) vanishes as well.
    one, zero = RatFun.ONE, RatFun.ZERO
    m = RfMatrix(
        ("a", "b", "c", "d", "k"),
        [
            [zero, zero, one, one, one],
            [zero, X, one, one, zero],
            [one, one, X - 1 / X, zero, zero],
            [one, one, zero, zero, zero],
            [one, zero, zero, zero, zero],
        ],
    )
    with pytest.raises(SingularMatrixError, match="pivot of 'b'"):
        reduce(m, ("k",))


def test_reduce_counts_links_that_cancelled():
    # Outside the contract (x on the diagonal), whether a pivot vanishes
    # depends on the order. Removing 1 fills in 4-5 with -1/(x+1), and
    # removing 2 adds +1/(x+1), so the link cancels. A pick from the
    # input's pattern would still count it, take 3 third and hit x - x.
    # The live entries give 4 and 5 one link each, so 4 goes third and adds
    # to e_33, and the reduction succeeds. Found by a seeded random search
    # of symmetric 5- to 7-node matrices with entries in {-1, 0, 1}.
    m = RfMatrix(
        tuple("012345"),
        [
            [-1, 1, 0, 0, 0, 0],
            [1, -1, 0, 0, 1, -1],
            [0, 0, -1, 0, 1, 1],
            [0, 0, 0, X, 1, -1],
            [0, 1, 1, 1, -1, 0],
            [0, -1, 1, -1, 0, -1],
        ],
    )
    _assert_block_formula(m, ("0",))


def test_reduce_eliminates_in_minimum_degree_order():
    # a and b both have a vanishing pivot x - x. b has one removed neighbour
    # and a two, so b goes first and is named; label order would name a.
    one, zero = RatFun.ONE, RatFun.ZERO
    m = RfMatrix(
        ("a", "b", "c", "d"),
        [[X, one, one, one], [one, X, zero, zero], [one, zero, zero, zero], [one, zero, zero, zero]],
    )
    with pytest.raises(SingularMatrixError, match="pivot of 'b'"):
        reduce(m, ("d",))


def test_reduce_cancels_signed_walks():
    # i and j meet through r1 (+1 * +1) and through r2 (+1 * -1), so the two
    # walks cancel and R_ij = 0, while the zero pattern alone would link i
    # and j. Reading a hierarchy's degrees off the pattern is exact only for
    # nonnegative constant matrices; signed input must stay on the exact path.
    m = RfMatrix(
        ("i", "j", "r1", "r2"),
        [[0, 0, 1, 1], [0, 0, 1, -1], [1, 1, 0, 0], [1, -1, 0, 0]],
    )
    out = reduce(m, ("i", "j")).reduced
    assert [[str(v) for v in row] for row in out.entries] == [["(2)/(x)", "0"], ["0", "(2)/(x)"]]
    assert out.degrees == (1, 1)


# -- sequences ---------------------------------------------------------------------


def test_reduce_sequence_path_two_steps():
    final = path3()
    for keep in [("1", "3"), ("1",)]:
        final = reduce(final, keep).reduced
    w = RatFun(1, Polynomial.X)
    expected = w + w * (RatFun(Polynomial.X, P(-1, 0, 1))) * w
    assert final.labels == ("1",)
    assert final.entries[0][0] == expected
    # same thing in one shot: sequential reduction is unique
    assert final == reduce(path3(), ("1",)).reduced


# -- structural properties ----------------------------------------------------------


def test_symmetry_preserved():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = random_symmetric(rng, n, values=(-2, -1, 0, 1, 2))
        size = rng.randint(1, n - 1)
        keep = tuple(str(i) for i in sorted(rng.sample(range(n), size)))
        out = reduce(m, keep)
        assert out.reduced.is_symmetric()


def test_composition_matches_direct_reduction():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 6)
        m = random_symmetric(rng, n, values=(-3, -1, 0, 1, 2, 3))
        s1_size = rng.randint(2, n - 1)
        s1 = sorted(rng.sample(range(n), s1_size))
        s2 = sorted(rng.sample(s1, rng.randint(1, s1_size - 1)))
        keep1 = tuple(str(i) for i in s1)
        keep2 = tuple(str(i) for i in s2)
        two_step = reduce(reduce(m, keep1).reduced, keep2).reduced
        direct = reduce(m, keep2).reduced
        assert two_step == direct


def test_new_edges_only_between_former_neighbors():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 7)
        m = random_symmetric(rng, n)
        victim = str(rng.randrange(n))
        keep = tuple(lab for lab in m.labels if lab != victim)
        out = reduce(m, keep).reduced
        neighbors = {
            lab
            for lab in keep
            if not m.entry(lab, victim).is_zero or not m.entry(victim, lab).is_zero
        }
        for i, a in enumerate(keep):
            for j, b in enumerate(keep):
                if out.entries[i][j] != m.entry(a, b):
                    assert a in neighbors and b in neighbors


def test_dgg_core_membership(dgg_matrix, dgg_hierarchy):
    # the seven degree-driven keep sets land on the nine-node core
    keeps = []
    labels = set(dgg_matrix.labels)
    for level in reversed(dgg_hierarchy.levels):
        labels -= set(level)
        keeps.append(tuple(sorted(labels)))
    m = dgg_matrix
    for keep in keeps:
        m = reduce(m, keep).reduced
    assert m.labels == (
        "W_1", "W_2", "W_3", "W_4", "E_3", "E_5", "E_6", "E_7", "E_8",
    )


# -- serialization -------------------------------------------------------------------


def test_reduction_result_json_round_trips():
    out = reduce(path3(), ("1", "3"))
    doc = json.loads(json.dumps(reduction_json(out)))
    assert doc["labels"] == ["1", "3"]
    assert doc["removed"] == ["2"]
    grid = [[ratfun_from_str(cell) for cell in row] for row in doc["entries"]]
    assert grid == [list(r) for r in out.reduced.entries]
