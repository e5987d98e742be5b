import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path3, pattern_trace
from isoreduce import hierarchy, isored
from isoreduce.cli import hierarchy_json
from isoreduce.exactnum import Polynomial, RatFun
from isoreduce.hierarchy import (
    min_degree_rule,
    restrict_hierarchy,
    row_degree,
    sequential_reduce,
)
from isoreduce.netmat import (
    RfMatrix,
    bipartite_adjacency,
    load_incidence,
    project_cols,
    project_rows,
)

import dgg_expected as exp


def complete(n):
    labels = tuple(str(i) for i in range(n))
    return RfMatrix(labels, [[int(i != j) for j in range(n)] for i in range(n)])


# -- degree ------------------------------------------------------------------


def test_self_loop_counts_once():
    m = RfMatrix(("a",), [[RatFun(2, Polynomial.X)]])
    assert row_degree(m, "a") == 1


def test_unknown_node():
    with pytest.raises(ValueError):
        row_degree(path3(), "zz")


def test_stored_degrees_are_the_row_counts():
    # zero rows, self-loops and rational entries, counted against the input grid
    x = Polynomial.X
    values = [0, 0, 0, 1, Fraction(-2, 3), x, RatFun(1, x), RatFun(x, x + 1)]
    rng = random.Random(31)
    zero_rows = self_loops = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        grid = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        grid[rng.randrange(n)] = [0] * n
        m = RfMatrix(tuple(f"v{i}" for i in range(n)), grid)
        counts = tuple(sum(1 for v in row if v != 0) for row in grid)
        assert m.degrees == counts
        assert tuple(row_degree(m, lab) for lab in m.labels) == counts
        zero_rows += counts.count(0)
        self_loops += sum(1 for i in range(n) if grid[i][i] != 0)
    assert zero_rows and self_loops


def test_hierarchy_reads_the_stored_degrees(monkeypatch, dgg_matrix):
    def scan(*args):
        raise AssertionError("a row was scanned")

    monkeypatch.setattr(hierarchy, "row_degree", scan)
    monkeypatch.setattr(RfMatrix, "row", scan)
    h = sequential_reduce(dgg_matrix)
    assert len(h.trace) == 8
    for step, t in enumerate(h.trace):
        assert t.degrees == exp.TRACE_DEGREES[step]
        assert t.removed == exp.TRACE_REMOVED[step]


def test_dgg_reduced_degrees(dgg_hierarchy):
    r1 = dgg_hierarchy.trace[1].degrees
    assert r1["W_8"] == 3
    assert r1["E_8"] == 15
    r7 = dgg_hierarchy.trace[7].degrees
    assert r7["W_1"] == 9 and set(r7.values()) == {9}


# -- the minimum-degree rule ----------------------------------------------------


def test_rule_on_path():
    assert min_degree_rule(path3()) == {"2"}


def test_rule_on_regular_graph_is_empty():
    assert min_degree_rule(complete(4)) == frozenset()


def test_empty_matrix_rejected():
    empty = RfMatrix((), [])
    with pytest.raises(ValueError, match="nonempty"):
        min_degree_rule(empty)
    with pytest.raises(ValueError, match="empty"):
        sequential_reduce(empty)


def test_rule_on_dgg(dgg_matrix):
    keep = min_degree_rule(dgg_matrix)
    assert keep == set(dgg_matrix.labels) - {"W_16", "W_17", "W_18"}


# -- sequential reduction ---------------------------------------------------------


def test_complete_graph_is_its_own_core():
    h = sequential_reduce(complete(4))
    assert h.core == ("0", "1", "2", "3")
    assert h.levels == ()
    assert h.step_count == 0
    assert len(h.trace) == 1 and h.trace[0].removed == ()


def test_path_core_is_middle():
    h = sequential_reduce(path3())
    assert h.core == ("2",)
    assert h.levels == (("1", "3"),)
    assert h.step_count == 1


def test_dgg_levels_exact(dgg_hierarchy):
    assert dgg_hierarchy.core == exp.CORE
    assert dgg_hierarchy.levels == exp.LEVELS
    assert dgg_hierarchy.step_count == 7


def test_dgg_trace_cell_for_cell(dgg_hierarchy):
    assert len(dgg_hierarchy.trace) == 8
    for step, t in enumerate(dgg_hierarchy.trace):
        assert t.degrees == exp.TRACE_DEGREES[step]
        assert t.removed == exp.TRACE_REMOVED[step]


def test_partition_and_shrinkage_properties():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 7)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = grid[j][i] = rng.randint(0, 1)
        m = RfMatrix(tuple(str(i) for i in range(n)), grid)
        h = sequential_reduce(m)
        pieces = [h.core, *h.levels]
        flat = [lab for piece in pieces for lab in piece]
        assert sorted(flat) == sorted(m.labels)
        assert len(set(flat)) == len(flat)
        assert h.step_count <= n
        sizes = [len(t.degrees) for t in h.trace]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        # rule contract: whatever was removed had minimal degree at that stage
        for t in h.trace:
            if t.removed:
                lowest = min(t.degrees.values())
                assert all(t.degrees[lab] == lowest for lab in t.removed)


def test_rule_contract_on_dgg(dgg_hierarchy):
    for t in dgg_hierarchy.trace:
        if t.removed:
            lowest = min(t.degrees.values())
            assert {lab for lab, d in t.degrees.items() if d == lowest} == set(t.removed)


def test_rejects_rule_with_foreign_labels():
    # isored.reduce names the foreign label, whether the rule keeps it alone
    # or together with every label of the matrix
    for rule in (lambda m: frozenset({"zz"}), lambda m: frozenset({*m.labels, "zz"})):
        with pytest.raises(ValueError, match="unknown node label 'zz'"):
            sequential_reduce(path3(), rule)


def test_lost_label_breaks_partition(monkeypatch):
    real = isored.reduce

    def loses_a_label(m, keep):
        out = real(m, keep)
        return isored.ReductionResult(out.reduced, out.removed[1:])

    monkeypatch.setattr(isored, "reduce", loses_a_label)
    path4 = RfMatrix("abcd", [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(RuntimeError, match="partition"):
        sequential_reduce(path4)


# -- the zero pattern decides a nonnegative hierarchy --------------------------------


def _exact_trace(m):
    return [(t.degrees, t.removed) for t in sequential_reduce(m).trace]


@st.composite
def nonnegative_matrices(draw):
    n = draw(st.integers(1, 8))
    entries = st.sampled_from((0, 0, 0, 0, 0, 1, 1, 2, 5))
    grid = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                grid[i][j] = grid[j][i]
    return RfMatrix(tuple(str(i) for i in range(n)), grid)


@settings(max_examples=150, deadline=None)
@given(nonnegative_matrices())
def test_nonnegative_hierarchy_is_the_fill_pattern(m):
    # every coefficient of a reduced entry at x = oo is a sum of nonnegative
    # walk weights, so nothing cancels and the pattern alone gives each stage
    assert _exact_trace(m) == pattern_trace(m)


@pytest.mark.parametrize("mode", [bipartite_adjacency, project_rows, project_cols])
def test_real_hierarchies_are_the_fill_pattern(mode, dgg, synth_csv):
    for data in (dgg, load_incidence(synth_csv)):
        m = mode(data)
        assert _exact_trace(m) == pattern_trace(m)


def test_signed_entries_can_cancel_the_fill_pattern():
    grid = [
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, -1, -1, 0],
        [0, 1, -1, 0, 1, -1],
        [-1, -1, 0, 1, -1, -1],
        [0, -1, 1, -1, -1, 0],
        [0, 0, -1, -1, 0, 0],
    ]
    m = RfMatrix(tuple(str(i) for i in range(6)), grid)
    exact, pattern = _exact_trace(m), pattern_trace(m)
    assert exact[:3] == pattern[:3]
    assert exact[3] == ({"2": 2, "3": 2, "4": 3}, ("2", "3"))
    assert pattern[3] == ({"2": 3, "3": 3, "4": 3}, ()) and len(pattern) == 4


# -- single-mode hierarchies -------------------------------------------------------


def test_rows_mode_hierarchy(dgg):
    h = sequential_reduce(project_rows(dgg))
    assert h.core == exp.ROWS_MODE["core"]
    assert h.levels == exp.ROWS_MODE["levels"]


def test_cols_mode_hierarchy(dgg):
    h = sequential_reduce(project_cols(dgg))
    assert h.core == exp.COLS_MODE["core"]
    assert h.levels == exp.COLS_MODE["levels"]


# -- restriction --------------------------------------------------------------------


def test_restrict_to_women(dgg_hierarchy):
    r = restrict_hierarchy(dgg_hierarchy, exp.W)
    assert r.core == exp.RESTRICT_WOMEN["core"]
    assert r.levels == exp.RESTRICT_WOMEN["levels"]


def test_restrict_to_events(dgg_hierarchy):
    r = restrict_hierarchy(dgg_hierarchy, exp.E)
    assert r.core == exp.RESTRICT_EVENTS["core"]
    assert r.levels == exp.RESTRICT_EVENTS["levels"]


def test_restrict_to_groups(dgg_hierarchy):
    r1 = restrict_hierarchy(dgg_hierarchy, exp.G1)
    assert r1.core == exp.RESTRICT_G1["core"]
    assert r1.levels == exp.RESTRICT_G1["levels"]
    r2 = restrict_hierarchy(dgg_hierarchy, exp.G2)
    assert r2.core == exp.RESTRICT_G2["core"]
    assert r2.levels == exp.RESTRICT_G2["levels"]


def test_restrict_preserves_ties_and_drops_empty_levels(dgg_hierarchy):
    r = restrict_hierarchy(dgg_hierarchy, ("W_12", "W_15", "E_9"))
    assert r.core == ()
    assert r.levels == (("E_9",), ("W_12", "W_15"))


def test_restrict_empty_subset():
    h = sequential_reduce(path3())
    with pytest.raises(ValueError):
        restrict_hierarchy(h, ())


def test_restrict_unknown_label(dgg_hierarchy):
    with pytest.raises(ValueError, match="unknown node label in the restriction: 'zz'"):
        restrict_hierarchy(dgg_hierarchy, ("W_1", "zz"))


# -- serialization -------------------------------------------------------------------


def test_hierarchy_json_shape(dgg_hierarchy):
    doc = hierarchy_json(dgg_hierarchy)
    assert doc["core"] == list(exp.CORE)
    assert doc["levels"][0] == {"rank": 7, "members": list(exp.LEVELS[6])}
    assert doc["levels"][-1] == {"rank": 1, "members": ["E_9"]}
    assert doc["trace"][1]["degrees"]["E_8"] == 15
    assert doc["trace"][0]["removed"] == ["W_16", "W_17", "W_18"]
