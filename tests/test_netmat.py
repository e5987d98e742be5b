import datetime
import random

import pytest

from dgg_expected import BLOCK_KEEP
from isoreduce import isored
from isoreduce.netmat import (
    IncidenceData,
    IncidenceFormatError,
    RfMatrix,
    bipartite_adjacency,
    mode_convert,
    parse_incidence_csv,
    project_cols,
    project_rows,
)


def _count_nonzero(m, label):
    return sum(1 for v in m.row(label) if not v.is_zero)


def small(matrix, rows=None, cols=None):
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    return IncidenceData(
        rows or tuple(f"r{i}" for i in range(n)),
        cols or tuple(f"c{j}" for j in range(m)),
        tuple(tuple(row) for row in matrix),
    )


# -- validation -----------------------------------------------------------------


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        small([[1, 0]], rows=("a",), cols=("a", "b"))
    with pytest.raises(ValueError):
        RfMatrix(("a", "a"), [[0, 0], [0, 0]])


def test_label_starting_with_hash_rejected():
    for rows, cols in ((("#a",), ("b",)), (("a",), (" #b",))):
        with pytest.raises(ValueError, match="must not start with '#'"):
            small([[1]], rows=rows, cols=cols)


def test_non_binary_entry_rejected():
    for matrix in ([[2]], [[0.7]], [[1.9]]):
        with pytest.raises(ValueError):
            small(matrix)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        small([[1, 0], [1]])
    with pytest.raises(ValueError, match="row count does not match"):
        small([[1], [0]], rows=("a",))


def test_dates_must_cover_every_column():
    with pytest.raises(ValueError, match="dates must be given for every column"):
        IncidenceData(("a",), ("b", "c"), ((1, 0),), (datetime.date(1936, 3, 2),))


def test_date_of_undated_data_rejected():
    with pytest.raises(ValueError, match="no date recorded for event 'c0'"):
        small([[1]]).date_of("c0")


def test_rf_matrix_must_be_square():
    with pytest.raises(ValueError):
        RfMatrix(("a", "b"), [[0, 1]])
    with pytest.raises(ValueError):
        RfMatrix(("a",), [[0, 1]])


def test_rf_matrix_equality_hash_and_repr():
    m = RfMatrix(("a", "b"), [[0, 1], [1, 0]])
    same = RfMatrix(("a", "b"), [[0, 1], [1, 0]])
    assert m == same and hash(m) == hash(same)
    assert (m == 3) is False
    assert repr(m) == "RfMatrix(labels=['a', 'b'], n=2)"


def test_rf_matrix_rejects_float_entries():
    with pytest.raises(TypeError):
        RfMatrix(("a",), [[0.5]])


def test_map_entries_calls_once_per_distinct_entry(dgg_matrix):
    # a symmetric reduction shares each mirrored entry as one RatFun
    reduced = isored.reduce(dgg_matrix, BLOCK_KEEP.split()).reduced
    seen = []

    def render(v):
        seen.append(v)
        return str(v)

    grid = reduced.map_entries(render)
    assert grid == [[str(v) for v in row] for row in reduced.entries]
    distinct = {id(v) for row in reduced.entries for v in row}
    assert len(seen) == len({id(v) for v in seen}) == len(distinct) < len(reduced) ** 2


# -- bipartite adjacency ----------------------------------------------------------


def test_single_pair_block_form():
    m = bipartite_adjacency(small([[1]]))
    assert m.labels == ("r0", "c0")
    assert [[str(v) for v in row] for row in m.entries] == [["0", "1"], ["1", "0"]]


def test_dgg_block_degrees(dgg):
    m = bipartite_adjacency(dgg)
    assert len(m) == 32
    assert _count_nonzero(m, "W_16") == 2
    assert _count_nonzero(m, "E_8") == 14


def test_bipartite_degree_equals_incidence_sums(dgg):
    m = bipartite_adjacency(dgg)
    for lab in dgg.row_labels:
        assert _count_nonzero(m, lab) == dgg.row_sum(lab)
    for lab in dgg.col_labels:
        assert _count_nonzero(m, lab) == dgg.col_sum(lab)
    assert all(m.entries[i][i].is_zero for i in range(len(m)))
    assert m.is_symmetric()


# -- projections -----------------------------------------------------------------


def test_row_projection_dgg_entries(dgg):
    w2w = project_rows(dgg)
    assert w2w.entry("W_1", "W_1") == 8
    assert w2w.entry("W_1", "W_3") == 7
    assert w2w.entry("W_17", "W_18") == 2


def test_row_projection_single_shared_event():
    m = project_rows(small([[1], [1]]))
    assert [[int(v.as_fraction()) for v in row] for row in m.entries] == [[1, 1], [1, 1]]


def test_col_projection_dgg_entries(dgg):
    e2e = project_cols(dgg)
    assert e2e.entry("E_8", "E_8") == 14
    assert e2e.entry("E_1", "E_9") == 1
    assert e2e.entry("E_1", "E_10") == 0


def test_col_projection_disjoint_attendance():
    m = project_cols(small([[1, 0], [0, 1]]))
    assert [[int(v.as_fraction()) for v in row] for row in m.entries] == [[1, 0], [0, 1]]
    # with no rows every column pair shares nothing
    m = project_cols(small([], cols=("c0", "c1", "c2")))
    assert m.labels == ("c0", "c1", "c2")
    assert all(v.is_zero for row in m.entries for v in row) and len(m.entries) == 3


def test_projection_shared_column_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]
        data = small(grid)
        aat = project_rows(data)
        total = sum(sum(r) for r in grid)
        assert aat.is_symmetric()
        assert sum(int(aat.entries[i][i].as_fraction()) for i in range(n)) == total
        ata = project_cols(data)
        assert sum(int(ata.entries[j][j].as_fraction()) for j in range(m)) == total
        for i in range(n):
            for k in range(n):
                shared = sum(1 for j in range(m) if grid[i][j] and grid[k][j])
                assert aat.entries[i][k] == shared


# -- mode conversion ----------------------------------------------------------------


def test_mode_convert_two_mode_matches_projections(dgg):
    a = [list(r) for r in dgg.matrix]
    at = [list(col) for col in zip(*a)]
    blocks = [[None, a], [at, None]]
    labels = [list(dgg.row_labels), list(dgg.col_labels)]
    assert mode_convert(blocks, 1, 2, labels) == project_rows(dgg)
    assert mode_convert(blocks, 2, 1, labels) == project_cols(dgg)


def test_mode_convert_single_row_block():
    blocks = [[None, [[1, 1]]], [[[1], [1]], None]]
    m = mode_convert(blocks, 1, 2)
    assert len(m) == 1 and m.entries[0][0] == 2


def test_mode_convert_three_mode_toy():
    a12 = [[1, 0], [1, 1]]
    a13 = [[1], [0]]
    a21 = [list(c) for c in zip(*a12)]
    a31 = [list(c) for c in zip(*a13)]
    a23 = [[0], [0]]
    a32 = [[0, 0]]
    blocks = [[None, a12, a13], [a21, None, a23], [a31, a32, None]]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))
        ]

    m12 = mode_convert(blocks, 1, 2)
    assert [[int(v.as_fraction()) for v in r] for r in m12.entries] == matmul(a12, a21)
    assert [[int(v.as_fraction()) for v in r] for r in m12.entries] == [[1, 1], [1, 2]]
    m13 = mode_convert(blocks, 1, 3)
    assert [[int(v.as_fraction()) for v in r] for r in m13.entries] == [[1, 0], [0, 0]]


def test_mode_convert_rejects_bad_blocks():
    for blocks, i, j, labels, match in [
        ([[None, [[1, 0]]], [[[1], [1]], None]], 1, 2, None, "not the transpose"),
        ([[None, [[1]]], [[[1], [1]], None]], 1, 2, None, "inconsistent size for mode 2"),
        ([[None, [[1]]], [[[1]], None]], 1, 1, None, "two distinct modes"),
        ([[None, [[1]]], [[[1]]]], 1, 2, None, "square in the number of modes"),
        ([[None, [[1]]], [[[1]], None]], 1, 3, None, r"must be in 1\.\.2"),
        ([[None, [[1, 0], [1]]], [[[1, 1], [0]], None]], 1, 2, None, r"block \(1,2\) is ragged"),
        ([[[[1]], [[1]]], [[[1]], None]], 1, 2, None, "diagonal blocks must be zero"),
        ([[None, [[1]]], [None, None]], 1, 2, None, r"blocks \(1,2\) and \(2,1\) are required"),
        ([[None, [[1]]], [[[1]], None]], 1, 2, [["a", "b"], ["c"]], "1 nodes but 2 labels"),
    ]:
        with pytest.raises(ValueError, match=match):
            mode_convert(blocks, i, j, labels)


def test_mode_convert_rejects_float_blocks():
    with pytest.raises(TypeError, match="got float"):
        mode_convert([[None, [[0.5]]], [[[0.5]], None]], 1, 2)


# -- CSV ---------------------------------------------------------------------------


def test_bundled_csv_parses(dgg):
    assert dgg.shape == (18, 14)
    assert sum(sum(r) for r in dgg.matrix) == 89
    assert dgg.dates is not None
    assert dgg.date_of("E_11") == datetime.date(1936, 1, 23)
    assert dgg.date_of("E_14") == datetime.date(1936, 11, 21)


def test_csv_without_dates():
    data = parse_incidence_csv("name,c1\nr1,1\nr2,0\n")
    assert data.dates is None
    assert data.matrix == ((1,), (0,))


def test_csv_non_binary_entry_diagnostic():
    with pytest.raises(IncidenceFormatError) as err:
        parse_incidence_csv("name,c1,c2\nr1,1,7\n")
    assert err.value.line == 2 and err.value.column == 3


def test_csv_bad_date_diagnostic():
    with pytest.raises(IncidenceFormatError) as err:
        parse_incidence_csv("name,c1\ndate,13/40\nr1,1\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, match, line, column",
    [
        ("", "empty incidence file", 1, None),
        ("\n  \n", "empty incidence file", 1, None),
        ("name,E1,,E3\n", "missing column label", 1, None),
        ("name,E1,E2\ndate,3/2\n", "date row has 1 entries for 2 columns", 2, None),
        ("name,E1\ndate,3-2\n", "date must be M/D, got '3-2'", 2, 2),
        ("name,E1\n,1\n", "missing row label", 2, 1),
        ("name,E1,E2\nr1,1\n", "row has 1 entries for 2 columns", 2, None),
        ("name,E1\n", "no data rows", 2, None),
        # the line after the last one read, past a date row and blank lines
        ("name,E1\ndate,3/2\n", "no data rows", 3, None),
        ("name,E1\n\ndate,3/2\n\n", "no data rows", 4, None),
        ("name,E1,E2\nr1,1,0\nr1,0,1\n", "repeated row label 'r1'", 3, 1),
        ("name,E1,E2\nr1,1,0\nE2,0,1\n", "row label 'E2' is also a column label", 3, 1),
        ("name,E1,E2,E1\nr1,1,0,1\n", "repeated column label 'E1'", 1, 4),
        ("name,#E1\nr1,1\n", "a label must not start with '#', got '#E1'", 1, 2),
        ("name,E1\n\n #r1,1\n", "a label must not start with '#', got '#r1'", 3, 1),
    ],
    ids=[
        "empty",
        "blank-only",
        "empty-column-label",
        "short-date-row",
        "dash-date",
        "empty-row-label",
        "short-data-row",
        "no-data-rows",
        "no-data-rows-after-dates",
        "no-data-rows-after-blank-lines",
        "repeated-row-label",
        "row-label-equals-column-label",
        "repeated-column-label",
        "hash-column-label",
        "hash-row-label",
    ],
)
def test_csv_diagnostics_name_their_place(text, match, line, column):
    with pytest.raises(IncidenceFormatError, match=match) as err:
        parse_incidence_csv(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_csv_missing_header():
    with pytest.raises(IncidenceFormatError):
        parse_incidence_csv("label,c1\nr1,1\n")
