"""Labeled matrices over rational functions and two-mode network input.

Node identity is by label everywhere; every operation preserves the label
order of its input, so printed tables and hierarchies stay aligned with the
source data.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .exactnum import RatFun

__all__ = [
    "IncidenceData",
    "IncidenceFormatError",
    "RfMatrix",
    "bipartite_adjacency",
    "project_rows",
    "project_cols",
    "mode_convert",
    "parse_incidence_csv",
    "load_incidence",
]


class IncidenceFormatError(ValueError):
    """Malformed incidence CSV; carries a 1-based line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class IncidenceData:
    """A labeled 0/1 incidence matrix with optional per-column dates.

    Rows are one mode (e.g. people), columns the other (e.g. events).
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    dates: tuple[datetime.date, ...] | None = None

    def __post_init__(self):
        rows = tuple(self.row_labels)
        cols = tuple(self.col_labels)
        grid = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        if self.dates is not None:
            object.__setattr__(self, "dates", tuple(self.dates))
        labels = rows + cols
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique within and across modes")
        if len(grid) != len(rows):
            raise ValueError("matrix row count does not match row labels")
        for row in grid:
            if len(row) != len(cols):
                raise ValueError("matrix column count does not match column labels")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"incidence entries must be 0 or 1, got {v}")
        # checked as given, so that int() cannot turn 0.7 into 0 first
        object.__setattr__(self, "matrix", tuple(tuple(int(v) for v in row) for row in grid))
        if self.dates is not None and len(self.dates) != len(cols):
            raise ValueError("dates must be given for every column")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def row_index(self, label: str) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown row label {label!r}") from None

    def col_index(self, label: str) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown column label {label!r}") from None

    def row_sum(self, label: str) -> int:
        return sum(self.matrix[self.row_index(label)])

    def col_sum(self, label: str) -> int:
        j = self.col_index(label)
        return sum(row[j] for row in self.matrix)

    def date_of(self, col_label: str) -> datetime.date:
        if self.dates is None:
            raise ValueError(f"no date recorded for event {col_label!r}")
        return self.dates[self.col_index(col_label)]


class RfMatrix:
    """Square node-labeled matrix with rational-function entries."""

    __slots__ = ("_labels", "_entries", "_index")

    def __init__(self, labels: Sequence[str], entries: Sequence[Sequence]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("matrix labels must be unique")
        grid = tuple(tuple(map(RatFun, row)) for row in entries)
        if len(grid) != len(labels) or any(len(row) != len(labels) for row in grid):
            raise ValueError("matrix must be square with one row/column per label")
        self._labels = labels
        self._entries = grid
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def entries(self) -> tuple[tuple[RatFun, ...], ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown node label {label!r}") from None

    def entry(self, row_label: str, col_label: str) -> RatFun:
        return self._entries[self.index(row_label)][self.index(col_label)]

    def row(self, label: str) -> tuple[RatFun, ...]:
        return self._entries[self.index(label)]

    def is_symmetric(self) -> bool:
        # tuple equality skips identical objects, so mirrored entries cost nothing
        return self._entries == tuple(zip(*self._entries))

    def is_constant(self) -> bool:
        return all(v.is_constant for row in self._entries for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RfMatrix):
            return NotImplemented
        return self._labels == other._labels and self._entries == other._entries

    def __hash__(self):
        return hash((self._labels, self._entries))

    def __repr__(self):
        return f"RfMatrix(labels={list(self._labels)!r}, n={len(self._labels)})"


def bipartite_adjacency(data: IncidenceData) -> RfMatrix:
    """Adjacency matrix [[0, A], [A^T, 0]] of the two-mode network.

    Labels are the row labels followed by the column labels.
    """
    n, m = data.shape
    labels = data.row_labels + data.col_labels
    size = n + m
    zero = RatFun.ZERO
    one = RatFun.ONE
    grid = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(m):
            if data.matrix[i][j]:
                grid[i][n + j] = one
                grid[n + j][i] = one
    return RfMatrix(labels, grid)


def _gram(labels: Sequence[str], rows: Sequence[Sequence]) -> RfMatrix:
    """The matrix of dot products of every pair of rows, as exact constants."""
    return RfMatrix(
        labels, [[RatFun(sum(x * y for x, y in zip(u, v))) for v in rows] for u in rows]
    )


def project_rows(data: IncidenceData) -> RfMatrix:
    """Row-mode projection A A^T; entry (i, k) counts shared columns.

    The diagonal keeps each row's total (its attendance count).
    """
    return _gram(data.row_labels, data.matrix)


def project_cols(data: IncidenceData) -> RfMatrix:
    """Column-mode projection A^T A; entry (j, l) counts shared rows."""
    cols = range(len(data.col_labels))
    return _gram(data.col_labels, [[row[j] for row in data.matrix] for j in cols])


def mode_convert(
    blocks: Sequence[Sequence],
    i: int,
    j: int,
    mode_labels: Sequence[Sequence[str]] | None = None,
) -> RfMatrix:
    """Convert a multimode block matrix to its mode-i square matrix A_ij A_ji.

    ``blocks[p][q]`` is the integer block between mode p+1 and mode q+1;
    diagonal blocks must be zero (or None). Mode indices i, j are 1-based and
    must differ; the blocks must satisfy A_ji = A_ij^T.
    """
    n_modes = len(blocks)
    if any(len(row) != n_modes for row in blocks):
        raise ValueError("block grid must be square in the number of modes")
    if not (1 <= i <= n_modes and 1 <= j <= n_modes):
        raise ValueError(f"mode indices must be in 1..{n_modes}")
    if i == j:
        raise ValueError("conversion requires two distinct modes")

    sizes = [None] * n_modes
    for p in range(n_modes):
        for q in range(n_modes):
            blk = blocks[p][q]
            if blk is None:
                continue
            rows = len(blk)
            cols = len(blk[0]) if rows else 0
            if any(len(r) != cols for r in blk):
                raise ValueError(f"block ({p + 1},{q + 1}) is ragged")
            for dim, size in ((p, rows), (q, cols)):
                if sizes[dim] is None:
                    sizes[dim] = size
                elif sizes[dim] != size:
                    raise ValueError(f"inconsistent size for mode {dim + 1}")
            if p == q and any(v != 0 for r in blk for v in r):
                raise ValueError("diagonal blocks must be zero")

    a_ij = blocks[i - 1][j - 1]
    a_ji = blocks[j - 1][i - 1]
    if a_ij is None or a_ji is None:
        raise ValueError(f"blocks ({i},{j}) and ({j},{i}) are required")
    rows, cols = len(a_ij), len(a_ij[0]) if a_ij else 0
    for r in range(rows):
        for c in range(cols):
            if a_ij[r][c] != a_ji[c][r]:
                raise ValueError(f"block ({j},{i}) is not the transpose of block ({i},{j})")

    if mode_labels is not None:
        labels = tuple(mode_labels[i - 1])
        if len(labels) != rows:
            raise ValueError(f"mode {i} has {rows} nodes but {len(labels)} labels")
    else:
        labels = tuple(f"M{i}_{k + 1}" for k in range(rows))
    # A_ji = A_ij^T was checked above, so A_ij A_ji is the Gram matrix of A_ij's rows.
    return _gram(labels, a_ij)


# -- incidence CSV -------------------------------------------------------------
#
# Line 1:  name,<col label>,...         Line 2 (optional):  date,<M/D>,...
# Then one line per row:  <row label>,<0|1>,...
# Dates carry month/day only. They are placed in the leap year _DATE_YEAR, so
# every M/D parses, 2/29 included; events only ever sort within one year.

_DATE_YEAR = 1936


def _parse_date(token: str, line: int, column: int) -> datetime.date:
    parts = token.strip().split("/")
    if len(parts) != 2:
        raise IncidenceFormatError(f"date must be M/D, got {token!r}", line, column)
    try:
        month, day = int(parts[0]), int(parts[1])
        return datetime.date(_DATE_YEAR, month, day)
    except ValueError as exc:
        raise IncidenceFormatError(f"invalid date {token!r}: {exc}", line, column) from None


def parse_incidence_csv(text: str) -> IncidenceData:
    rows_raw = [(i + 1, ln.split(",")) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows_raw:
        raise IncidenceFormatError("empty incidence file", 1)
    header_no, header = rows_raw[0]
    if header[0].strip() != "name":
        raise IncidenceFormatError("first cell must be 'name'", header_no, 1)
    col_labels = [c.strip() for c in header[1:]]
    if not col_labels or any(not c for c in col_labels):
        raise IncidenceFormatError("missing column label", header_no)

    body = rows_raw[1:]
    dates = None
    if body and body[0][1][0].strip() == "date":
        line_no, cells = body[0]
        if len(cells) != len(col_labels) + 1:
            raise IncidenceFormatError(
                f"date row has {len(cells) - 1} entries for {len(col_labels)} columns", line_no
            )
        dates = tuple([_parse_date(tok, line_no, k + 2) for k, tok in enumerate(cells[1:])])
        body = body[1:]

    row_labels = []
    grid = []
    for line_no, cells in body:
        label = cells[0].strip()
        if not label:
            raise IncidenceFormatError("missing row label", line_no, 1)
        if len(cells) != len(col_labels) + 1:
            raise IncidenceFormatError(
                f"row has {len(cells) - 1} entries for {len(col_labels)} columns", line_no
            )
        row = []
        for k, tok in enumerate(cells[1:]):
            tok = tok.strip()
            if tok not in ("0", "1"):
                raise IncidenceFormatError(f"entry must be 0 or 1, got {tok!r}", line_no, k + 2)
            row.append(int(tok))
        row_labels.append(label)
        grid.append(tuple(row))

    if not row_labels:
        raise IncidenceFormatError("no data rows", header_no + 1)
    try:
        return IncidenceData(tuple(row_labels), tuple(col_labels), tuple(grid), dates)
    except ValueError as exc:
        raise IncidenceFormatError(str(exc)) from None


def load_incidence(path: str | Path) -> IncidenceData:
    return parse_incidence_csv(Path(path).read_text(encoding="utf-8"))

