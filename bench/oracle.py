"""Exact reference results computed with sympy, never with isoreduce.

Reductions use DomainMatrix over QQ(x), so each kept entry is
M_SS - M_SR (M_RR - x I)^-1 M_RS in sympy's own canonical field arithmetic.
"""

from __future__ import annotations

from sympy import cancel, symbols, sympify
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

X = symbols("x")
FIELD = QQ.frac_field(X)


def bipartite_matrix(grid: list[list[int]]) -> DomainMatrix:
    """[[0, A], [A^T, 0]] over QQ(x) for the 0/1 grid A."""
    n, m = len(grid), len(grid[0])
    rows = [[FIELD.zero] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(m):
            if grid[i][j]:
                rows[i][n + j] = rows[n + j][i] = FIELD.one
    return DomainMatrix(rows, (n + m, n + m), FIELD)


def reduce(mat: DomainMatrix, keep: list[int]) -> DomainMatrix:
    """Isospectral reduction over the kept positions, in their given order."""
    kept = set(keep)
    removed = [k for k in range(mat.shape[0]) if k not in kept]
    shifted = mat.extract(removed, removed) - DomainMatrix.eye(len(removed), FIELD) * FIELD.convert(X)
    correction = mat.extract(keep, removed) * shifted.inv() * mat.extract(removed, keep)
    return mat.extract(keep, keep) - correction


def _row_degrees(mat: DomainMatrix) -> list[int]:
    return [sum(1 for v in row if v) for row in mat.to_list()]


def min_degree_hierarchy(mat: DomainMatrix, labels: list[str]) -> dict:
    """Core, levels and degree trace of the min-degree sequential reduction,
    in the layout of the `hierarchy` command's JSON."""
    labels = list(labels)
    removals: list[list[str]] = []
    trace = []
    while True:
        degrees = _row_degrees(mat)
        lowest = min(degrees)
        keep = [k for k, d in enumerate(degrees) if d > lowest]
        table = dict(zip(labels, degrees))
        if not keep:
            trace.append({"step": len(removals), "degrees": table, "removed": []})
            break
        removed = [labels[k] for k, d in enumerate(degrees) if d == lowest]
        trace.append({"step": len(removals), "degrees": table, "removed": removed})
        removals.append(removed)
        mat = reduce(mat, keep)
        labels = [labels[k] for k in keep]
    n = len(removals)
    return {
        "core": labels,
        "levels": [{"rank": n - i, "members": members} for i, members in enumerate(removals)],
        "trace": trace,
    }


def entries_match(reference: DomainMatrix, texts: list[list[str]]) -> bool:
    """True when every printed entry equals the reference entry exactly."""
    ref = reference.to_list()
    if len(ref) != len(texts) or any(len(a) != len(b) for a, b in zip(ref, texts)):
        return False
    for ref_row, text_row in zip(ref, texts):
        for value, text in zip(ref_row, text_row):
            printed = sympify(text, locals={"x": X}, convert_xor=True)
            if cancel(printed - FIELD.to_sympy(value)) != 0:
                return False
    return True
