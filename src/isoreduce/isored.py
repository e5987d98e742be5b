"""Isospectral reduction of a labeled matrix over the rational-function field.

Reducing M over a kept node set S removes the complement S̄ while folding its
influence into the surviving entries:

    reduced = M_SS - M_SS̄ (M_S̄S̄ - x I)^(-1) M_S̄S

computed exactly, so the eigenvalue equation of the smaller matrix retains
the spectrum of the original (outside the spectrum of the removed block).

reduce removes the nodes of S̄ one at a time. Removing node r updates every
surviving entry by the single-node Schur complement

    e_ij <- e_ij + e_ir e_rj / (x - e_rr)

and by the quotient formula for Schur complements (Crabtree & Haynsworth,
1969) the result is exactly the block formula above, whatever order the
nodes go in. The pivot x - e_rr never vanishes while every entry stays
bounded as x -> oo (numerator degree at most denominator degree): constant
matrices meet that, and each removal keeps it, since the added term tends
to zero. A vanishing pivot raises SingularMatrixError, naming the first
node in elimination order whose pivot vanishes, and is never pivoted around.

Since the result does not depend on the order, the order only sets how much
work the intermediate entries take, and reduce picks each pivot by greedy
minimum degree (H. M. Markowitz, The elimination form of the inverse and its
application to linear programming, Management Science 3, 1957; A. George &
J. W. H. Liu, Computer Solution of Large Sparse Positive Definite Systems,
1981). Each step removes the live removed node v linked to the fewest other
live removed nodes c (e_vc or e_cv nonzero), the first in label order on a
tie. The links are read off the live entries, which already hold the fill of
every earlier removal.

Every network the paper reduces is undirected, and a Schur complement of a
symmetric matrix is symmetric. For a symmetric input each removal computes
only the upper triangle (i <= j) and mirrors it into the lower one, sharing
the immutable RatFun, which about halves the exact arithmetic. Directed
inputs update every entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactnum import RatFun
from .netmat import RfMatrix

__all__ = ["SingularMatrixError", "ReductionResult", "invert_over_field", "reduce"]


class SingularMatrixError(ArithmeticError):
    """The matrix is singular over the rational-function field."""


def invert_over_field(block: Sequence[Sequence[RatFun]]) -> list[list[RatFun]]:
    """Exact inverse by Gauss-Jordan elimination over the function field.

    The pivot is the first row with a nonzero entry in the column; the field
    is exact, so pivot choice only affects intermediate expression size.
    Raises SingularMatrixError when no pivot exists.
    """
    n = len(block)
    if any(len(row) != n for row in block):
        raise ValueError("matrix must be square")
    a = [list(row) for row in block]
    inv = [[RatFun.ONE if i == j else RatFun.ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not a[r][col].is_zero), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular over the function field")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        if p != RatFun.ONE:
            a[col] = [v / p for v in a[col]]
            inv[col] = [v / p for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f.is_zero:
                continue
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of one reduction: the surviving matrix and the removed nodes."""

    reduced: RfMatrix
    removed: tuple[str, ...]


def reduce(m: RfMatrix, s: Iterable[str]) -> ReductionResult:
    """Reduce m over the kept node set s, exactly.

    s must be a nonempty subset of m's labels, else ValueError naming the
    first unknown label in s's order; kept labels retain m's label order, and
    so do the removed labels in the result.

    The removed nodes go one at a time, in greedy minimum-degree order
    (Markowitz, 1957; George & Liu, 1981): each step takes the live removed
    node v linked to the fewest other live removed nodes c (e_vc or e_cv
    nonzero), the first in label order on a tie. The links are read off the
    live entries, so the fill of earlier removals counts.
    Removing r sets e_ij <- e_ij + e_ir e_rj / (x - e_rr) on the surviving
    entries, skipping rows with e_ir = 0 and columns with e_rj = 0. When m is
    symmetric only the entries with i <= j are computed and e_ji is set to
    e_ij; a directed m takes the full update. By the quotient formula this
    equals M_SS - M_SS̄ (M_S̄S̄ - x I)^(-1) M_S̄S in any order, so the order
    changes only the work. With s equal to all labels the result is an equal
    matrix. Raises SingularMatrixError naming the first pivot x - e_rr, in
    elimination order, that is zero, which cannot happen while every entry
    has numerator degree at most its denominator degree.
    """
    wanted = {m.index(lab) for lab in s}  # raises at the first unknown label in s's order
    if not wanted:
        raise ValueError("the kept node set must not be empty")
    kept = sorted(wanted)
    removed = [r for r in range(len(m)) if r not in wanted]

    sym = m.is_symmetric()
    e = [list(row) for row in m.entries]
    alive = list(range(len(m)))
    left = list(removed)

    def live_degree(v: int) -> int:  # links to the other live removed nodes, fill included
        return sum(1 for c in left if c != v and not (e[v][c].is_zero and e[c][v].is_zero))

    while left:
        r = min(left, key=live_degree)  # left ascends, so a tie goes to label order
        left.remove(r)
        alive.remove(r)
        pivot = RatFun.X - e[r][r]
        if pivot.is_zero:
            raise SingularMatrixError(f"pivot of {m.labels[r]!r} vanishes over the function field")
        rows = [i for i in alive if not e[i][r].is_zero]
        for j in alive:
            if e[r][j].is_zero:
                continue
            f = e[r][j] / pivot
            for i in rows:  # ascending, so the upper triangle ends at the first i > j
                if sym and i > j:
                    break
                e[i][j] = e[i][j] + e[i][r] * f
                if sym:
                    e[j][i] = e[i][j]
    reduced = RfMatrix([m.labels[i] for i in kept], [[e[i][j] for j in kept] for i in kept])
    return ReductionResult(reduced, tuple(m.labels[r] for r in removed))
