"""Numeric certification that a reduction preserved the spectrum.

Every eigenvalue of the original matrix that is not an eigenvalue of the
removed block must be a root of det(reduced(x) - x I). The check clears
that determinant's poles with the removed block's eigenvalues, divides out
the other eigenvalues, and sums it all in log space so nothing overflows.
A residual near machine precision certifies the root; order one refutes it.
A report stores one check per eigenvalue of the full matrix; the full
spectrum and the verdict are read off the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import isored
from .exactnum import RatFun
from .netmat import RfMatrix

__all__ = ["EXCLUSION_GAP", "ConvergenceError", "EigenCheck", "SpectrumReport", "sym_eigenvalues", "eval_det", "verify_spectrum"]

_EIG_TOL = 1e-12
_SWEEP_CAP = 100
EXCLUSION_GAP = 1e-6
_LOG_CAP = 700.0  # exp(700) < the largest double: capped residuals stay finite and fail


class ConvergenceError(RuntimeError):
    """The Jacobi sweep cap was hit before the off-diagonal norm dropped."""


def sym_eigenvalues(matrix: Sequence[Sequence[float]]) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending.

    Cyclic Jacobi rotations run until the off-diagonal Frobenius norm falls
    below _EIG_TOL, which bounds each eigenvalue's error by _EIG_TOL. The
    input must be symmetric within _EIG_TOL. Raises ConvergenceError after
    _SWEEP_CAP sweeps.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [[float(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(a[i][j] - a[j][i]) > _EIG_TOL:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
            mean = 0.5 * (a[i][j] + a[j][i])
            a[i][j] = a[j][i] = mean

    for _ in range(_SWEEP_CAP):
        off = math.sqrt(2.0 * sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)))
        if off <= _EIG_TOL:
            return sorted(a[i][i] for i in range(n))
        skip = _EIG_TOL / (10.0 * n)  # n >= 2: a smaller matrix has no off-diagonal entry
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p][:]
                rq = a[q][:]
                for k in range(n):
                    a[p][k] = c * rp[k] - s * rq[k]
                    a[q][k] = s * rp[k] + c * rq[k]
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                a[p][q] = a[q][p] = 0.0
    raise ConvergenceError(f"Jacobi did not converge within {_SWEEP_CAP} sweeps")


def _lu_pivots(a: list[list[float]]) -> list[float] | None:
    """LU pivots with partial pivoting, in place; None if singular. A row
    swap negates the pivot it brings in, so the pivots multiply to the det."""
    n = len(a)
    pivots = []
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        piv = a[col][col]
        pivots.append(piv if pivot == col else -piv)
        for r in range(col + 1, n):
            f = a[r][col] / piv
            if f:
                for c in range(col + 1, n):
                    a[r][c] -= f * a[col][c]
    return pivots


def eval_det(grid: Sequence[Sequence[RatFun]], x: float) -> float:
    """Determinant of the grid evaluated entrywise at x.

    Entries are evaluated by RatFun.__call__, and its PoleError (a denominator
    that evaluates to 0.0) propagates; a numerically singular factorization
    returns 0.0 (which is exactly the signal sought).
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix must be square")
    pivots = _lu_pivots([[v(x) for v in row] for row in grid])
    return 0.0 if pivots is None else math.prod(pivots, start=1.0)


@dataclass(frozen=True)
class EigenCheck:
    eigenvalue: float
    excluded: bool
    residual: float


@dataclass(frozen=True)
class SpectrumReport:
    """One check per eigenvalue of the full matrix, ascending. The full
    spectrum is the checks' eigenvalues; the report passes when every check
    is excluded or has a residual below the tolerance."""

    eigenvalues_removed_block: tuple[float, ...]
    checks: tuple[EigenCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.excluded or c.residual < self.tolerance for c in self.checks)


def verify_spectrum(m: RfMatrix, s: Iterable[str], tol: float = 1e-6) -> SpectrumReport:
    """Certify that reducing m over s preserves the spectrum.

    Eigenvalues of m that fall within EXCLUSION_GAP of the removed block's
    spectrum sit on poles of the reduced entries and are excluded from the
    check; there the residual is meaningless and recorded as NaN.

    For each remaining eigenvalue e the residual is

        |det(reduced(e) - e I)| * prod(|mu - e| over removed-block eigenvalues mu)
                                / prod(|e' - e| over far eigenvalues e')

    By Schur's identity the numerator is |det(m - e I)|: the removed block's
    eigenvalues clear the reduced determinant's poles. The divisor takes out
    the characteristic polynomial's slope, leaving the distance from e to the
    nearest actual root. It is summed as logs of the LU pivots and the
    distances, capped at exp(700), and 0.0 if the LU is singular.

    isored.reduce checks the kept set before any eigenvalue is computed,
    naming the first unknown label given; a reduction that does not keep
    exactly the requested labels raises RuntimeError.
    """
    full = m.map_entries(lambda v: float(v.as_fraction()))  # raises unless constant
    if not m.is_symmetric():
        raise ValueError("spectrum verification requires a symmetric matrix")
    wanted = dict.fromkeys(s)
    result = isored.reduce(m, wanted)
    if not result.removed:
        raise ValueError("verification requires a proper subset of the labels")
    reduced = result.reduced
    if list(reduced.labels) != [lab for lab in m.labels if lab in wanted]:
        raise RuntimeError("the reduction did not keep exactly the requested labels")

    ri = [m.index(lab) for lab in result.removed]
    block = [[full[a][b] for b in ri] for a in ri]

    eig_full = sym_eigenvalues(full)
    eig_removed = sym_eigenvalues(block)

    n = len(reduced)
    checks: list[EigenCheck] = []
    for lam in eig_full:
        if min(abs(lam - mu) for mu in eig_removed) < EXCLUSION_GAP:
            checks.append(EigenCheck(lam, True, math.nan))
            continue
        # one evaluation per distinct entry object, and still one value per cell
        vals = reduced.map_entries(lambda v: v(lam))
        for i in range(n):
            vals[i][i] -= lam
        pivots = _lu_pivots(vals)
        if pivots is None:
            residual = 0.0
        else:
            log_residual = (
                sum(math.log(abs(p)) for p in pivots)
                + sum(math.log(abs(mu - lam)) for mu in eig_removed)
                - sum(math.log(abs(e - lam)) for e in eig_full if abs(e - lam) > EXCLUSION_GAP)
            )
            residual = math.exp(min(log_residual, _LOG_CAP))
        checks.append(EigenCheck(lam, False, residual))

    return SpectrumReport(tuple(eig_removed), tuple(checks), tol)
