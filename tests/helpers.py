"""Test matrices and exact references shared by the tests.

The references compute in sympy's QQ(x), the tests' exact oracle, and read
the package's values only through their coefficients, never through the
package's own arithmetic.
"""

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from isoreduce.exactnum import Polynomial
from isoreduce.netmat import RfMatrix

SX = sympy.Symbol("x")
FIELD = QQ.frac_field(SX)


def P(*ascending):
    return Polynomial(ascending)


def path3():
    return RfMatrix(("1", "2", "3"), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def random_symmetric(rng, n, values=(0, 1)):
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = rng.choice(values)
    return RfMatrix(tuple(str(i) for i in range(n)), grid)


def to_field(v):
    """A RatFun as an element of sympy's QQ(x), read from its coefficients only."""
    num, den = (
        sum(sympy.Rational(c.numerator, c.denominator) * SX**k for k, c in enumerate(p.coeffs))
        for p in (v.num, v.den)
    )
    return FIELD.from_sympy(num / den)


def block_formula(m, keep):
    """M_SS - M_SS̄ (M_S̄S̄ - x I)^(-1) M_S̄S in sympy's QQ(x), as nested lists
    in the order of keep."""
    ki = [m.index(lab) for lab in keep]
    ri = [i for i in range(len(m)) if i not in ki]
    mat = DomainMatrix([[to_field(v) for v in row] for row in m.entries], (len(m), len(m)), FIELD)
    shifted = mat.extract(ri, ri) - DomainMatrix.eye(len(ri), FIELD) * FIELD.convert(SX)
    reduced = mat.extract(ki, ki) - mat.extract(ki, ri) * shifted.inv() * mat.extract(ri, ki)
    return reduced.to_list()
