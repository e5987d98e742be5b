"""Test matrices, exact references and the benchmark loader shared by the tests.

This is the only test module that imports sympy, the tests' exact oracle.
The references compute in sympy's QQ[x] and QQ(x), and read the package's
values only through their coefficients, never through the package's own
arithmetic.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from isoreduce.exactnum import Polynomial
from isoreduce.netmat import RfMatrix

ROOT = Path(__file__).resolve().parent.parent
SX = sympy.Symbol("x")
FIELD = QQ.frac_field(SX)
RING = FIELD.field.ring  # QQ[x], the numerators and denominators of FIELD


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


def pattern_trace(m):
    """The (degrees, removed) stages of a minimum-degree hierarchy of m found
    from its zero pattern alone, by symbolic elimination: a node's degree is
    its out-set size, a self-loop counted once, and removing r joins every
    live in-neighbour of r to every out-neighbour of r, self-loops included.
    Reads only whether each entry of m is zero."""
    labels = list(m.labels)
    out = {a: {b for b, v in zip(labels, row) if v != 0} for a, row in zip(labels, m.entries)}
    trace = []
    while True:
        degrees = {a: len(out[a]) for a in labels}
        lowest = min(degrees.values())
        removed = tuple(a for a in labels if degrees[a] == lowest)
        if len(removed) == len(labels):
            return trace + [(degrees, ())]
        trace.append((degrees, removed))
        for r in removed:
            labels.remove(r)
            targets = out.pop(r) - {r}
            for a in labels:
                if r in out[a]:
                    out[a].discard(r)
                    out[a] |= targets


def load_bench(name):
    """The module bench/<name>.py, loaded without leaving a bytecode cache in bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# -- polynomials in sympy's QQ[x] ----------------------------------------------------


def to_sympy(p):
    """A Polynomial as a sympy Poly over QQ, read from its coefficients only."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, SX, domain="QQ")


def from_sympy(poly):
    """A sympy Poly over QQ as a Polynomial, built from its coefficients."""
    return Polynomial(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def sympy_divmod(a, b):
    """Quotient and remainder of a by b, by sympy's division over QQ."""
    q, r = sympy.div(to_sympy(a), to_sympy(b))
    return from_sympy(q), from_sympy(r)


def sympy_monic_gcd(a, b):
    """The gcd of a and b over QQ, which sympy makes monic."""
    return from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))


def sympy_zz_gcd(a, b):
    """The gcd over ZZ of two ascending int sequences, primitive with a positive
    leading coefficient."""
    g = sympy.Poly(a[::-1], SX, domain="ZZ").gcd(sympy.Poly(b[::-1], SX, domain="ZZ"))
    g = g.primitive()[1]
    return tuple(int(c) for c in reversed((g if g.LC() > 0 else -g).all_coeffs()))


def integer_roots(p):
    """The distinct integer roots of a Polynomial, ascending, found by sympy."""
    return sorted(int(r) for r in sympy.roots(to_sympy(p), filter="Z"))


def from_roots(roots):
    """The monic polynomial with exactly these roots, multiplied out by sympy."""
    return from_sympy(sympy.Poly(sympy.prod([SX - r for r in roots]), SX, domain="QQ"))


# -- rational functions and matrices in sympy's QQ(x) --------------------------------


def to_field(v):
    """A RatFun as an element of sympy's QQ(x), read from its coefficients only.
    Fails unless they are in lowest terms, as RatFun's canonical form keeps
    them, so a comparison through it checks the form as well as the value."""
    num, den = (
        RING.from_dict({(k,): QQ(c.numerator, c.denominator) for k, c in enumerate(p.coeffs) if c})
        for p in (v.num, v.den)
    )
    assert num.gcd(den).is_ground, f"{v!r} is not in lowest terms"
    return FIELD.field.new(num, den)


def field_rows(grid):
    """A grid of RatFuns as nested lists of QQ(x) elements."""
    return [[to_field(v) for v in row] for row in grid]


def field_matrix(grid):
    """A square grid of RatFuns as a dense matrix over QQ(x)."""
    return DomainMatrix(field_rows(grid), (len(grid), len(grid)), FIELD)


def field_identity(n):
    """The n x n identity over QQ(x), dense so that it compares equal to field_matrix's."""
    return DomainMatrix.eye(n, FIELD).to_dense()


def det_at(grid, x):
    """The determinant of a square grid of RatFuns, taken in QQ(x), then
    evaluated exactly at the float x and rounded once."""
    det = FIELD.to_sympy(field_matrix(grid).det())
    return float(det.subs(SX, sympy.Rational(x)))


def block_formula(m, keep):
    """M_SS - M_SS̄ (M_S̄S̄ - x I)^(-1) M_S̄S in sympy's QQ(x), as nested lists
    in the order of keep."""
    ki = [m.index(lab) for lab in keep]
    ri = [i for i in range(len(m)) if i not in ki]
    mat = field_matrix(m.entries)
    shifted = mat.extract(ri, ri) - DomainMatrix.eye(len(ri), FIELD) * FIELD.convert(SX)
    reduced = mat.extract(ki, ki) - mat.extract(ki, ri) * shifted.inv() * mat.extract(ri, ki)
    return reduced.to_list()


# -- float references ----------------------------------------------------------------


def charpoly_real_roots(m):
    """The real roots of an integer matrix's characteristic polynomial, exact,
    repeated by multiplicity, ascending, each rounded once to a float."""
    charpoly = sympy.Matrix(m).charpoly(sympy.Symbol("t"))
    return [float(r) for r in sympy.real_roots(charpoly)]
