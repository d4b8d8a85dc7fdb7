"""Test-local lattice arithmetic, kept apart from the library so the
references built on it do not share code with what they check, and a
float reference for the half-plane layer.

Matrices are 3x3 tuples of rows; vectors are coordinate triples in the
basis (e0, ell, e4).
"""

import math

from k3fm.errors import NumericalPole
from k3fm.halfplane import mobius

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def gram(d):
    """Gram matrix of Z*e0 + Z*ell + Z*e4 at level d."""
    return ((0, 0, -1), (0, 2 * d, 0), (-1, 0, 0))


def pair(d, u, v):
    """<u, v> = u^T * Gram * v, by the plain triple sum."""
    g = gram(d)
    return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def equivariance_defect(w, z, g):
    """halfplane.equivariance_defect in its row-by-row form: the lift g
    acts on embed(z) = (1, z, d*z^2) row by row, the best coordinate is
    picked by max, and the distance sums three squares.  Every sum is
    written out left to right (a row from the int 0), so the reference does
    not follow the running Python's sum().  The library's straight-line
    form must give the same float, bit for bit."""
    gm = tuple(tuple(float(x) for x in row) for row in g.m)
    zz, zm = z.z, mobius(w, z).z
    tv = (complex(1.0), zz, w.d * zz * zz)
    x = tuple(0 + row[0] * tv[0] + row[1] * tv[1] + row[2] * tv[2] for row in gm)
    y = (complex(1.0), zm, w.d * zm * zm)
    j = max(range(3), key=lambda i: abs(x[i]) + abs(y[i]))
    if abs(x[j]) < 1e-300 or abs(y[j]) < 1e-300:
        raise NumericalPole("projectivization degenerated")
    e = [abs(x[i] / x[j] - y[i] / y[j]) ** 2 for i in range(3)]
    return math.sqrt(e[0] + e[1] + e[2])
