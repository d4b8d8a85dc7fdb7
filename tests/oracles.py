"""Test-local lattice arithmetic, kept apart from the library so the
references built on it do not share code with what they check.

Matrices are 3x3 tuples of rows; vectors are coordinate triples in the
basis (e0, ell, e4).
"""

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
