"""Test-local lattice arithmetic, kept apart from the library so the
references built on it do not share code with what they check, a
float reference for the half-plane layer, and the Gamma0(d) draw as a
gcd test per round.

Matrices are 3x3 tuples of rows; vectors are coordinate triples in the
basis (e0, ell, e4).
"""

import math
import random

from k3fm.arith import mod_inverse
from k3fm.errors import InternalClosureViolation, NumericalPole
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
    acts on the tube-domain point (1, z, d*z^2) row by row, the best
    coordinate is picked by max, and the distance sums three squares.  Every sum is
    written out left to right (a row from the int 0), so the reference does
    not follow the running Python's sum().  The library's straight-line
    form must give the same float, bit for bit."""
    gm = tuple(tuple(float(x) for x in row) for row in g.m)
    zm = mobius(w, z)
    tv = (complex(1.0), z, w.d * z * z)
    x = tuple(0 + row[0] * tv[0] + row[1] * tv[1] + row[2] * tv[2] for row in gm)
    y = (complex(1.0), zm, w.d * zm * zm)
    j = max(range(3), key=lambda i: abs(x[i]) + abs(y[i]))
    if abs(x[j]) < 1e-300 or abs(y[j]) < 1e-300:
        raise NumericalPole("projectivization degenerated")
    e = [abs(x[i] / x[j] - y[i] / y[j]) ** 2 for i in range(3)]
    return math.sqrt(e[0] + e[1] + e[2])


def _below(getrandbits, n: int, k: int) -> int:
    """A uniform draw from range(n), k = n.bit_length(): the loop CPython's
    Random.randrange(n) runs on getrandbits, so it spends the same bits."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# gamma0_draw's range: _N values in [-_SPAN, _SPAN], _K bits per draw.
_SPAN = 10
_N = 2 * _SPAN + 1
_K = _N.bit_length()


def gamma0_draw(d: int, rng: random.Random) -> tuple[int, int, int, int]:
    """The Gamma0(d) draw with gcd(a, c*d) == 1 computed in every round: the
    reference for modgroup._gamma0_draw, which reads that verdict from a
    table per level class.  It must spend the same generator bits.

    Samples the bottom-left multiplier c in [-10, 10] and a coprime top-left
    entry in the same range, completes to determinant one, then smears with
    random translation powers in that range on both sides.
    """
    getrandbits = rng.getrandbits
    gcd = math.gcd
    while True:
        c = getrandbits(_K)
        while c >= _N:
            c = getrandbits(_K)
        a = getrandbits(_K)
        while a >= _N:
            a = getrandbits(_K)
        c -= _SPAN
        a -= _SPAN
        cd = c * d
        if gcd(a, cd) == 1:
            break
    if c == 0:
        b, e = 0, a
    else:
        e = mod_inverse(a, abs(cd))
        b = (a * e - 1) // cd
    j = _below(getrandbits, _N, _K) - _SPAN
    m = _below(getrandbits, _N, _K) - _SPAN
    # [[1, j], [0, 1]] * [[a, b], [c*d, e]] * [[1, m], [0, 1]], multiplied out
    top = a + j * cd
    b, e = top * m + b + j * e, e + m * cd
    if top * e - b * cd != 1:
        raise InternalClosureViolation(f"Gamma0({d}) draw has determinant != 1")
    return top, b, c, e
