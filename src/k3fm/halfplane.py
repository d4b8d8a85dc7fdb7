"""Floating-point layer: upper-half-plane actions and the cross-checks
tying the 2x2 and 3x3 pictures together through the tube domain.

Exactness lives in the other modules; this one evaluates the objects it is
handed (an element, a transform, a lift, an image point), with `mobius`
the only place a square root is taken.  A point is a Python complex
z = u + v*i with v > 0; each function that acts on a point refuses an
off-plane or non-finite one with NumericalPole, as it refuses a pole.

No tolerance is applied here: `verify` compares the action defect
(relative) and the equivariance defect (absolute) with a fixed 1e-9, and
decides the charge identity exactly in integers; `charge_product_defect`
is its float picture, which cancels catastrophically at large d.
"""

from __future__ import annotations

import math

from .errors import LevelMismatch, NumericalPole, ZeroRank
from .fmcalc import InducedTransform
from .lattice import IsometryN
from .modgroup import ALElement

__all__ = [
    "mobius",
    "induced_action",
    "equivariance_defect",
    "charge_product_defect",
]

_TINY = 1e-300


def mobius(w: ALElement, z: complex) -> complex:
    """Fractional-linear action of w through its real matrix
    ((a*sqrt(s), b/sqrt(s)), (c*(d/s)*sqrt(s), e*sqrt(s))).

    The imaginary part of the image of a determinant-one matrix is exactly
    v / |gamma*z + delta|^2; computing it that way keeps it positive where
    the naive complex quotient would cancel catastrophically for large
    entries.  A vanishing denominator is the (measure-zero) pole, and an
    image whose imaginary part is not positive (z off the plane or not
    finite, or a collapse onto the real axis) is refused.
    """
    root = math.sqrt(w.s)
    al, be = w.a * root, w.b / root
    ga, de = w.c * (w.d // w.s) * root, w.e * root
    den = ga * z + de
    den2 = den.real * den.real + den.imag * den.imag
    if den2 < _TINY:
        raise NumericalPole("Moebius denominator vanished")
    num = (al * z + be) * den.conjugate()
    v_out = z.imag / den2
    if not v_out > 0:
        raise NumericalPole("image is not in the upper half plane")
    return complex(num.real / den2, v_out)


def induced_action(t: InducedTransform, z: complex) -> complex:
    """Action on the half plane of a transform's rank/twist datum:

        z -> (1/(d*|rank|)) * (-1/(z - n_src/rank)) + n_tgt/rank.

    Rank zero acts by translation instead; use mobius(t.image, z).  The
    imaginary part of -1/(z - n_src/rank) has the sign of Im z, so the
    final check refuses an off-plane z as well as a collapse.
    """
    rank = t.rank
    if rank == 0:
        raise ZeroRank("rank-zero transforms act by translation")
    zz = z - t.n_src / rank
    if abs(zz) < _TINY:
        raise NumericalPole("action evaluated at its pole")
    out = (-1.0 / zz) / (t.image.d * abs(rank)) + t.n_tgt / rank
    if not out.imag > 0:
        raise NumericalPole(f"image {out} left the upper half plane")
    return out


def equivariance_defect(w: ALElement, z: complex, isometry: IsometryN) -> float:
    """Distance between the 3x3 isometry acting on the tube-domain point
    (1, z, d*z^2) (coordinates e0, ell, e4) and the tube-domain point of
    the 2x2 action of w.

    Both images of the complex line are rescaled by their best-conditioned
    coordinate (largest magnitude, never a near-zero first component)
    before comparing; near zero certifies that the isometry, normally
    represent(w), acts as w does through the tube domain.  A corrupted
    isometry shows as a large defect.  The point is checked by mobius.
    """
    d = w.d
    if isometry.d != d:
        raise LevelMismatch("matrix level does not match the element")
    # Straight-line form of x = isometry * (1, z, d*z^2) and
    # y = (1, y1, d*y1^2), y1 = mobius(w, z): each row sum starts from the
    # int 0 and every sum runs left to right, so no float follows the
    # running Python's sum(), which compensates from 3.12 on.
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = isometry.m
    g00, g01, g02 = float(g00), float(g01), float(g02)
    g10, g11, g12 = float(g10), float(g11), float(g12)
    g20, g21, g22 = float(g20), float(g21), float(g22)
    one, z2 = complex(1.0), d * z * z
    x0 = 0 + g00 * one + g01 * z + g02 * z2
    x1 = 0 + g10 * one + g11 * z + g12 * z2
    x2 = 0 + g20 * one + g21 * z + g22 * z2
    y1 = mobius(w, z)
    y2 = d * y1 * y1
    # The best-conditioned coordinate, chosen as max(range(3), key=...) would.
    k0, k1, k2 = abs(x0) + abs(one), abs(x1) + abs(y1), abs(x2) + abs(y2)
    if k1 > k0:
        xj, yj = (x2, y2) if k2 > k1 else (x1, y1)
    else:
        xj, yj = (x2, y2) if k2 > k0 else (x0, one)
    if abs(xj) < _TINY or abs(yj) < _TINY:
        raise NumericalPole("projectivization degenerated")
    return math.sqrt(abs(x0 / xj - one / yj) ** 2 + abs(x1 / xj - y1 / yj) ** 2
                     + abs(x2 / xj - y2 / yj) ** 2)


def charge_product_defect(t: InducedTransform, z: complex, image: complex) -> float:
    """|Z_src(z) * Z_tgt(image) - 1| for the isotropic point-image vectors
    of a rank-nonzero transform, where image is t(z), normally
    mobius(t.image, z).

    The source-side vector is (r, n, s) = (rank, n_src, d*n_src^2/rank) and
    likewise on the target side.  InducedTransform reads (rank, n_src, n_tgt)
    off the image as (c^2*(d/s), -c*e, a*c), so the two third entries are the
    integers e^2*s and a^2*s of the image's level s.  Each vector's central
    charge <exp(z*L), r + n*L + s> is 2*d*z*n - s - d*z^2*r.  The identity
    is polynomial in z, so no point is refused.
    """
    if t.rank == 0:
        raise ZeroRank("rank-zero transforms have no charge product")
    d = t.image.d
    s_src = d * t.n_src * t.n_src // t.rank
    s_tgt = d * t.n_tgt * t.n_tgt // t.rank
    r = t.rank
    prod = ((2 * d * z * t.n_src - s_src - d * z * z * r)
            * (2 * d * image * t.n_tgt - s_tgt - d * image * image * r))
    return abs(prod - 1.0)
