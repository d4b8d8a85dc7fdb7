"""Floating-point layer: upper-half-plane actions, the tube-domain
embedding, and the cross-checks tying the 2x2 and 3x3 pictures together.

Exactness lives in the other modules; this one renders coset elements to
real matrices (the only place a square root is taken) and measures
agreement with relative tolerances, 1e-12 for local arithmetic and 1e-9
for composed pipelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corr import represent
from .errors import LevelMismatch, NotInUpperHalfPlane, NumericalPole, ZeroRank
from .fmcalc import InducedTransform
from .lattice import IsometryN
from .modgroup import ALElement

__all__ = [
    "HalfPlanePoint",
    "real_matrix",
    "embed",
    "mobius",
    "induced_action",
    "equivariance_defect",
    "charge_product_defect",
]

_TINY = 1e-300


@dataclass(frozen=True)
class HalfPlanePoint:
    """z = u + i*v with u, v finite and v > 0."""

    u: float
    v: float

    def __post_init__(self) -> None:
        # Chained comparisons are False for nan, so this also refuses it.
        if not (0 < self.v < math.inf and -math.inf < self.u < math.inf):
            raise NotInUpperHalfPlane(
                f"({self.u}, {self.v}) is not a finite point with v > 0")

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)


def real_matrix(w: ALElement) -> tuple[tuple[float, float], tuple[float, float]]:
    """Render the quintuple to its real 2x2 matrix; the single irrational
    ingredient sqrt(s) enters here and nowhere else."""
    root = math.sqrt(w.s)
    return (
        (w.a * root, w.b / root),
        (w.c * (w.d // w.s) * root, w.e * root),
    )


def embed(z: HalfPlanePoint, d: int) -> tuple[complex, complex, complex]:
    """z -> [exp(z*L)] = (1, z, d*z^2) in coordinates (e0, ell, e4); isotropic,
    and positively paired with its conjugate."""
    zz = z.z
    return (complex(1.0), zz, d * zz * zz)


def mobius(w: ALElement, z: HalfPlanePoint) -> HalfPlanePoint:
    """Fractional-linear action of w.

    The imaginary part of the image of a determinant-one matrix is exactly
    v / |gamma*z + delta|^2; computing it that way keeps it positive where
    the naive complex quotient would cancel catastrophically for large
    entries.  A vanishing denominator is the (measure-zero) pole.
    """
    (al, be), (ga, de) = real_matrix(w)
    zz = z.z
    den = ga * zz + de
    den2 = den.real * den.real + den.imag * den.imag
    if den2 < _TINY:
        raise NumericalPole("Moebius denominator vanished")
    num = (al * zz + be) * den.conjugate()
    v_out = z.v / den2
    if not v_out > 0:
        raise NumericalPole("image collapsed onto the real axis")
    return HalfPlanePoint(num.real / den2, v_out)


def induced_action(
    d: int, rank: int, n_src: int, n_tgt: int, z: HalfPlanePoint
) -> HalfPlanePoint:
    """Action on the half plane of a rank/twist datum:

        z -> (1/(d*|rank|)) * (-1/(z - n_src/rank)) + n_tgt/rank.

    Rank zero acts by translation instead; use mobius with a translation.
    """
    if rank == 0:
        raise ZeroRank("rank-zero transforms act by translation")
    zz = z.z - n_src / rank
    if abs(zz) < _TINY:
        raise NumericalPole("action evaluated at its pole")
    out = (-1.0 / zz) / (d * abs(rank)) + n_tgt / rank
    if not out.imag > 0:
        raise NumericalPole(f"image {out} left the upper half plane")
    return HalfPlanePoint(out.real, out.imag)


def equivariance_defect(
    w: ALElement, z: HalfPlanePoint, isometry: IsometryN | None = None
) -> float:
    """Distance between the 3x3 lift acting on the embedded point and the
    embedding of the 2x2 action.

    Both images of the complex line are rescaled by their best-conditioned
    coordinate (largest magnitude, never a near-zero first component)
    before comparing; near zero certifies the two pictures agree through
    the tube domain.  Passing a matrix replaces the lift: a caller that
    already holds represent(w) saves lifting it again, and a harness can
    check that corruption is visible.
    """
    g = represent(w) if isometry is None else isometry
    d = w.d
    if g.d != d:
        raise LevelMismatch("matrix level does not match the element")
    # Straight-line form of x = g * embed(z) and y = embed(mobius(w, z)):
    # each row sum starts from the int 0 and every sum runs left to right,
    # so no float follows the running Python's sum(), which compensates
    # from 3.12 on.
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g.m
    g00, g01, g02 = float(g00), float(g01), float(g02)
    g10, g11, g12 = float(g10), float(g11), float(g12)
    g20, g21, g22 = float(g20), float(g21), float(g22)
    one, zz = complex(1.0), z.z
    zz2 = d * zz * zz
    x0 = 0 + g00 * one + g01 * zz + g02 * zz2
    x1 = 0 + g10 * one + g11 * zz + g12 * zz2
    x2 = 0 + g20 * one + g21 * zz + g22 * zz2
    y1 = mobius(w, z).z
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


def charge_product_defect(
    t: InducedTransform, z: HalfPlanePoint, image: HalfPlanePoint | None = None
) -> float:
    """|Z_src(z) * Z_tgt(t(z)) - 1| for the isotropic point-image vectors of
    a rank-nonzero transform.

    The source-side vector is (r, n, s) = (rank, n_src, d*n_src^2/rank) and
    likewise on the target side.  InducedTransform reads (rank, n_src, n_tgt)
    off the image as (c^2*(d/s), -c*e, a*c), so the two third entries are the
    integers e^2*s and a^2*s of the image's level s.  Each vector's central
    charge <exp(z*L), r + n*L + s> is 2*d*z*n - s - d*z^2*r.  Passing the
    image point replaces mobius(t.image, z): a caller that already holds
    it saves evaluating it again.
    """
    if t.rank == 0:
        raise ZeroRank("rank-zero transforms have no charge product")
    d = t.image.d
    s_src = d * t.n_src * t.n_src // t.rank
    s_tgt = d * t.n_tgt * t.n_tgt // t.rank
    r, z1, z2 = t.rank, z.z, (mobius(t.image, z) if image is None else image).z
    prod = ((2 * d * z1 * t.n_src - s_src - d * z1 * z1 * r)
            * (2 * d * z2 * t.n_tgt - s_tgt - d * z2 * z2 * r))
    return abs(prod - 1.0)
