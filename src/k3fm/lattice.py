"""The rank-3 lattice Z*e0 + Z*ell + Z*e4 with Gram matrix

    [[0, 0, -1], [0, 2d, 0], [-1, 0, 0]]

(signature (2,1)): exact isometry tests, the orientation test on the
positive 2-plane, and the induced unit on the discriminant group Z/2d.

Matrices are 3x3 tuples of exact numbers (int or Fraction); columns are the
images of the basis vectors (e0, ell, e4) and matrices act on coordinate
columns from the left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import ActionNotDiagonal, NotAnIsometry, NotIntegral

__all__ = [
    "Exact",
    "Matrix",
    "IsometryN",
    "DiscriminantUnit",
    "mat_neg",
    "mat_det",
    "is_isometry",
    "is_orientation_preserving",
    "discriminant_unit",
    "isometry_to_json",
    "isometry_from_json",
]

Exact = Union[int, Fraction]
Matrix = tuple[tuple[Exact, Exact, Exact], ...]


def _as_exact(x) -> Exact:
    """Coerce to int or Fraction; floats are refused, exactness is the point."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected an exact number, got {type(x).__name__}")


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_det(a: Matrix) -> Exact:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def _pair(d: int, u, v) -> Exact:
    """<u, v> = 2d*u_ell*v_ell - u0*v4 - u4*v0 on coordinate triples."""
    return 2 * d * u[1] * v[1] - u[0] * v[2] - u[2] * v[0]


@dataclass(frozen=True)
class IsometryN:
    """A 3x3 exact-rational matrix acting on the lattice; whether it really
    preserves the Gram form is a question (is_isometry), not an assumption."""

    d: int
    m: Matrix

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if len(self.m) != 3 or any(len(row) != 3 for row in self.m):
            raise ValueError("m must be 3x3")
        object.__setattr__(
            self, "m", tuple(tuple(_as_exact(x) for x in row) for row in self.m)
        )

    @cached_property  # m is immutable; represent, descend and discriminant_unit all ask
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.m for x in row)


@dataclass(frozen=True)
class DiscriminantUnit:
    """A unit u mod 2d with u^2 = 1 (mod 4d): the multiplier by which an
    integral isometry acts on the discriminant group Z/2d."""

    d: int
    u: int

    def __post_init__(self) -> None:
        twod = 2 * self.d
        if not 0 <= self.u < twod:
            raise ValueError(f"unit must be reduced mod {twod}")
        if math.gcd(self.u, twod) != 1:
            raise ValueError(f"{self.u} is not a unit mod {twod}")
        if (self.u * self.u - 1) % (4 * self.d) != 0:
            raise ValueError(f"{self.u}^2 != 1 mod {4 * self.d}")


def is_isometry(g: IsometryN) -> bool:
    """Exact check of transpose(m) * Gram * m == Gram.  Entry (i, j) of the
    left side is the pairing <c_i, c_j> of columns i and j of m, so the images
    of (e0, ell, e4) must pair as the basis does; exact for int and Fraction."""
    d = g.d
    c0, c1, c2 = zip(*g.m)
    return (_pair(d, c0, c2), _pair(d, c1, c1), _pair(d, c0, c0), _pair(d, c2, c2),
            _pair(d, c0, c1), _pair(d, c1, c2)) == (-1, 2 * d, 0, 0, 0, 0)


def is_orientation_preserving(g: IsometryN) -> bool:
    """Orientation test on the positive 2-plane spanned by (1, 0, -d) and
    (0, 1, 0).

    Projects the image plane back via the pairing matrix M_ij = <g*p_i, p_j>;
    the plane's own Gram form is 2d times the identity, so composing with its
    inverse only scales by a positive factor and the sign of det(M) decides.
    det(M) cannot vanish for a true isometry: a kernel vector would be both
    positive (in the image plane) and negative (orthogonal to the plane).
    With <q, p1> = d*q0 - q4 and <q, p2> = 2d*q_ell, det(M) is 2d times
    (d*u0 - u4)*v_ell - u_ell*(d*v0 - v4) for u = g*p1 and v = g*p2.
    """
    if not is_isometry(g):
        raise NotAnIsometry("orientation test requires a Gram-preserving matrix")
    d, m = g.d, g.m
    u0, u_ell, u4 = (row[0] - d * row[2] for row in m)  # v = g*p2 is column 1
    return (d * u0 - u4) * m[1][1] > u_ell * (d * m[0][1] - m[2][1])


def discriminant_unit(g: IsometryN) -> DiscriminantUnit:
    """The unit by which g multiplies the discriminant group Z/2d.

    The e0/e4 block of the Gram matrix is unimodular, so the discriminant
    group is cyclic, generated by ell/2d.  For an integral isometry the e0
    and e4 coefficients of g*ell must vanish mod 2d (asserted) and the unit
    is the ell coefficient mod 2d.
    """
    if not g.is_integral:
        raise NotIntegral("discriminant action requires an integral matrix")
    twod = 2 * g.d
    a0 = g.m[0][1]
    u = g.m[1][1] % twod
    a4 = g.m[2][1]
    if a0 % twod or a4 % twod:
        raise ActionNotDiagonal(
            "image of ell is not a multiple of ell on the discriminant group"
        )
    if math.gcd(u, twod) != 1 or (u * u - 1) % (4 * g.d) != 0:
        raise ActionNotDiagonal(
            f"multiplier {u} does not preserve the discriminant form mod {2 * twod}"
        )
    return DiscriminantUnit(g.d, u)


def isometry_to_json(g: IsometryN) -> list:
    """Row-major 3x3 array of rationals as strings (e.g. "7" or "1/6")."""
    return [[str(Fraction(x)) for x in row] for row in g.m]


def isometry_from_json(obj, d: int) -> IsometryN:
    """Entries are JSON integers or rational strings; floats are refused."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ValueError("expected a 3x3 array")
    rows = []
    for row in obj:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValueError("expected a 3x3 array")
        if any(isinstance(x, float) for x in row):
            raise ValueError("floats are refused; use integers or rational strings")
        try:
            rows.append(tuple(_as_exact(Fraction(str(x))) for x in row))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational entry: {exc}") from exc
    return IsometryN(d, tuple(rows))
