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
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import ActionNotDiagonal, NotAnIsometry, NotIntegral

__all__ = [
    "Exact",
    "Matrix",
    "IsometryN",
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


@dataclass(frozen=True)
class IsometryN:
    """A 3x3 exact-rational matrix acting on the lattice; whether it really
    preserves the Gram form is a question (is_isometry), not an assumption.
    `is_integral` says whether every entry is an int (bool included)."""

    d: int
    m: Matrix
    is_integral: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("d must be a positive integer")
        if len(self.m) != 3:
            raise ValueError("m must be 3x3")
        r0, r1, r2 = self.m
        if len(r0) != 3 or len(r1) != 3 or len(r2) != 3:
            raise ValueError("m must be 3x3")
        for x in (*r0, *r1, *r2):
            if type(x) is not int:
                break
        else:  # every entry a plain int, as every lift: nothing to coerce
            object.__setattr__(self, "m", (tuple(r0), tuple(r1), tuple(r2)))
            object.__setattr__(self, "is_integral", True)
            return
        rows, integral = [], True
        for row in self.m:
            exact = []
            for x in row:
                if not isinstance(x, int):
                    x = _as_exact(x)
                    integral = integral and isinstance(x, int)
                exact.append(x)
            rows.append(tuple(exact))
        object.__setattr__(self, "m", tuple(rows))
        object.__setattr__(self, "is_integral", integral)


def is_isometry(g: IsometryN) -> bool:
    """Exact check of transpose(m) * Gram * m == Gram.  Entry (i, j) of the
    left side is the pairing <c_i, c_j> = 2d*c_i[1]*c_j[1] - c_i[0]*c_j[2]
    - c_i[2]*c_j[0] of columns i and j of m, so the images u, v, w of
    (e0, ell, e4) must pair as the basis does; exact for int and Fraction."""
    twod = 2 * g.d
    (u0, v0, w0), (u1, v1, w1), (u2, v2, w2) = g.m
    return (twod * u1 * w1 - u0 * w2 - u2 * w0 == -1
            and twod * v1 * v1 - 2 * v0 * v2 == twod
            and twod * u1 * u1 - 2 * u0 * u2 == 0
            and twod * w1 * w1 - 2 * w0 * w2 == 0
            and twod * u1 * v1 - u0 * v2 - u2 * v0 == 0
            and twod * v1 * w1 - v0 * w2 - v2 * w0 == 0)


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
        raise NotAnIsometry("matrix does not preserve the Gram form")
    d, m = g.d, g.m
    u0, u_ell, u4 = (row[0] - d * row[2] for row in m)  # v = g*p2 is column 1
    return (d * u0 - u4) * m[1][1] > u_ell * (d * m[0][1] - m[2][1])


def discriminant_unit(g: IsometryN) -> int:
    """The unit u mod 2d, reduced to [0, 2d), by which g multiplies the
    discriminant group Z/2d; u is a unit with u^2 = 1 (mod 4d).

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
    return u


def isometry_to_json(g: IsometryN) -> list:
    """Row-major 3x3 array of rationals as strings (e.g. "7" or "1/6")."""
    return [[str(Fraction(x)) for x in row] for row in g.m]


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_entry(x) -> Exact:
    """A JSON integer (not a bool) or a rational string like "7" or "-1/6"."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return _as_exact(Fraction(x))
    raise ValueError(f"Invalid literal for Fraction: {str(x)!r}")


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
            rows.append(tuple(map(_json_entry, row)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational entry: {exc}") from exc
    return IsometryN(d, tuple(rows))
