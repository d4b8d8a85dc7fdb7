"""The rank-3 lattice Z*e0 + Z*ell + Z*e4 with Gram matrix

    [[0, 0, -1], [0, 2d, 0], [-1, 0, 0]]

(signature (2,1)): exact isometry tests, the orientation test on the
positive 2-plane, and the induced unit on the discriminant group Z/2d.

Matrices are 3x3 tuples of integers; columns are the images of the basis
vectors (e0, ell, e4) and matrices act on coordinate columns from the left.
A rational entry exists only on the wire: `isometry_from_json` reduces each
one to an integer or refuses the matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ActionNotDiagonal, NotAnIsometry, NotIntegral

__all__ = [
    "Matrix",
    "IsometryN",
    "mat_neg",
    "mat_det",
    "is_isometry",
    "is_orientation_preserving",
    "discriminant_unit",
    "isometry_from_json",
]

Matrix = tuple[tuple[int, int, int], ...]


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_det(a: Matrix) -> int:
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    return (a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)
            + a13 * (a21 * a32 - a22 * a31))


@dataclass(frozen=True)
class IsometryN:
    """A 3x3 integer matrix acting on the lattice; whether it really
    preserves the Gram form is a question (is_isometry), not an assumption.
    Entries are ints (a bool is one); anything else raises TypeError."""

    d: int
    m: Matrix

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError("d must be a positive integer")
        if len(self.m) != 3:
            raise ValueError("m must be 3x3")
        r0, r1, r2 = self.m
        if len(r0) != 3 or len(r1) != 3 or len(r2) != 3:
            raise ValueError("m must be 3x3")
        for x in (*r0, *r1, *r2):
            if not isinstance(x, int):
                raise TypeError(f"expected an int entry, got {type(x).__name__}")
        object.__setattr__(self, "m", (tuple(r0), tuple(r1), tuple(r2)))


def is_isometry(g: IsometryN) -> bool:
    """Exact check of transpose(m) * Gram * m == Gram.  Entry (i, j) of the
    left side is the pairing <c_i, c_j> = 2d*c_i[1]*c_j[1] - c_i[0]*c_j[2]
    - c_i[2]*c_j[0] of columns i and j of m, so the images u, v, w of
    (e0, ell, e4) must pair as the basis does."""
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
    d = g.d
    # u = g*p1 is column 0 less d times column 2; v = g*p2 is column 1
    (m00, v0, m02), (m10, v_ell, m12), (m20, v4, m22) = g.m
    return ((d * (m00 - d * m02) - (m20 - d * m22)) * v_ell
            > (m10 - d * m12) * (d * v0 - v4))


def discriminant_unit(g: IsometryN) -> int:
    """The unit u mod 2d, reduced to [0, 2d), by which g multiplies the
    discriminant group Z/2d; u is a unit with u^2 = 1 (mod 4d).

    The e0/e4 block of the Gram matrix is unimodular, so the discriminant
    group is cyclic, generated by ell/2d.  For an isometry the e0 and e4
    coefficients of g*ell must vanish mod 2d (asserted) and the unit is the
    ell coefficient mod 2d.
    """
    twod = 2 * g.d
    a0 = g.m[0][1]
    u = g.m[1][1] % twod
    a4 = g.m[2][1]
    if a0 % twod or a4 % twod:
        raise ActionNotDiagonal(
            "image of ell is not a multiple of ell on the discriminant group"
        )
    # u^2 = 1 (mod 4d) also makes u a unit: a prime dividing u and 2d
    # would divide 1.
    if (u * u - 1) % (4 * g.d) != 0:
        raise ActionNotDiagonal(
            f"multiplier {u} does not preserve the discriminant form mod {2 * twod}"
        )
    return u


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _json_entry(x) -> int | None:
    """A JSON integer (not a bool) or a rational string like "7", "4/2" or
    "-1/6", reduced exactly; None for a rational that is not an integer."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        if not (den := int(den or 1)):
            raise ValueError(f"zero denominator in {x!r}")
        q, r = divmod(int(num), den)
        return None if r else q
    # The wording of the stdlib's rational parser, kept on stderr.
    raise ValueError(f"Invalid literal for Fraction: {str(x)!r}")


def isometry_from_json(obj, d: int) -> IsometryN:
    """Entries are JSON integers or rational strings; floats are refused.
    Every entry is parsed before a non-integral one raises NotIntegral, so
    a malformed entry anywhere is reported first."""
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
        except ValueError as exc:
            raise ValueError(f"malformed rational entry: {exc}") from exc
    if any(None in row for row in rows):
        raise NotIntegral("matrix is not integral")
    return IsometryN(d, tuple(rows))
