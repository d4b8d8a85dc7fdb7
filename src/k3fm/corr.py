"""The exact dictionary between Atkin-Lehner elements and lattice isometries.

`represent` lifts a 2x2 coset element to a 3x3 integral isometry through
hand-expanded entry formulas in which every sqrt(s) cancels, so integrality
is an identity rather than a rounding question.  `descend` inverts the lift
by reading the only possible level off the corner entries,
s = gcd(h11, h33, d), and then checking the full entry pattern at that level.
`verify_correspondence` samples every coset of a level and certifies, at
desk scale, that the lift is integral, Gram-preserving, orientation
preserving, invertible by `descend`, and acts on the discriminant group by
+-1 exactly on the Fricke cosets.
"""

from __future__ import annotations

import math
import random

from .arith import Factorization, is_exact_divisor
from .errors import K3FMError, NotAnIsometry, NotInImage
from .lattice import (
    IsometryN,
    discriminant_unit,
    is_orientation_preserving,
    mat_det,
    mat_neg,
)
from .modgroup import ALElement, al_to_json, is_fricke, random_al

__all__ = [
    "represent",
    "descend",
    "check_sample",
    "verify_correspondence",
]

def represent(w: ALElement) -> IsometryN:
    """Integral 3x3 lift of a coset element.

    For the real matrix with entries (alpha, beta, gamma, delta) =
    (a*sqrt(s), b/sqrt(s), c*(d/s)*sqrt(s), e*sqrt(s)) the standard 3x3
    formula [[delta^2, 2*gamma*delta, gamma^2/d], [beta*delta,
    alpha*delta + beta*gamma, alpha*gamma/d], [d*beta^2, 2*d*alpha*beta,
    alpha^2]] collapses to the integer entries below.
    """
    d, s = w.d, w.s
    a, b, c, e = w.a, w.b, w.c, w.e
    t = d // s
    m = (
        (e * e * s, 2 * c * d * e, c * c * t),
        (b * e, a * e * s + b * c * t, a * c),
        (b * b * t, 2 * a * b * d, a * a * s),
    )
    return IsometryN(d, m)


def _match_level(h, d: int, s: int) -> ALElement | None:
    """Read a level-s quintuple off the integer matrix h (det +1), or None.

    The corners give |a|, |b|, |c|, |e|, and up to the projective sign the
    signs are forced: with e > 0 by h21 = b*e, h12 = 2*c*d*e and
    h22 + 1 = 2*a*e*s; with e = 0, b*c*(d/s) = -1, so c > 0 means b < 0 and
    h23 = a*c signs a.  The whole entry pattern is checked last.
    """
    t = d // s
    (h11, h12, h13), (h21, h22, h23), (h31, h32, h33) = h
    roots = []
    for num, div in ((h11, s), (h33, s), (h31, t), (h13, t)):
        q, rem = divmod(num, div)
        root = math.isqrt(q) if q >= 0 and not rem else -1
        if root < 0 or root * root != q:
            return None
        roots.append(root)
    e, a, b, c = roots
    if e:
        a, b, c = a if h22 >= 0 else -a, b if h21 > 0 else -b, c if h12 > 0 else -c
    else:
        a, b = (a if h23 > 0 else -a), -b
    pattern = (a * e * s - b * c * t, b * e, a * c, a * e * s + b * c * t,
              2 * c * d * e, 2 * a * b * d)
    if pattern != (1, h21, h23, h22, h12, h32):
        return None
    return ALElement(d, s, a, b, c, e)


def descend(g: IsometryN) -> ALElement:
    """Recover the unique coset element whose lift is g up to sign.

    Exactly one of g, -g has determinant +1 (the rank is odd); call it h.  A
    level-s lift has h11 = e^2*s and h33 = a^2*s, and a*e*s - b*c*(d/s) = 1
    makes a and e prime to d/s, so s = gcd(h11, h33, d) is the only level
    whose entry pattern h can match.
    """
    if not g.is_integral:
        raise NotInImage("matrix is not integral")
    det = mat_det(g.m)
    if det not in (1, -1):
        raise NotInImage(f"determinant {det} is not +-1")
    h = g.m if det == 1 else mat_neg(g.m)
    s = math.gcd(h[0][0], h[2][2], g.d)
    w = _match_level(h, g.d, s) if is_exact_divisor(s, g.d) else None
    if w is None:
        raise NotInImage("entry pattern matches no Atkin-Lehner coset")
    return w


def check_sample(w: ALElement, g: IsometryN | None = None) -> tuple[str, ...]:
    """Failed check names for one sampled coset element; empty means clean.

    g defaults to represent(w); passing a different matrix lets a harness
    confirm that corruption is actually detected.
    """
    if g is None:
        g = represent(w)
    d = w.d
    failed = []
    if not g.is_integral:
        failed.append("integral")
    try:
        if not is_orientation_preserving(g):  # runs the Gram test first
            failed.append("orientation")
    except NotAnIsometry:
        failed.append("isometry")
    try:
        if descend(g) != w:
            failed.append("round_trip")
    except NotInImage:
        failed.append("round_trip")
    try:
        u = discriminant_unit(g)
        acts_by_sign = u in (1 % (2 * d), (2 * d - 1) % (2 * d))
        if acts_by_sign != is_fricke(w):
            failed.append("fricke_criterion")
    except K3FMError:
        failed.append("fricke_criterion")
    return tuple(failed)


def verify_correspondence(
    level: Factorization, samples_per_coset: int, rng: random.Random
) -> tuple[tuple[dict, str], ...]:
    """Run check_sample on random elements of every coset of AL_d, d =
    level.n; an empty tuple means every check passed.

    Failures are data, not exceptions: each one is the offending element
    (wire form) and the name of the check it failed.
    """
    failures: list[tuple[dict, str]] = []
    for s in level.divisors:
        for _ in range(samples_per_coset):
            w = random_al(level.n, s, rng)
            for name in check_sample(w):
                failures.append((al_to_json(w), name))
    return tuple(failures)
