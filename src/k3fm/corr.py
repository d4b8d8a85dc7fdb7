"""The exact dictionary between Atkin-Lehner elements and lattice isometries.

`represent` lifts a 2x2 coset element to a 3x3 integral isometry through
hand-expanded entry formulas in which every sqrt(s) cancels, so integrality
is an identity rather than a rounding question.  `descend` inverts the lift
by reading the only possible level off the corner entries,
s = gcd(h11, h33, d), and then checking the entry pattern at that level.
Both build unchecked: the lift's entries are int products, and the
pattern `descend` matches holds a*e*s - b*c*(d/s) = 1.
`verify_correspondence` samples every coset of a level and certifies, at
desk scale, that the lift is Gram-preserving, orientation preserving,
invertible by `descend`, and acts on the discriminant group by +-1 exactly
on the Fricke cosets; `IsometryN` holds only integers, so integrality needs
no check.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from .arith import Factorization
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
    g = object.__new__(IsometryN)
    g.__dict__.update(d=d, m=m)
    return g


def _match_level(h, d: int, s: int) -> ALElement | None:
    """Read a level-s quintuple off the integer matrix h (det +1), or None;
    s divides h11, h33 and d.

    The corners give |a|, |b|, |c|, |e|: h11 = e^2*s, h33 = a^2*s,
    h31 = b^2*(d/s) and h13 = c^2*(d/s).  s divides h11 and h33 because
    `descend`, the only caller, takes s = gcd(h11, h33, d), so only the two
    quotients by d/s can leave a remainder.  Up to the projective sign the
    signs are forced: with e > 0 by h21 = b*e, h12 = 2*c*d*e and
    h22 + 1 = 2*a*e*s; with e = 0, b*c*(d/s) = -1, so c > 0 means b < 0 and
    h23 = a*c signs a.  The entry pattern, checked last, holds
    a*e*s - b*c*(d/s) = 1, which makes s exact.  h22 needs no comparison:
    det(h) is linear in it with coefficient h11*h33 - h13*h31 =
    (a*e*s)^2 - (b*c*(d/s))^2 = 1 + 2*b*c*(d/s), which is odd, so det(h) = 1
    forces the lift's h22 once every other entry matches.
    """
    t = d // s
    (h11, h12, h13), (h21, h22, h23), (h31, h32, h33) = h
    ee = h11 // s
    aa = h33 // s
    bb, rb = divmod(h31, t)
    cc, rc = divmod(h13, t)
    if rb or rc or ee < 0 or aa < 0 or bb < 0 or cc < 0:
        return None
    e, a, b, c = isqrt(ee), isqrt(aa), isqrt(bb), isqrt(cc)
    if e * e != ee or a * a != aa or b * b != bb or c * c != cc:
        return None
    if e:
        a, b, c = a if h22 >= 0 else -a, b if h21 > 0 else -b, c if h12 > 0 else -c
    else:
        a, b = (a if h23 > 0 else -a), -b
    if (a * e * s - b * c * t, b * e, a * c, 2 * c * d * e, 2 * a * b * d) != (
            1, h21, h23, h12, h32):
        return None
    return ALElement.proved(d, s, a, b, c, e)


def descend(g: IsometryN) -> ALElement:
    """Recover the unique coset element whose lift is g up to sign.

    Exactly one of g, -g has determinant +1 (the rank is odd); call it h.  A
    level-s lift has h11 = e^2*s and h33 = a^2*s, and a*e*s - b*c*(d/s) = 1
    makes a and e prime to d/s, so s = gcd(h11, h33, d) is the only level
    whose entry pattern h can match.  The same identity forces gcd(s, d/s)
    = 1, so an s that is not an exact divisor of d matches nothing.
    """
    det = mat_det(g.m)
    if det not in (1, -1):
        raise NotInImage(f"determinant {det} is not +-1")
    h = g.m if det == 1 else mat_neg(g.m)
    s = gcd(h[0][0], h[2][2], g.d)
    w = _match_level(h, g.d, s)
    if w is None:
        raise NotInImage("entry pattern matches no Atkin-Lehner coset")
    return w


def check_sample(w: ALElement) -> tuple[str, ...]:
    """Failed check names for one sampled coset element's lift represent(w);
    empty means clean."""
    g = represent(w)
    d = w.d
    failed = []
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
