"""The lattice side of the surjection, checked exhaustively up to a height.

Every orientation-preserving integral isometry of the lattice
Z*e0 + Z*ell + Z*e4 comes from the Atkin-Lehner group.  Up to a height B
(the largest absolute value of an entry) both sides are finite, and they
are enumerated here independently of each other and of `descend`:

- the lattice side from isotropic vectors: the images u, w of e0 and e4
  are isotropic with <u, w> = -1, and the image of ell is orthogonal to
  both with norm 2d, so it is a multiple of the cross product
  (Gram*u) x (Gram*w);
- the element side from quintuples: a lift of height at most B has
  h11 = e^2*s, h33 = a^2*s, h13 = c^2*t and h31 = b^2*t (t = d/s), so
  |a|, |e| <= sqrt(B/s) and |b|, |c| <= sqrt(B/t).

The set `descend` returns from the orientation-preserving isometries must
be the set of elements.  Each level's height is large enough that every
coset has an element.
"""

import math
from collections import Counter, defaultdict

import pytest

import oracles
from k3fm.arith import exact_divisor_values
from k3fm.corr import descend, represent
from k3fm.errors import NotInImage
from k3fm.lattice import IsometryN, discriminant_unit, is_orientation_preserving
from k3fm.modgroup import ALElement, is_fricke

# (d, B, number of elements of height at most B).  At B = 200, d = 1, 2
# and 6 already hit every coset; d = 30 needs 240 and d = 60 and 210 need
# 840 and 9 660.
CASES = [(1, 200, 858), (2, 200, 478), (6, 200, 178), (30, 900, 158),
         (60, 840, 62), (210, 9660, 174)]


def _prime_factors(n):
    out, p = Counter(), 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1
    if n > 1:
        out[n] += 1
    return out


def _isotropic(d, bound):
    """The isotropic vectors (x0, x1, x2), x0*x2 = d*x1^2, with entries at
    most `bound` that can pair to -1 with another vector: gcd(x0, x2,
    2d*x1) divides every pairing, so it must be 1.  With x1 = 0 that leaves
    the four unit vectors; otherwise x0 runs over the divisors of d*x1^2."""
    out = [(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)]
    for x1 in range(1, math.isqrt(bound * bound // d) + 1):
        factors = _prime_factors(d) + _prime_factors(x1) + _prime_factors(x1)
        divisors = [1]
        for p, k in factors.items():
            divisors = [q * p**i for q in divisors for i in range(k + 1)]
        for x0 in divisors:
            x2 = d * x1 * x1 // x0
            if x0 <= bound and x2 <= bound and math.gcd(x0, x2, 2 * d * x1) == 1:
                out += [(x0, x1, x2), (x0, -x1, x2), (-x0, x1, -x2), (-x0, -x1, -x2)]
    return out


def _cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _isometries(d, bound):
    """Every integral isometry with entries at most `bound`.

    For isotropic u and w with <u, w> = -1, the integers u2*w0 and u0*w2
    have sum 1 + 2d*u1*w1 and product d^2*u1^2*w1^2, so they are the roots
    of a quadratic whose discriminant 1 + 4d*u1*w1 must be a square.  Only
    pairs of ell coordinates that make it one are joined, so the search is
    indexed by ell coordinate instead of running over all pairs.  The image
    of ell is n*c or -n*c for the primitive c along (Gram*u) x (Gram*w),
    with n^2 * <c, c> = 2d."""
    by_ell = defaultdict(list)
    for x in _isotropic(d, bound):
        by_ell[x[1]].append(x)
    found = []
    for p in by_ell:
        for q in by_ell:
            r = 1 + 4 * d * p * q
            if r < 0 or math.isqrt(r) ** 2 != r:
                continue
            for u in by_ell[p]:
                for w in by_ell[q]:
                    if 2 * d * p * q - u[0] * w[2] - u[2] * w[0] != -1:  # <u, w>
                        continue
                    c = _cross(oracles.mat_vec(oracles.gram(d), u),
                               oracles.mat_vec(oracles.gram(d), w))
                    c = tuple(x // math.gcd(*c) for x in c)
                    norm = oracles.pair(d, c, c)
                    n = math.isqrt(2 * d // norm) if norm > 0 else 0
                    if n * n * norm != 2 * d:
                        continue
                    for v in (tuple(n * x for x in c), tuple(-n * x for x in c)):
                        m = tuple(zip(u, v, w))  # columns u, v, w
                        if max(abs(x) for row in m for x in row) <= bound:
                            found.append(IsometryN(d, m))
    return found


def _solve(k, rhs, limit):
    """The x with |x| <= limit and k*x = rhs."""
    if k == 0:
        return range(-limit, limit + 1) if rhs == 0 else ()
    x, rem = divmod(rhs, k)
    return () if rem or abs(x) > limit else (x,)


def _elements(d, bound):
    """Every coset element whose lift has entries at most `bound`.  For
    each (a, b), a*e*s - b*c*t = 1 is run over the shorter of the e and c
    ranges and solved for the other."""
    found = set()
    for s in exact_divisor_values(d):
        t = d // s
        ae, bc = math.isqrt(bound // s), math.isqrt(bound // t)
        for a in range(-ae, ae + 1):
            for b in range(-bc, bc + 1):
                if ae <= bc:
                    ecs = ((e, c) for e in range(-ae, ae + 1)
                           for c in _solve(b * t, a * e * s - 1, bc))
                else:
                    ecs = ((e, c) for c in range(-bc, bc + 1)
                           for e in _solve(a * s, 1 + b * c * t, ae))
                for e, c in ecs:
                    w = ALElement(d, s, a, b, c, e)
                    if max(abs(x) for row in represent(w).m for x in row) <= bound:
                        found.add(w)
    return found


@pytest.mark.parametrize("d, bound, count", CASES)
def test_descend_maps_the_isometries_onto_the_elements(d, bound, count):
    preserving, reversing = [], []
    for g in _isometries(d, bound):
        (preserving if is_orientation_preserving(g) else reversing).append(g)
    assert len(preserving) == len(reversing)
    for g in reversing:
        with pytest.raises(NotInImage):
            descend(g)

    descended = {descend(g) for g in preserving}
    assert descended == _elements(d, bound)
    assert len(descended) == count
    assert {w.s for w in descended} == set(exact_divisor_values(d))
    for g in preserving:
        acts_by_sign = discriminant_unit(g) in (1 % (2 * d), 2 * d - 1)
        assert acts_by_sign == is_fricke(descend(g)), g
