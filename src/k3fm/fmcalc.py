"""Mukai-vector bookkeeping for a degree-2d polarized K3 surface: the
derived-partner census, the canonical moduli-space transforms, and their
groupoid composition law.

Partners are labelled by classes {r, d/r} of exact divisors; the numerical
shadow of a transform between partners is its endpoint labels and its
Atkin-Lehner image, which fixes the rank and twist data of its action on
the upper half plane.  Actual derived categories are not representable
here; the groupoid carries partner labels as objects and this is
documented as the numerical shadow only.

`PartnerLabel` and `InducedTransform` check what they are given;
`induced_transform` checks r once and builds its image, labels and
transform unchecked, from closed forms its docstring proves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .arith import Factorization, factorize, is_exact_divisor, mod_inverse, star
from .errors import EndpointMismatch, InvalidLevel, LevelMismatch
from .modgroup import ALElement, al_inverse, al_mul

__all__ = [
    "PartnerLabel",
    "InducedTransform",
    "partner_label",
    "partner_census",
    "partner_representatives",
    "source_twist",
    "induced_transform",
    "compose",
    "invert",
]


@dataclass(frozen=True)
class PartnerLabel:
    """Canonical representative r <= d/r of the partner class {r, d/r};
    prints as the moduli space of stable sheaves with vector r + L + d/r."""

    d: int
    r: int

    def __post_init__(self) -> None:
        if not is_exact_divisor(self.r, self.d):
            raise InvalidLevel(f"r={self.r} is not an exact divisor of d={self.d}")
        if self.r * self.r > self.d:
            raise InvalidLevel("label wants the representative with r <= d/r")

    @property
    def moduli(self) -> str:
        return f"M_L({self.r}+L+{self.d // self.r})"

    @property
    def is_fine(self) -> bool:
        """True: gcd(r, L^2, d/r) = 1 makes the moduli space fine (recorded,
        not verified geometrically), and gcd(r, d/r) = 1 already holds for
        the exact divisor r.  The wire field `fine` carries this constant."""
        return True


def partner_label(d: int, r: int) -> PartnerLabel:
    """Label of the partner class of r, canonicalized to min(r, d/r)."""
    if not is_exact_divisor(r, d):
        raise InvalidLevel(f"r={r} is not an exact divisor of d={d}")
    return PartnerLabel(d, min(r, d // r))


def partner_representatives(level: Factorization) -> list[int]:
    """The representative r <= d/r of each partner class {r, d/r} of the
    level d = level.n, ascending: exactly one of r and d/r is at most
    sqrt(d) (they are equal only at d = 1), so keeping the exact divisors
    with r*r <= d folds the pairs.  For integers r*r <= d exactly when
    r <= isqrt(d), so the kept divisors are the prefix of the ascending
    divisor tuple that bisection at isqrt(d) cuts off.  The caller passes
    the factorization it already holds."""
    divisors = level.divisors
    return list(divisors[: bisect_right(divisors, math.isqrt(level.n))])


def partner_census(d: int) -> tuple[PartnerLabel, ...]:
    """One label per class {r, d/r}, in ascending order of r; the number of
    labels is the Fourier-Mukai number of the degree-2d surface."""
    return tuple(PartnerLabel(d, r) for r in partner_representatives(factorize(d)))


def source_twist(d: int, r: int) -> int:
    """Least nonnegative n with (d/r)*n = -1 (mod r), equivalently the n
    that makes (r + d*n)/r^2 an integer; coprimality of r and d/r
    guarantees one exists."""
    if not is_exact_divisor(r, d):
        raise InvalidLevel(f"r={r} is not an exact divisor of d={d}")
    return (-mod_inverse(d // r, r)) % r


@dataclass(frozen=True)
class InducedTransform:
    """Numerical shadow of a transform between derived partners: endpoint
    labels and the Atkin-Lehner image.  Construction reads off the image the
    rank c^2*(d/s) (one rank field: source and target ranks agree) and the
    twists n_src = -c*e and n_tgt = a*c of its fractional-linear action.
    Each is c times one of c, e, a, so either sign of the quintuple gives
    the same data; c == 0 (a translation) gives the rank-zero (0, 0, 0).
    `induced_transform` builds its value without this construction: its
    image has c = 1, so the rank is r and the twists are n and 1.
    """

    source: PartnerLabel
    target: PartnerLabel
    image: ALElement
    rank: int = field(init=False, compare=False)
    n_src: int = field(init=False, compare=False)
    n_tgt: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        d, s, c = self.image.d, self.image.s, self.image.c
        if self.source.d != d or self.target.d != d:
            raise LevelMismatch("endpoints and image must share the level d")
        u = star(self.source.r, self.target.r)
        if s not in (u, d // u):
            raise EndpointMismatch(
                f"coset level {s} inconsistent with endpoints "
                f"{self.source.moduli} -> {self.target.moduli}"
            )
        object.__setattr__(self, "rank", c * c * (d // s))
        object.__setattr__(self, "n_src", -c * self.image.e)
        object.__setattr__(self, "n_tgt", self.image.a * c)


def induced_transform(d: int, r: int) -> InducedTransform:
    """The canonical transform from the partner labelled by r back to the
    surface itself.

    With n the source twist and s = d/r, the image is the level-s element
    with quintuple (1, -(r + d*n)/r^2, 1, -n), and the target twist is 1
    because the universal family restricts over a point to sheaves with
    vector (r, 1, s).  source_twist checks r; nothing is checked again,
    since each check would pass.  (d/r)*n = -1 (mod r) makes
    d*n = r*(d/r)*n = -r (mod r^2), so r^2 divides r + d*n, and then
    a*e*s - b*c*(d/s) = -n*(d/r) + (r + d*n)/r = 1.  The labels min(r, d/r)
    and 1 are exact divisors at most sqrt(d), the coset level d/r is their
    star or its complement, and with c = 1 the rank c^2*(d/s) and the twists
    -c*e and a*c are r, n and 1.
    """
    n = source_twist(d, r)
    s = d // r
    image = ALElement.proved(d, s, 1, -((r + d * n) // (r * r)), 1, -n)
    source = object.__new__(PartnerLabel)
    source.__dict__.update(d=d, r=min(r, s))
    target = object.__new__(PartnerLabel)
    target.__dict__.update(d=d, r=1)
    t = object.__new__(InducedTransform)
    t.__dict__.update(source=source, target=target, image=image, rank=r, n_src=n,
                      n_tgt=1)
    return t


def compose(t1: InducedTransform, t2: InducedTransform) -> InducedTransform:
    """t1 after t2; endpoints must chain (t2.source -> t2.target == t1.source
    -> t1.target), which also rules out transforms at different levels."""
    if t1.source != t2.target:
        raise EndpointMismatch(
            f"cannot compose: {t2.target.moduli} != {t1.source.moduli}"
        )
    return InducedTransform(t2.source, t1.target, al_mul(t1.image, t2.image))


def invert(t: InducedTransform) -> InducedTransform:
    return InducedTransform(t.target, t.source, al_inverse(t.image))
