"""Mukai-vector bookkeeping for a degree-2d polarized K3 surface: the
derived-partner census, the canonical moduli-space transforms, and their
groupoid composition law.

Partners are labelled by classes {r, d/r} of exact divisors; the numerical
shadow of a transform between partners is its Atkin-Lehner image together
with the rank and twist data that determine its action on the upper half
plane.  Actual derived categories are not representable here; the groupoid
carries partner labels as objects and this is documented as the numerical
shadow only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import exact_divisor_values, is_exact_divisor, mod_inverse, star
from .errors import (
    EndpointMismatch,
    InternalClosureViolation,
    InvalidLevel,
    LevelMismatch,
)
from .modgroup import ALElement, al_inverse, al_mul

__all__ = [
    "MukaiVector",
    "PartnerLabel",
    "InducedTransform",
    "PartnerCensus",
    "partner_label",
    "partner_census",
    "partner_representatives",
    "source_twist",
    "induced_transform",
    "compose",
    "invert",
    "census_to_json",
]


@dataclass(frozen=True)
class MukaiVector:
    """Triple (r, n, s) standing for r + n*L + s in the numerical
    Grothendieck group of a degree-2d surface."""

    d: int
    r: int
    n: int
    s: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def self_pairing(self) -> int:
        return 2 * self.d * self.n * self.n - 2 * self.r * self.s

    @property
    def is_isotropic(self) -> bool:
        return self.self_pairing == 0


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
            raise InvalidLevel(f"label wants the representative with r <= d/r")

    @property
    def complement(self) -> int:
        return self.d // self.r

    @property
    def moduli(self) -> str:
        return f"M_L({self.r}+L+{self.d // self.r})"

    @property
    def is_fine(self) -> bool:
        # gcd(r, L^2, s) = 1 is what makes the moduli space fine; recorded,
        # not verified geometrically.
        return math.gcd(self.r, 2 * self.d, self.d // self.r) == 1


def partner_label(d: int, r: int) -> PartnerLabel:
    """Label of the partner class of r, canonicalized to min(r, d/r)."""
    if not is_exact_divisor(r, d):
        raise InvalidLevel(f"r={r} is not an exact divisor of d={d}")
    return PartnerLabel(d, min(r, d // r))


@dataclass(frozen=True)
class PartnerCensus:
    """All derived-partner labels of the degree-2d surface."""

    d: int
    labels: tuple[PartnerLabel, ...]

    @property
    def fm_number(self) -> int:
        return len(self.labels)


def partner_representatives(d: int) -> list[int]:
    """The representative r <= d/r of each partner class {r, d/r},
    ascending: exactly one of r and d/r is at most sqrt(d) (they are equal
    only at d = 1), so keeping the exact divisors with r*r <= d folds the
    pairs, and the ascending divisor list keeps them in order."""
    return [r for r in exact_divisor_values(d) if r * r <= d]


def partner_census(d: int) -> PartnerCensus:
    """One label per class {r, d/r}, in ascending order of r."""
    labels = [PartnerLabel(d, r) for r in partner_representatives(d)]
    return PartnerCensus(d, tuple(labels))


def source_twist(d: int, r: int) -> int:
    """Least nonnegative n with (d/r)*n = -1 (mod r), equivalently the n
    that makes (r + d*n)/r^2 an integer; coprimality of r and d/r
    guarantees one exists."""
    if not is_exact_divisor(r, d):
        raise InvalidLevel(f"r={r} is not an exact divisor of d={d}")
    if r == 1:
        return 0
    return (-mod_inverse(d // r, r)) % r


def _params_from_image(image: ALElement) -> tuple[int, int, int]:
    """(rank, n_src, n_tgt) read off a coset element.

    On the sign representative with c > 0 the real matrix is exactly the
    fractional-linear transform of a rank c^2*(d/s) transform with twists
    n_src = -c*e and n_tgt = a*c.  c == 0 forces a translation, the rank
    zero case.
    """
    a, b, c, e = image.a, image.b, image.c, image.e
    if c == 0:
        return (0, 0, 0)
    if c < 0:
        a, b, c, e = -a, -b, -c, -e
    return (c * c * (image.d // image.s), -c * e, a * c)


@dataclass(frozen=True)
class InducedTransform:
    """Numerical shadow of a transform between derived partners: endpoint
    labels, the Atkin-Lehner image, and the rank/twist data (a single rank
    field, source and target ranks always agree)."""

    source: PartnerLabel
    target: PartnerLabel
    image: ALElement
    rank: int
    n_src: int
    n_tgt: int

    def __post_init__(self) -> None:
        d = self.image.d
        if self.source.d != d or self.target.d != d:
            raise LevelMismatch("endpoints and image must share the level d")
        u = star(self.source.r, self.target.r)
        if self.image.s not in (u, d // u):
            raise EndpointMismatch(
                f"coset level {self.image.s} inconsistent with endpoints "
                f"{self.source.moduli} -> {self.target.moduli}"
            )
        if (self.rank, self.n_src, self.n_tgt) != _params_from_image(self.image):
            raise ValueError("rank/twist data inconsistent with the image matrix")


def induced_transform(d: int, r: int) -> InducedTransform:
    """The canonical transform from the partner labelled by r back to the
    surface itself.

    With n the source twist and s = d/r, the image is the level-s element
    with quintuple (1, -(r + d*n)/r^2, 1, -n); the determinant identity
    holds automatically and the target twist is 1 because the universal
    family restricts over a point to sheaves with vector (r, 1, s).
    """
    n = source_twist(d, r)
    s = d // r
    k, rem = divmod(r + d * n, r * r)
    if rem:
        raise InternalClosureViolation("source twist failed to clear r^2")
    image = ALElement(d, s, 1, -k, 1, -n)
    return InducedTransform(partner_label(d, r), partner_label(d, 1), image, r, n, 1)


def compose(t1: InducedTransform, t2: InducedTransform) -> InducedTransform:
    """t1 after t2; endpoints must chain (t2.source -> t2.target == t1.source
    -> t1.target) and the rank/twist data are re-derived from the product."""
    if t1.image.d != t2.image.d:
        raise EndpointMismatch("cannot compose transforms at different levels")
    if t1.source != t2.target:
        raise EndpointMismatch(
            f"cannot compose: {t2.target.moduli} != {t1.source.moduli}"
        )
    image = al_mul(t1.image, t2.image)
    rank, n_src, n_tgt = _params_from_image(image)
    return InducedTransform(t2.source, t1.target, image, rank, n_src, n_tgt)


def invert(t: InducedTransform) -> InducedTransform:
    image = al_inverse(t.image)
    rank, n_src, n_tgt = _params_from_image(image)
    return InducedTransform(t.target, t.source, image, rank, n_src, n_tgt)


def census_to_json(census: PartnerCensus) -> dict:
    return {
        "d": str(census.d),
        "fm_number": str(census.fm_number),
        "labels": [
            {"r": str(lab.r), "moduli": lab.moduli, "fine": lab.is_fine}
            for lab in census.labels
        ],
    }
