"""Exact group algebra of Gamma0(d), its Atkin-Lehner cosets W_s, and the
Fricke subgroup, entirely in integer arithmetic.

An element of the coset W_s (s an exact divisor of the level d) is the
determinant-one real matrix

    (1 / sqrt(s)) * [[a*s, b], [c*d, e*s]],     a, b, c, e integers,

and determinant one is exactly the integer identity

    a*e*s - b*c*(d/s) == 1.

Only the quintuple (d, s, a, b, c, e) is stored, so products, inverses and
coset labels never touch an irrational number.  Elements are projective:
(a, b, c, e) and (-a, -b, -c, -e) describe the same transformation, and the
stored sign is normalized so the first nonzero of (a, c, b, e) is positive.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from .arith import exact_divisor_values, is_exact_divisor, mod_inverse
from .errors import (
    InternalClosureViolation,
    InvalidDeterminant,
    InvalidLevel,
    LevelMismatch,
)

__all__ = [
    "ALElement",
    "al_identity",
    "translation",
    "al_mul",
    "al_inverse",
    "is_fricke",
    "fricke_coset_count",
    "base_element",
    "random_gamma0",
    "random_al",
    "al_to_json",
    "al_from_json",
]


@dataclass(frozen=True)
class ALElement:
    """One element of the Atkin-Lehner coset W_s at level d.

    Validates the exact-divisor condition and the determinant identity on
    construction and normalizes the projective sign, so two equal group
    elements always compare equal as tuples.
    """

    d: int
    s: int
    a: int
    b: int
    c: int
    e: int

    def __post_init__(self) -> None:
        d, s, a, b, c, e = self.d, self.s, self.a, self.b, self.c, self.e
        if not (isinstance(d, int) and isinstance(s, int) and isinstance(a, int)
                and isinstance(b, int) and isinstance(c, int) and isinstance(e, int)):
            raise TypeError("ALElement entries must be integers")
        if not is_exact_divisor(s, d):
            raise InvalidLevel(f"s={s} is not an exact divisor of d={d}")
        det = a * e * s - b * c * (d // s)
        if det != 1:
            raise InvalidDeterminant(
                f"a*e*s - b*c*(d/s) = {det} != 1 for "
                f"(d,s,a,b,c,e)=({d},{s},{a},{b},{c},{e})"
            )
        if (a or c or b or e) < 0:  # the first nonzero of (a, c, b, e)
            for name, x in (("a", a), ("b", b), ("c", c), ("e", e)):
                object.__setattr__(self, name, -x)


def al_identity(d: int) -> ALElement:
    return ALElement(d, 1, 1, 0, 0, 1)


def translation(d: int, m: int) -> ALElement:
    """The Gamma0(d) element acting as z -> z + m."""
    return ALElement(d, 1, 1, m, 0, 1)


def al_mul(w1: ALElement, w2: ALElement) -> ALElement:
    """Exact product; lands in the coset of level star(s1, s2).

    Multiplies the integer matrices [[a*s, b], [c*d, e*s]], divides by
    g = gcd(s1, s2), and reads the quintuple back off the level-t pattern
    [[a*t, b], [c*d, e*t]] with t = star(s1, s2).  The four divisibilities
    are guaranteed by the coset law; a failure means a bug, not bad input.
    """
    if w1.d != w2.d:
        raise LevelMismatch(f"cannot multiply levels d={w1.d} and d={w2.d}")
    d = w1.d
    s1, s2 = w1.s, w2.s
    p11 = w1.a * s1 * w2.a * s2 + w1.b * w2.c * d
    p12 = w1.a * s1 * w2.b + w1.b * w2.e * s2
    p21 = w1.c * d * w2.a * s2 + w1.e * s1 * w2.c * d
    p22 = w1.c * d * w2.b + w1.e * s1 * w2.e * s2
    g = math.gcd(s1, s2)
    return _read_back(d, s1 * s2 // (g * g), g, p11, p12, p21, p22)


def _read_back(d: int, t: int, g: int, p11: int, p12: int, p21: int,
               p22: int) -> ALElement:
    """The level-t element whose pattern [[a*t, b], [c*d, e*t]] is the
    integer matrix [[p11, p12], [p21, p22]] divided by g."""
    a, ra = divmod(p11, g * t)
    b, rb = divmod(p12, g)
    c, rc = divmod(p21, g * d)
    e, re = divmod(p22, g * t)
    if ra or rb or rc or re:
        raise InternalClosureViolation(f"coset closure failed for W_{t} at d={d}")
    return ALElement(d, t, a, b, c, e)


def al_inverse(w: ALElement) -> ALElement:
    """Inverse in the same coset (every coset squares into W_1)."""
    return ALElement(w.d, w.s, w.e, -w.b, -w.c, w.a)


def is_fricke(w: ALElement) -> bool:
    return w.s in (1, w.d)


def fricke_coset_count(d: int) -> int:
    """Number of cosets of Fr_d in AL_d, i.e. of classes {s, d/s}: by
    Lagrange, |AL_d/Gamma0(d)| = 2**omega(d) over |Fr_d/Gamma0(d)| = |{1, d}|.
    The census compares it with the partner count, the r <= d/r among the
    same exact divisors, which factorize(d) returns from its last-level slot."""
    return len(exact_divisor_values(d)) // len({1, d})


def _base(d: int, s: int) -> tuple[int, int, int, int]:
    """The integers (a, b, c, e) of base_element(d, s)."""
    if not is_exact_divisor(s, d):
        raise InvalidLevel(f"s={s} is not an exact divisor of d={d}")
    if s == 1:
        return 1, 0, 0, 1
    t = d // s
    if t == 1:
        return 0, -1, 1, 0
    a = mod_inverse(s, t)
    return a, (a * s - 1) // t, 1, 1


def base_element(d: int, s: int) -> ALElement:
    """A canonical element of W_s with small nonnegative entries.

    s=1 gives the identity and s=d the involution z -> -1/(dz); otherwise
    the entries come from the smallest solution of a*s - b*(d/s) = 1.
    """
    return ALElement(d, s, *_base(d, s))


def _below(getrandbits, n: int, k: int) -> int:
    """A uniform draw from range(n), k = n.bit_length(): the loop CPython's
    Random.randrange(n) runs on getrandbits, so it spends the same bits."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# _gamma0_draw's range: _N values in [-_SPAN, _SPAN], _K bits per draw.
_SPAN = 10
_N = 2 * _SPAN + 1
_K = _N.bit_length()


def _gamma0_draw(d: int, rng: random.Random) -> tuple[int, int, int, int]:
    """random_gamma0's draw as the integers (a, b, c, e) of [[a, b], [c*d, e]].

    Samples the bottom-left multiplier c in [-10, 10] and a coprime top-left
    entry in the same range, completes to determinant one, then smears with
    random translation powers in that range on both sides.  Each uniform
    draw spends the same generator bits as Random.randint would; the
    coprimality loop inlines _below, since at 210 | d it rejects most rounds.
    """
    getrandbits = rng.getrandbits
    gcd = math.gcd
    while True:
        c = getrandbits(_K)
        while c >= _N:
            c = getrandbits(_K)
        a = getrandbits(_K)
        while a >= _N:
            a = getrandbits(_K)
        c -= _SPAN
        a -= _SPAN
        cd = c * d
        if gcd(a, cd) == 1:
            break
    if c == 0:
        b, e = 0, a
    else:
        e = mod_inverse(a, abs(cd))
        b = (a * e - 1) // cd
    j = _below(getrandbits, _N, _K) - _SPAN
    m = _below(getrandbits, _N, _K) - _SPAN
    # translation(d, j) * [[a, b], [c*d, e]] * translation(d, m), multiplied out
    top = a + j * cd
    b, e = top * m + b + j * e, e + m * cd
    if top * e - b * cd != 1:
        raise InternalClosureViolation(f"Gamma0({d}) draw has determinant != 1")
    return top, b, c, e


def random_gamma0(d: int, rng: random.Random) -> ALElement:
    """Random element of W_1 = Gamma0(d); same seed gives the same element."""
    return ALElement(d, 1, *_gamma0_draw(d, rng))


def random_al(d: int, s: int, rng: random.Random) -> ALElement:
    """Random element of W_s: the base element conjugated into the coset by
    independent Gamma0(d) factors on both sides.

    The product left * [[a*s, b], [c*d, e*s]] * right is formed in integers
    and read back by al_mul's helper with g = 1; sign normalization is
    projective, so one validated element at the end gives al_mul's result.
    """
    a, b, c, e = _base(d, s)
    a1, b1, c1, e1 = _gamma0_draw(d, rng)
    a2, b2, c2, e2 = _gamma0_draw(d, rng)
    a0, b0, cd0, e0 = a * s, b, c * d, e * s
    cd2 = c2 * d
    m11 = a0 * a2 + b0 * cd2
    m12 = a0 * b2 + b0 * e2
    m21 = cd0 * a2 + e0 * cd2
    m22 = cd0 * b2 + e0 * e2
    cd1 = c1 * d
    return _read_back(d, s, 1, a1 * m11 + b1 * m21, a1 * m12 + b1 * m22,
                      cd1 * m11 + e1 * m21, cd1 * m12 + e1 * m22)


def al_to_json(w: ALElement) -> dict:
    """Wire form; integers ride as decimal strings to survive any transport."""
    return {
        "d": str(w.d),
        "s": str(w.s),
        "abce": [str(w.a), str(w.b), str(w.c), str(w.e)],
    }


def _wire_int(x) -> int:
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"expected an integer or a decimal-integer string, got {x!r}")


def al_from_json(obj: dict) -> ALElement:
    """Inverse of al_to_json; JSON integers pass too, floats and bools do not."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    try:
        d = _wire_int(obj["d"])
        s = _wire_int(obj["s"])
        abce = obj["abce"]
        if not isinstance(abce, (list, tuple)) or len(abce) != 4:
            raise ValueError("abce must hold four integers")
        a, b, c, e = map(_wire_int, abce)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed element encoding: {exc}") from exc
    return ALElement(d, s, a, b, c, e)
