"""Exact integer primitives: factorization, exact divisors, and the star
product on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Factorization",
    "factorize",
    "is_exact_divisor",
    "exact_divisor_values",
    "star",
    "mod_inverse",
]


@dataclass(frozen=True)
class Factorization:
    """n written as a product of prime powers, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        prod = 1
        last = 1
        for p, k in self.factors:
            if p <= last or k < 1:
                raise ValueError("factors must be sorted prime powers")
            last = p
            prod *= p**k
        if prod != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)


def factorize(n: int) -> Factorization:
    """Trial-division factorization; n here is a polarization degree and
    stays desk-scale."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("factorize requires a positive integer")
    m = n
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def is_exact_divisor(s: int, d: int) -> bool:
    return d >= 1 and 1 <= s <= d and d % s == 0 and math.gcd(s, d // s) == 1


def exact_divisor_values(d: int) -> tuple[int, ...]:
    """All s with s || d, ascending; there are 2**omega(d) of them."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    vals = [1]
    for p, k in factorize(d).factors:
        q = p**k
        vals += [v * q for v in vals]
    return tuple(sorted(vals))


def star(s: int, t: int) -> int:
    """s*t / gcd(s,t)^2; within the exact divisors of a fixed d this is the
    group law of an elementary abelian 2-group."""
    if s < 1 or t < 1:
        raise ValueError("star requires positive arguments")
    g = math.gcd(s, t)
    return (s * t) // (g * g)


def mod_inverse(a: int, m: int) -> int:
    """Least nonnegative x with a*x = 1 (mod m); 0 when m = 1."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("modulus must be a positive integer")
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {m}") from exc
