"""Exact integer primitives: factorization, exact divisors, and the star
product on them."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = [
    "FACTORIZE_BOUND",
    "Factorization",
    "factorize",
    "factorize_window",
    "is_exact_divisor",
    "exact_divisor_values",
    "star",
    "mod_inverse",
]


# Levels are factorized exactly below this bound: there the twelve
# Miller-Rabin bases below are a proof of primality (they are exact below
# 3.18e23) and Pollard rho needs about n**(1/4) steps.
FACTORIZE_BOUND = 2**64


@dataclass(frozen=True)
class Factorization:
    """n written as a product of prime powers, primes strictly increasing.
    `divisors` holds its 2**omega exact divisors, ascending; n is below
    FACTORIZE_BOUND, so there are at most 2**15 of them."""

    n: int
    factors: tuple[tuple[int, int], ...]
    divisors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.n >= FACTORIZE_BOUND:
            raise ValueError(f"n must be below 2**64, got {self.n}")
        prod = 1
        last = 1
        for p, k in self.factors:
            if p <= last or k < 1:
                raise ValueError("factors must be sorted prime powers")
            last = p
            # p**k >= 2**k, so an exponent from 64 up overshoots any n here
            prod *= p**k if k < 64 else FACTORIZE_BOUND
            if prod > self.n:  # stop before a long tuple of factors is read
                break
            # p <= n < FACTORIZE_BOUND here, where _is_prime is a proof past 37
            if not (p in _SMALL_PRIMES if p < _TRIAL_LIMIT else _is_prime(p)):
                raise ValueError("factors must be sorted prime powers")
        if prod != self.n:
            raise ValueError(f"factors do not multiply to {self.n}")
        object.__setattr__(self, "divisors", _exact_divisors(self.factors))

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)


def _exact_divisors(factors: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The products of the subsets of the prime powers in `factors`,
    ascending: the exact divisors of their product."""
    divisors = [1]
    for p, k in factors:
        q = p**k
        # An append loop over a copy: before Python 3.12 a comprehension is
        # a function call of its own.
        for v in divisors[:]:
            divisors.append(v * q)
    divisors.sort()
    return tuple(divisors)


def _proved(n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
    """Factorization(n, factors) without the constructor's checks, for the
    window, whose factors are sorted prime powers that multiply to n by
    construction."""
    f = object.__new__(Factorization)
    f.__dict__.update(n=n, factors=factors, divisors=_exact_divisors(factors))
    return f


def _range_problem(d_min: int, d_max: int) -> str | None:
    """The usage problem with levels d_min..d_max, or None.  Levels from
    FACTORIZE_BOUND up are refused before any work: factorize is exact and
    bounded in time only below it."""
    if not 1 <= d_min <= d_max:
        return f"invalid range [{d_min}, {d_max}]"
    if d_max >= FACTORIZE_BOUND:
        return f"d must be below 2**64, got {d_max}"
    return None


# Trial division stops at this bound; cofactors it leaves are split by
# Miller-Rabin and Pollard-Brent rho.
_TRIAL_LIMIT = 2**11
# A cofactor below this bound that has no prime factor below _TRIAL_LIMIT,
# or none up to its square root, is 1 or prime (the first prime past
# _TRIAL_LIMIT is 2053).
_TRIAL_SQUARE = _TRIAL_LIMIT**2
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RHO_BATCH = 128  # rho steps per gcd
_BLOCK = 2**14  # levels per trial-division pass of a window


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_TRIAL_PRIMES = _primes_below(_TRIAL_LIMIT)
_SMALL_PRIMES = frozenset(_TRIAL_PRIMES)  # _is_prime answers False up to 37


# The level _window last yielded (level 1 before any): the census index
# fricke_coset_count(d) that follows a window's level finds it here.  It is
# set in place, so module attributes keep their identity (bench/tests).
_last: list[Factorization] = [_proved(1, ())]


def factorize(n: int) -> Factorization:
    """Exact factorization of 1 <= n < FACTORIZE_BOUND: the level a window
    last yielded if its n is n, else the one level of factorize_window(n, n),
    whose n is a plain int even when a bool is passed."""
    if not isinstance(n, int):  # a float would reach range() as a TypeError
        raise ValueError("factorize requires a positive integer")
    if (last := _last[0]).n == n:
        return last
    return next(factorize_window(n, n))


def factorize_window(d_min: int, d_max: int) -> Iterator[Factorization]:
    """factorize(d) for d = d_min, ..., d_max in order, from trial-division
    passes over blocks of _BLOCK consecutive levels: each prime below
    _TRIAL_LIMIT up to the square root of the block's last level strides
    over its multiples there, and a one-level block (so a one-level window)
    stops once p*p passes its cofactor.  A cofactor that may still be
    composite is split by a deterministic Miller-Rabin test and
    Pollard-Brent rho.  The range is checked on the call.  A block's pass
    runs when the iterator reaches the block, and each factorization is
    finished as the iterator reaches it, so a window holds one block at a
    time."""
    if (problem := _range_problem(d_min, d_max)) is not None:
        raise ValueError(problem)
    return _window(d_min, d_max)


def _window(d_min: int, d_max: int) -> Iterator[Factorization]:
    """factorize_window(d_min, d_max) past its range check."""
    for lo in range(d_min, d_max + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, d_max)
        rest = list(range(lo, hi + 1))
        found: list[list[tuple[int, int]]] = [[] for _ in rest]
        top = hi
        for p in _TRIAL_PRIMES:
            if p * p > top:
                break
            for i in range(-lo % p, len(rest), p):
                m, k = rest[i] // p, 1
                while m % p == 0:
                    m //= p
                    k += 1
                rest[i] = m
                found[i].append((p, k))
            if lo == hi:
                top = rest[0]
        for n, out, m in zip(range(lo, hi + 1), found, rest):
            if m >= _TRIAL_SQUARE:
                out += sorted(Counter(_prime_factors(m)).items())
            elif m > 1:
                out.append((m, 1))
            f = _last[0] = _proved(n, tuple(out))
            yield f


def _prime_factors(m: int) -> list[int]:
    """The prime factors of m > 1, with multiplicity; m has none below
    _TRIAL_LIMIT."""
    if _is_prime(m):
        return [m]
    f = _rho_factor(m)
    return _prime_factors(f) + _prime_factors(m // f)


def _is_prime(m: int) -> bool:
    """Strong-probable-prime test to every base in _MR_BASES; a proof of
    primality for odd m > 37 below FACTORIZE_BOUND."""
    q, r = m - 1, 0
    while q % 2 == 0:
        q //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, q, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho_factor(m: int) -> int:
    """A proper divisor of the odd composite m: Pollard rho on x -> x^2 + c
    with Brent's cycle finding, one gcd per _RHO_BATCH steps.  A c whose
    batch gcd jumps straight to m is replaced by c + 1."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:  # redo the last batch one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g


def is_exact_divisor(s: int, d: int) -> bool:
    return d >= 1 and 1 <= s <= d and d % s == 0 and math.gcd(s, d // s) == 1


def exact_divisor_values(d: int) -> tuple[int, ...]:
    """All s with s || d, ascending; there are 2**omega(d) of them.  They
    are factorize(d).divisors, and factorize refuses what is not a positive
    integer below 2**64."""
    return factorize(d).divisors


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
