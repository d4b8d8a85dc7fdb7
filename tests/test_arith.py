import math
import random

import pytest

from k3fm.arith import (
    Factorization,
    exact_divisor_values,
    factorize,
    is_exact_divisor,
    mod_inverse,
    star,
)


def sieve_smallest_factor(limit):
    """Sieve of Eratosthenes, kept independent of the trial-division path."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def factorize_via_sieve(n, spf):
    out = []
    while n > 1:
        p = spf[n]
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return tuple(sorted(out))


def brute_exact_divisors(d):
    return tuple(
        s for s in range(1, d + 1) if d % s == 0 and math.gcd(s, d // s) == 1
    )


def test_factorize_trivial():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(360).omega == 3


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-4)


def test_factorize_against_sieve_oracle():
    limit = 1000
    spf = sieve_smallest_factor(limit)
    for d in range(1, limit // 2 + 1):
        assert factorize(2 * d).factors == factorize_via_sieve(2 * d, spf)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # wrong product


def test_exact_divisors_examples():
    assert exact_divisor_values(1) == (1,)
    assert exact_divisor_values(6) == (1, 2, 3, 6)
    # 2 and 6 fail the coprimality test
    assert exact_divisor_values(12) == (1, 3, 4, 12)
    assert not is_exact_divisor(2, 12)


def test_exact_divisors_against_brute_force():
    for d in range(1, 400):
        assert exact_divisor_values(d) == brute_exact_divisors(d)


def test_exact_divisor_count_formula():
    for d in range(1, 10_001):
        assert len(exact_divisor_values(d)) == 2 ** factorize(d).omega


def test_star_examples():
    assert star(1, 7) == 7
    assert star(2, 6) == 3  # 12 / gcd(2,6)^2
    for d in (1, 2, 6, 12, 30, 210):
        for s in exact_divisor_values(d):
            assert star(s, s) == 1


def test_star_group_laws_on_exact_divisors():
    for d in (6, 12, 30, 210):
        values = exact_divisor_values(d)
        for s in values:
            assert star(1, s) == s
            for t in values:
                assert star(s, t) == star(t, s)
                assert is_exact_divisor(star(s, t), d)
                for u in values:
                    assert star(star(s, t), u) == star(s, star(t, u))


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5  # 3*5 = 15 = 1 mod 7
    assert mod_inverse(17, 1) == 0
    for m in (2, 5, 24, 97):
        assert mod_inverse(1, m) == 1


def test_mod_inverse_exhaustive_small():
    for m in range(1, 40):
        for a in range(-2 * m, 2 * m + 1):
            if math.gcd(a, m) == 1:
                found = [x for x in range(m) if (a * x - 1) % m == 0 or m == 1]
                assert mod_inverse(a, m) == found[0]


def test_mod_inverse_random_pairs():
    rng = random.Random(101)
    count = 0
    while count < 1000:
        m = rng.randint(2, 10**6)
        a = rng.randint(-(10**6), 10**6)
        if math.gcd(a, m) != 1:
            continue
        x = mod_inverse(a, m)
        assert 0 <= x < m
        assert (a * x) % m == 1
        count += 1


def test_mod_inverse_rejects_noninvertible():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)
    with pytest.raises(ValueError):
        mod_inverse(5, 0)
