import math
import random
import tracemalloc

import pytest

from k3fm import arith
from k3fm.arith import (
    Factorization,
    exact_divisor_values,
    factorize,
    factorize_window,
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
    limit = 20_000
    spf = sieve_smallest_factor(limit)
    for n in range(1, limit + 1):
        assert factorize(n).factors == factorize_via_sieve(n, spf), n


def trial_is_prime(p):
    """Trial division to isqrt(p), kept independent of factorize."""
    return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))


def trial_factorize(n):
    """The plain trial-division factorization, as a reference."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factorize_agrees_with_trial_division_on_random_n():
    rng = random.Random(4)
    primes = [p for p in range(2, 50_000) if trial_is_prime(p)]
    large = [p for p in primes if p > 2048]
    cases = [rng.randrange(1, 10**11) for _ in range(60)]
    cases += [rng.choice(primes) ** rng.randint(1, 2) * rng.choice(large) * rng.choice(large)
              for _ in range(200)]
    # Prime powers and products of small primes, the shapes of partners
    # requests: their cofactor is 1 long before the trial primes reach
    # sqrt(n).
    cases += rng.sample([p**k for p in primes if p < 2**12 for k in range(1, 40)
                         if p**k < 2**40], 100)
    cases += [math.prod(rng.sample([p for p in primes if p < 50], rng.randint(5, 8)))
              for _ in range(100)]
    for n in cases:
        got = factorize(n).factors
        assert got == trial_factorize(n), n
        assert all(trial_is_prime(p) for p, _ in got), n


# n -> its factorization.  2039 is the last prime below 2**11 and 2053,
# 2063, 2069 the first ones above it, where trial division hands over.
ADVERSARIAL = {
    2053**2: ((2053, 2),),
    2063**2: ((2063, 2),),
    2069**2: ((2069, 2),),
    2053**3: ((2053, 3),),
    2063**3: ((2063, 3),),
    2069**3: ((2069, 3),),
    2039 * 2053: ((2039, 1), (2053, 1)),
    561: ((3, 1), (11, 1), (17, 1)),  # Carmichael numbers
    41041: ((7, 1), (11, 1), (13, 1), (41, 1)),
    3215031751: ((151, 1), (751, 1), (28351, 1)),  # strong pseudoprimes
    3825123056546413051: ((149491, 1), (747451, 1), (34233211, 1)),
    2**64 - 59: ((2**64 - 59, 1),),  # the largest prime below 2**64
    10**18 + 3: ((10**18 + 3, 1),),
    (2**32 - 5) * (2**32 - 17): ((2**32 - 17, 1), (2**32 - 5, 1)),
    4294967291**2: ((4294967291, 2),),
    2 * 2147483647**2: ((2, 1), (2147483647, 2)),
    2**64 - 1: ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)),
    2**63: ((2, 63),),
}


@pytest.mark.parametrize("n", sorted(ADVERSARIAL))
def test_factorize_adversarial_within_budget(n, time_budget):
    with time_budget(0.5):
        got = factorize(n).factors
    assert got == ADVERSARIAL[n]
    # Primes past 2**40 would take trial division too long; the two there
    # are known primes.
    assert all(trial_is_prime(p) for p, _ in got if p < 2**40)


def test_factorize_refuses_two_to_the_64():
    assert factorize(2**64 - 1).omega == 7
    for n in (2**64, 3**41, 10**30):
        with pytest.raises(ValueError):
            factorize(n)


# Windows at the hand-overs of the strided pass: trial division alone up
# to 2**22, Miller-Rabin and rho past it, 2053**2 the first square of a
# prime past the trial primes, and the top of the supported range.
WINDOWS = [(2**22 - 300, 2**22 + 300), (10**12, 10**12 + 300),
           (2053**2 - 50, 2053**2 + 50), (2**64 - 301, 2**64 - 1)]


def test_factorize_window_matches_factorize():
    # factorize(d) is the one-level window, which stops once p*p passes its
    # cofactor; a wider window strides on to sqrt(d_max).  This compares
    # the two stopping rules.
    # Consecutive windows of random width cover 1..200 000.  Each window's
    # per-d factorizations are taken first: factorize keeps only the last
    # level a window hands out, and the next window starts past it.
    rng = random.Random(6)
    windows, lo = [], 1
    while lo <= 200_000:
        hi = min(lo + rng.choice((0, 1, 2, rng.randrange(5000))), 200_000)
        windows.append((lo, hi))
        lo = hi + 1
    for lo, hi in windows + WINDOWS:
        expected = [factorize(d) for d in range(lo, hi + 1)]
        assert list(factorize_window(lo, hi)) == expected, (lo, hi)


def test_one_level_window_stops_at_the_square_root_of_its_cofactor(monkeypatch):
    # 2**40 is 1 after the stride of 2, so the pass is done at the prime 3;
    # striding on to sqrt(2**40) would take every trial prime below 2**11.
    class Counting:
        def __init__(self, primes):
            self.primes, self.taken = primes, 0

        def __iter__(self):
            for p in self.primes:
                self.taken += 1
                yield p

    primes = Counting(arith._TRIAL_PRIMES)
    monkeypatch.setattr(arith, "_TRIAL_PRIMES", primes)
    monkeypatch.setattr(arith, "_last", [Factorization(1, ())])
    assert factorize(2**40).factors == ((2, 40),)
    assert primes.taken <= 2


def test_factorize_window_across_block_edges():
    # Windows of _BLOCK + 1 and 2 * _BLOCK + 2 levels: the first ends in a
    # one-level block, and the second crosses two block edges.
    block = arith._BLOCK
    for lo, hi in ((5, 5 + block), (2**22 - block - 1, 2**22 + block)):
        expected = [factorize(d) for d in range(lo, hi + 1)]
        got = list(factorize_window(lo, hi))
        assert got == expected, (lo, hi)
        assert [f.divisors for f in got] == [f.divisors for f in expected]


def test_one_level_windows_at_the_block_size():
    spf = sieve_smallest_factor(arith._BLOCK + 1)
    for d in (arith._BLOCK - 1, arith._BLOCK, arith._BLOCK + 1):
        (f,) = factorize_window(d, d)
        assert f == factorize(d) and f.factors == factorize_via_sieve(d, spf)


def test_window_factorizations_equal_checked_ones():
    # The window builds its results without the constructor's checks; each
    # is what the checked constructor makes of the same factors, and is
    # what factorize answers for its level when it is handed out.
    for f in factorize_window(1, 10**5):
        checked = Factorization(f.n, f.factors)
        assert (f, f.divisors, hash(f)) == (checked, checked.divisors, hash(checked))
        assert factorize(f.n) is f


def test_window_holds_one_block_before_its_first_level():
    tracemalloc.start()
    try:
        first = next(factorize_window(1, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == Factorization(1, ())
    # One block of 2**14 levels peaks near 3.6 MB; the whole window's
    # lists, built before the first level, peaked near 247 MB.
    assert peak < 8 << 20


def test_factorize_window_rejects_bad_ranges():
    for lo, hi in ((0, 5), (5, 4), (2**64 - 1, 2**64)):
        with pytest.raises(ValueError):
            factorize_window(lo, hi)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (3, 1)))  # wrong product
    with pytest.raises(ValueError):
        Factorization(0, ())  # n not positive
    with pytest.raises(ValueError):
        Factorization("6", ((2, 1), (3, 1)))  # n not an int


@pytest.mark.parametrize("n, factors", [
    (30, ((2, 1), (15, 1))),  # 30 has 8 exact divisors, not the 4 of (2, 15)
    (4, ((4, 1),)),
    (2 * 4096, ((2, 1), (4096, 1))),  # even, past the trial-division primes
    (2 * 2053 * 2063, ((2, 1), (2053 * 2063, 1))),
    (3215031751, ((3215031751, 1),)),  # a strong pseudoprime to 2, 3, 5 and 7
])
def test_factorization_refuses_composite_factors(n, factors):
    with pytest.raises(ValueError, match="sorted prime powers"):
        Factorization(n, factors)


FIRST_16_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_factorization_is_bounded_like_factorize(time_budget):
    # 2**16 exact divisors of a 65-bit n: refused before any is built, as
    # factorize refuses n >= 2**64.
    n = math.prod(FIRST_16_PRIMES)
    assert n >= 2**64
    with time_budget(0.5):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            Factorization(n, tuple((p, 1) for p in FIRST_16_PRIMES))
        # factors that overshoot an n in range stop the divisor doubling, and
        # an exponent no level below 2**64 has is not raised to its power
        with pytest.raises(ValueError, match="do not multiply"):
            Factorization(6, tuple((p, 1) for p in FIRST_16_PRIMES + (59, 61, 67, 71)))
        with pytest.raises(ValueError, match="do not multiply"):
            Factorization(2, ((2, 10**9),))


def test_exact_divisors_examples():
    assert exact_divisor_values(1) == (1,)
    assert exact_divisor_values(6) == (1, 2, 3, 6)
    # 2 and 6 fail the coprimality test
    assert exact_divisor_values(12) == (1, 3, 4, 12)
    assert not is_exact_divisor(2, 12)


def test_exact_divisors_against_brute_force():
    for d in range(1, 400):
        assert exact_divisor_values(d) == brute_exact_divisors(d)



def exact_divisors_by_sieve(limit):
    """Exact divisors of every d <= limit, walking the multiples of each s."""
    out = [[] for _ in range(limit + 1)]
    for s in range(1, limit + 1):
        for d in range(s, limit + 1, s):
            if math.gcd(s, d // s) == 1:
                out[d].append(s)
    return out


def exact_divisors_from_all_divisors(f):
    """Every divisor of f.n (each exponent 0..k), kept when gcd(s, n/s) = 1."""
    divisors = [1]
    for p, k in f.factors:
        divisors = [v * p**j for v in divisors for j in range(k + 1)]
    return tuple(sorted(s for s in divisors if math.gcd(s, f.n // s) == 1))


def test_factorization_divisors_against_brute_force():
    # Every factorization shape up to 10**4, through the window's unchecked
    # construction and through the checked constructor.
    by_sieve = exact_divisors_by_sieve(10**4)
    for f in factorize_window(1, 10**4):
        assert f.divisors == Factorization(f.n, f.factors).divisors == tuple(by_sieve[f.n])
    # 2**64 - 1 = 3*5*17*257*641*65537*6700417; the last is the product of
    # the first 15 primes, the largest omega below 2**64.
    for n in (2**64 - 1, 9699690, 614889782588491410, 2**63, 2**30 * 3**18):
        f = factorize(n)
        assert f.divisors == exact_divisors_from_all_divisors(f)
        assert len(f.divisors) == 2**f.omega
    assert factorize(614889782588491410).omega == 15


def test_factorization_eq_hash_repr_ignore_divisors():
    f = Factorization(12, ((2, 2), (3, 1)))
    assert repr(f) == "Factorization(n=12, factors=((2, 2), (3, 1)))"
    assert hash(f) == hash((12, ((2, 2), (3, 1))))
    assert f == factorize(12) and f != Factorization(3, ((3, 1),))
    assert f.divisors == (1, 3, 4, 12)


def test_exact_divisor_values_reads_factorize_memo():
    assert not hasattr(exact_divisor_values, "cache_info")
    assert exact_divisor_values(30030) is factorize(30030).divisors

def test_float_argument_not_served_from_int_cache():
    assert exact_divisor_values(6) == (1, 2, 3, 6)
    assert factorize(6).factors == ((2, 1), (3, 1))
    with pytest.raises(ValueError):
        exact_divisor_values(6.0)
    with pytest.raises(ValueError):
        factorize(6.0)
    # factorize's slot compares a level by value, a bool passes the int
    # check, and True == 1 == 1.0: only that check keeps 1.0 from being
    # served level 1.
    for f in (exact_divisor_values, factorize):
        f(True)
        with pytest.raises(ValueError):
            f(1.0)


def test_bool_never_stored_as_the_entry_of_1():
    # True == 1 and hash(True) == hash(1): a cache keyed on the value alone
    # would hand factorize(1) a Factorization whose n is True.
    for first, second in ((True, 1), (1, True)):
        factorize(first)
        factorize(second)
        assert type(factorize(1).n) is int


def test_exact_divisor_count_formula():
    for d in range(1, 10_001):
        assert len(exact_divisor_values(d)) == 2 ** factorize(d).omega


def test_star_examples():
    assert star(1, 7) == 7
    assert star(2, 6) == 3  # 12 / gcd(2,6)^2
    with pytest.raises(ValueError):
        star(0, 3)
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
