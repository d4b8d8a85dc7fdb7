import hashlib
import math
import random
from fractions import Fraction

import pytest

import oracles
from k3fm import modgroup
from k3fm.arith import exact_divisor_values, factorize, star
from k3fm.errors import InternalClosureViolation, InvalidDeterminant, InvalidLevel, LevelMismatch
from k3fm.modgroup import (
    ALElement,
    al_from_json,
    al_inverse,
    al_mul,
    al_to_json,
    base_element,
    fricke_coset_count,
    is_fricke,
    random_al,
    random_gamma0,
)

D_SET = (1, 2, 6, 12, 30)


def random_elements(d, rng, count):
    out = []
    for _ in range(count):
        s = rng.choice(exact_divisor_values(d))
        out.append(random_al(d, s, rng))
    return out


def test_identity():
    w = ALElement(5, 1, 1, 0, 0, 1)
    assert (w.s, w.a, w.b, w.c, w.e) == (1, 1, 0, 0, 1)
    assert w.a * w.e * w.s - w.b * w.c * (w.d // w.s) == 1


def test_identity_law_random():
    rng = random.Random(0)
    for d in D_SET:
        one = ALElement(d, 1, 1, 0, 0, 1)
        for w in random_elements(d, rng, 20):
            assert al_mul(one, w) == w
            assert al_mul(w, one) == w


def test_from_tuple_examples():
    w = ALElement(2, 2, 1, -1, 1, 0)  # 1*0*2 - (-1)*1*1 = 1
    assert w.s == 2
    with pytest.raises(InvalidLevel):
        ALElement(4, 2, 1, 0, 0, 1)  # gcd(2, 4/2) = 2
    # c multiplies d in the real matrix, so this is [[1,0],[36,1]] in Gamma0(6)
    w = ALElement(6, 1, 1, 0, 6, 1)
    assert w.s == 1
    with pytest.raises(InvalidDeterminant):
        ALElement(6, 1, 1, 1, 1, 1)
    with pytest.raises(TypeError):
        ALElement(6, 2, 2.0, 1, 1, 1)


def test_sign_normalization():
    w = ALElement(6, 2, 1, 1, 1, 2)
    flipped = ALElement(6, 2, -1, -1, -1, -2)
    assert w == flipped
    # first nonzero of (a, c, b, e) is positive
    fr = ALElement(2, 2, 0, 1, -1, 0)
    assert fr.c > 0


def test_sign_normalization_multiplication_compatible():
    rng = random.Random(1)
    for d in (6, 12):
        for w1 in random_elements(d, rng, 10):
            for w2 in random_elements(d, rng, 3):
                neg1 = ALElement(d, w1.s, -w1.a, -w1.b, -w1.c, -w1.e)
                assert al_mul(neg1, w2) == al_mul(w1, w2)


def test_mul_levels_follow_star():
    rng = random.Random(2)
    for d in (6, 12, 30):
        values = exact_divisor_values(d)
        for s1 in values:
            for s2 in values:
                w1 = random_al(d, s1, rng)
                w2 = random_al(d, s2, rng)
                assert al_mul(w1, w2).s == star(s1, s2)


def test_mul_examples_at_six():
    rng = random.Random(3)
    for _ in range(50):
        w1 = random_al(6, 6, rng)
        w2 = random_al(6, 6, rng)
        assert al_mul(w1, w2).s == 1  # W_6 * W_6 inside Gamma0(6)
        v1 = random_al(6, 2, rng)
        v2 = random_al(6, 6, rng)
        assert al_mul(v1, v2).s == 3  # star(2, 6) = 3


def test_mul_level_mismatch():
    with pytest.raises(LevelMismatch):
        al_mul(ALElement(6, 1, 1, 0, 0, 1), ALElement(12, 1, 1, 0, 0, 1))


def test_inverse_law():
    rng = random.Random(4)
    for d in D_SET:
        one = ALElement(d, 1, 1, 0, 0, 1)
        for w in random_elements(d, rng, 40):
            wi = al_inverse(w)
            assert wi.s == w.s
            assert al_mul(w, wi) == one
            assert al_mul(wi, w) == one


def test_inverse_examples():
    assert al_inverse(ALElement(7, 1, 1, 0, 0, 1)) == ALElement(7, 1, 1, 0, 0, 1)
    w = ALElement(2, 2, 1, -1, 1, 0)
    assert al_mul(w, al_inverse(w)) == ALElement(2, 1, 1, 0, 0, 1)
    # Gamma0 adjugate pattern: [[a, b], [cd, e]] -> [[e, -b], [-cd, a]]
    g = ALElement(6, 1, 5, 2, 2, 5)
    gi = al_inverse(g)
    assert (gi.a, gi.b, gi.c, gi.e) == (5, -2, -2, 5)


def test_associativity_random_triples():
    rng = random.Random(5)
    for d in (6, 30):
        ws = random_elements(d, rng, 12)
        for i in range(0, 12, 3):
            w1, w2, w3 = ws[i : i + 3]
            assert al_mul(al_mul(w1, w2), w3) == al_mul(w1, al_mul(w2, w3))


def test_is_fricke():
    assert is_fricke(ALElement(6, 1, 1, 0, 0, 1))
    assert is_fricke(base_element(2, 2))
    assert not is_fricke(base_element(6, 2))


def test_base_element():
    for d in (1, 2, 6, 12, 30, 210):
        assert base_element(d, 1) == ALElement(d, 1, 1, 0, 0, 1)
        fr = base_element(d, d)
        if d > 1:
            assert (fr.a, fr.b, fr.c, fr.e) == (0, -1, 1, 0)
        for s in exact_divisor_values(d):
            w = base_element(d, s)
            assert w.s == s
    w = base_element(6, 2)
    assert w.a * w.e * 2 - w.b * w.c * 3 == 1
    with pytest.raises(InvalidLevel):
        base_element(12, 2)


def test_random_gamma0_validates_and_stays_level_one():
    rng = random.Random(7)
    for _ in range(1000):
        w = random_gamma0(6, rng)
        assert w.s == 1
        # validator re-check through the constructor
        assert ALElement(w.d, w.s, w.a, w.b, w.c, w.e) == w


def test_random_al_levels_and_coset_law():
    rng = random.Random(8)
    for d in (6, 12, 30):
        for s in exact_divisor_values(d):
            w = random_al(d, s, rng)
            assert w.s == s
            assert al_mul(w, al_inverse(base_element(d, s))).s == 1


def test_random_al_deterministic_under_seed():
    a = random_al(30, 6, random.Random(99))
    b = random_al(30, 6, random.Random(99))
    assert a == b


def test_coset_count():
    for d in range(1, 300):
        omega = factorize(d).omega
        expected = 1 if d == 1 else 2 ** (omega - 1)
        assert fricke_coset_count(d) == expected


def test_translation_powers():
    t = ALElement(6, 1, 1, 1, 0, 1)
    w = al_mul(t, t)
    assert (w.a, w.b, w.c, w.e) == (1, 2, 0, 1)


def test_json_round_trip():
    rng = random.Random(9)
    for d in (6, 30):
        for w in random_elements(d, rng, 10):
            assert al_from_json(al_to_json(w)) == w
    assert al_to_json(base_element(6, 2)) == {
        "d": "6",
        "s": "2",
        "abce": ["2", "1", "1", "1"],
    }
    with pytest.raises(ValueError):
        al_from_json({"d": "6", "s": "2"})
    with pytest.raises(ValueError):
        al_from_json({"d": "6", "s": "2", "abce": ["1", "x", "1", "1"]})
    with pytest.raises(ValueError, match="expected a JSON object"):
        al_from_json([1, 2])


def test_json_refuses_floats_bools_and_loose_strings():
    assert al_from_json({"d": 6, "s": 2, "abce": [2, 1, 1, 1]}) == base_element(6, 2)
    assert al_from_json({"d": "6", "s": "2", "abce": ["-2", "-1", "-1", "-1"]}) == (
        base_element(6, 2))
    for bad in (6.9, 6.0, True, " 6", "6.0", "+6", "6_0", "", "\u0666", None):
        with pytest.raises(ValueError):
            al_from_json({"d": bad, "s": "2", "abce": ["2", "1", "1", "1"]})
        with pytest.raises(ValueError):
            al_from_json({"d": "6", "s": "2", "abce": ["2", "1", bad, "1"]})
    with pytest.raises(ValueError):
        al_from_json({"d": "6", "s": "2", "abce": ["2", "1", "1", "9" * 5000]})


def test_closure_violation_is_a_bug_trap():
    # The coset law makes al_mul's read-back divisions exact: W_2 times W_3
    # at d = 6 lands in W_6 with g = 1.  A product one off that law trips
    # the trap, a RuntimeError, since it means a bug and not bad input.
    w1, w2 = base_element(6, 2), base_element(6, 3)
    (x11, x12), (x21, x22) = (w1.a * 2, w1.b), (w1.c * 6, w1.e * 2)
    (y11, y12), (y21, y22) = (w2.a * 3, w2.b), (w2.c * 6, w2.e * 3)
    p = [x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
         x21 * y11 + x22 * y21, x21 * y12 + x22 * y22]
    assert modgroup._read_back(6, 6, 1, *p) == al_mul(w1, w2)
    with pytest.raises(InternalClosureViolation, match="closure failed for W_6 at d=6"):
        modgroup._read_back(6, 6, 1, p[0] + 1, *p[1:])
    assert issubclass(InternalClosureViolation, RuntimeError)


# First 20 random_gamma0 draws (a, b, c, e) per (d, seed), recorded before the
# closed-form sampler, and the generator's next 32 bits after them: both the
# elements and the number of RNG calls are pinned.
GAMMA0_NEXT_BITS = {(1, 41): 1189540540, (6, 42): 568275055, (30030, 43): 2184167071}
GAMMA0_PINS = {
    (1, 41): [
        (11, 84, 3, 23), (9, 19, -1, -2), (22, -147, 3, -20), (52, 447, 5, 43),
        (65, 577, -8, -71), (4, 5, -1, -1), (29, -267, 5, -46), (49, -106, -6, 13),
        (71, 631, 9, 80), (48, -67, -5, 7), (29, -315, 7, -76), (13, -122, -5, 47),
        (17, -26, 2, -3), (80, 823, -7, -72), (34, -333, -5, 49), (27, 266, 7, 69),
        (39, 112, 8, 23), (34, -83, -9, 22), (13, 43, 3, 10), (15, -52, -2, 7),
    ],
    (6, 42): [
        (607, -1042, -10, 103), (259, -2108, 6, -293), (187, -427, 10, -137),
        (41, 368, 7, 377), (161, 369, -4, -55), (55, 542, -8, -473),
        (433, -1724, 9, -215), (143, -564, -3, 71), (299, 304, -10, -61),
        (173, 124, -10, -43), (35, -207, -2, 71), (283, -2319, -6, 295),
        (127, -963, -2, 91), (127, -759, 7, -251), (37, 228, 1, 37), (67, -86, 10, -77),
        (247, -1434, 6, -209), (103, -133, -4, 31), (137, 1116, -8, -391),
        (53, 349, -2, -79),
    ],
    (30030, 43): [
        (1621619, 4864863, -9, -810811), (300301, 2702704, -2, -540539),
        (1051051, 5, 7, 1), (540539, -2702686, -2, 300299), (270269, 3, -3, -1),
        (480479, -1441435, -8, 720719), (600599, 3002990, 4, 600599), (1, -7, 0, 1),
        (90089, -180181, 1, -60061), (1441439, 15855823, 8, 2642639),
        (1681679, -8408388, -8, 1201199), (1501501, -12012018, -5, 1201201),
        (1201199, 4, -10, -1), (960961, -3843836, 4, -480479), (2402399, -8, 10, -1),
        (90089, 720709, 1, 240239), (120121, 120119, -2, -60059),
        (2162161, -8648653, -8, 960961), (840841, 5045039, -4, -720719), (1, 2, 0, 1),
    ],
}


def test_random_gamma0_pinned_draws():
    for (d, seed), expected in GAMMA0_PINS.items():
        rng = random.Random(seed)
        got = [random_gamma0(d, rng) for _ in range(20)]
        assert [(w.a, w.b, w.c, w.e) for w in got] == expected
        assert all(w.d == d and w.s == 1 for w in got)
        assert rng.getrandbits(32) == GAMMA0_NEXT_BITS[d, seed]


# random_al draws, recorded before the sampler's and al_mul's fast paths:
# per (d, seed), 10 draws for each exact divisor s in ascending order, as
# "d s a b c e" lines joined by newlines and hashed, then the generator's
# next 32 bits.  This pins random_gamma0, base_element and al_mul together
# with the number of RNG calls they make.
RANDOM_AL_PINS = {
    (1, 44): ("e2c5289fa315b438c7bf3569e5fc0d113b6bade611d494d5569a09572a3be9a2",
              2955950365),
    (6, 45): ("709f1b786240b5823a48140a66fab984cf6d3509f958b185e9df10f2407b9f64",
              905655461),
    (30030, 46): ("2ae16ba06bfdffa913f765fa2d1b2f6b8c14c410ca84c0cc7a98324a3bb97b94",
                  4139960902),
    (9699690, 47): ("1e48181035421078c8a9987ac7a0bacc179786dad89b8da6ece77cd921cb874a",
                    3860177560),
}
RANDOM_AL_FIRST_AT_ONE = [
    (1409, 10851, -415, -3196), (116, 971, -27, -226), (607, 4115, -77, -522),
    (332, 631, 1157, 2199), (114, 101, 79, 70), (1555, -13613, -403, 3528),
    (627, 4457, -83, -590), (93, 50, 13, 7), (9345, -53986, 991, -5725),
    (3823, -21782, 420, -2393),
]


def _check_random_al_pin(d, seed):
    digest, next_bits = RANDOM_AL_PINS[d, seed]
    rng = random.Random(seed)
    got = [random_al(d, s, rng) for s in exact_divisor_values(d) for _ in range(10)]
    if d == 1:
        assert [(w.a, w.b, w.c, w.e) for w in got] == RANDOM_AL_FIRST_AT_ONE
    text = "\n".join(f"{w.d} {w.s} {w.a} {w.b} {w.c} {w.e}" for w in got)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(got) == 10 * len(exact_divisor_values(d))
    assert rng.getrandbits(32) == next_bits


def test_random_al_pinned_draws():
    for key in RANDOM_AL_PINS:
        _check_random_al_pin(*key)


# random_al draws at the level of omega 15 below 2**64, recorded before the
# fused sampler: 10 draws for each of its first 64 exact divisors in
# ascending order, hashed as in RANDOM_AL_PINS, then the next 32 bits.
OMEGA_15_PIN = (614889782588491410, 52,
                "836583d0413ae21300f826a8b4125e3680ce3ba25303cccb837e7be75aaa0f82",
                2079699785)


def test_random_al_pinned_draws_at_omega_15():
    d, seed, digest, next_bits = OMEGA_15_PIN
    rng = random.Random(seed)
    got = [random_al(d, s, rng) for s in exact_divisor_values(d)[:64] for _ in range(10)]
    text = "\n".join(f"{w.d} {w.s} {w.a} {w.b} {w.c} {w.e}" for w in got)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert rng.getrandbits(32) == next_bits


def test_base_element_refuses_a_float_level():
    assert base_element(6, 2) == ALElement(6, 2, 2, 1, 1, 1)
    with pytest.raises(TypeError):
        base_element(6.0, 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 21, 32, 33])
def test_sampler_draws_as_randrange(n):
    # The sampler draws randrange(n) as CPython's Random does: getrandbits of
    # n.bit_length() bits until the value is below n.  The pinned draws above
    # rest on that; if Random.randrange changes, this says so directly.
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = [modgroup._below(ours.getrandbits, n, n.bit_length()) for _ in range(200)]
        want = [theirs.randrange(n) for _ in range(200)]
        assert got == want and ours.getrandbits(32) == theirs.getrandbits(32), (
            f"random.Random.randrange({n}) no longer draws as a getrandbits "
            f"rejection loop; the sampler's streams would change with it")


def test_random_al_refuses_a_non_exact_divisor():
    rng = random.Random(5)
    with pytest.raises(InvalidLevel):
        random_al(6, 4, rng)
    assert rng.getrandbits(32) == random.Random(5).getrandbits(32)


@pytest.mark.parametrize("d", [0, -1, -6])
def test_random_gamma0_refuses_a_level_below_one_before_it_draws(d):
    for seed in range(4):
        rng = random.Random(seed)
        with pytest.raises(InvalidLevel):
            random_gamma0(d, rng)
        assert rng.getrandbits(32) == random.Random(seed).getrandbits(32)


# Levels of classes no pin above covers.  11, 221 and 2**61 - 1 are above 1
# and prime to 210, where keying the table on gcd(d, 210) alone would accept
# a = 0; the others are prime powers and 2310 = 210 * 11.
UNPINNED_LEVELS = (11, 221, 2**61 - 1, 4, 9, 25, 49, 2310)
# One level per table: 1, every divisor of 210 above 1, and 11.
CLASS_LEVELS = (1, 11, *(g for g in range(2, 211) if 210 % g == 0))


@pytest.mark.parametrize("d", UNPINNED_LEVELS)
def test_sampler_draws_as_the_gcd_loop(d):
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        ok = modgroup._level_table(d)
        got = [modgroup._gamma0_draw(d, ours, ok) for _ in range(20)]
        assert got == [oracles.gamma0_draw(d, theirs) for _ in range(20)]
        assert [random_gamma0(d, ours) for _ in range(20)] == [
            ALElement(d, 1, *oracles.gamma0_draw(d, theirs)) for _ in range(20)]
        for s in exact_divisor_values(d):
            left = ALElement(d, 1, *oracles.gamma0_draw(d, theirs))
            right = ALElement(d, 1, *oracles.gamma0_draw(d, theirs))
            assert random_al(d, s, ours) == al_mul(al_mul(left, base_element(d, s)), right)
        assert ours.getrandbits(32) == theirs.getrandbits(32)


@pytest.mark.parametrize("d", sorted(set(UNPINNED_LEVELS + CLASS_LEVELS)))
def test_level_table_is_the_gcd_test(d):
    ok = modgroup._level_table(d)
    assert ok == bytes(math.gcd(a, c * d) == 1
                       for c in range(-10, 11) for a in range(-10, 11))


def test_sampler_checks_the_determinant_of_each_draw(monkeypatch):
    # Seed 1 draws c != 0 first at d = 6, so the completion uses mod_inverse.
    assert random_gamma0(6, random.Random(1)).c != 0
    real = modgroup.mod_inverse
    monkeypatch.setattr(modgroup, "mod_inverse", lambda a, m: real(a, m) + 1)
    with pytest.raises(InternalClosureViolation):
        random_gamma0(6, random.Random(1))
    for s in (1, 6):  # the base integers need no mod_inverse call for these
        with pytest.raises(InternalClosureViolation):
            random_al(6, s, random.Random(1))


def test_random_al_checks_the_coset_of_its_product(monkeypatch):
    # A W_3 base element where W_2 is asked for: the product's diagonal is
    # 3 times odd entries, so reading it back as a*2 and e*2 leaves remainders.
    # random_al forms the pattern [[a*s, b], [c*d, e*s]] from s itself, so
    # the W_3 integers arrive with a and e scaled by 3/s.
    def w3_base(d, s):
        a, b, c, e = real(d, 3)
        return Fraction(3 * a, s), b, c, Fraction(3 * e, s)

    real = modgroup._base
    monkeypatch.setattr(modgroup, "_base", w3_base)
    for seed in range(5):
        with pytest.raises(InternalClosureViolation):
            random_al(6, 2, random.Random(seed))
