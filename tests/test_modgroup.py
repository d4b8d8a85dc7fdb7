import random

import pytest

from k3fm.arith import exact_divisor_values, factorize, star
from k3fm.errors import InternalClosureViolation, InvalidDeterminant, InvalidLevel, LevelMismatch
from k3fm.modgroup import (
    ALElement,
    al_from_json,
    al_identity,
    al_inverse,
    al_mul,
    al_to_json,
    base_element,
    fricke_coset_count,
    is_fricke,
    random_al,
    random_gamma0,
    translation,
)

D_SET = (1, 2, 6, 12, 30)


def random_elements(d, rng, count, bound=10):
    out = []
    for _ in range(count):
        s = rng.choice(exact_divisor_values(d))
        out.append(random_al(d, s, rng, bound))
    return out


def test_identity():
    w = al_identity(5)
    assert (w.s, w.a, w.b, w.c, w.e) == (1, 1, 0, 0, 1)
    assert w.a * w.e * w.s - w.b * w.c * (w.d // w.s) == 1


def test_identity_law_random():
    rng = random.Random(0)
    for d in D_SET:
        one = al_identity(d)
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
        al_mul(al_identity(6), al_identity(12))


def test_inverse_law():
    rng = random.Random(4)
    for d in D_SET:
        one = al_identity(d)
        for w in random_elements(d, rng, 40):
            wi = al_inverse(w)
            assert wi.s == w.s
            assert al_mul(w, wi) == one
            assert al_mul(wi, w) == one


def test_inverse_examples():
    assert al_inverse(al_identity(7)) == al_identity(7)
    w = ALElement(2, 2, 1, -1, 1, 0)
    assert al_mul(w, al_inverse(w)) == al_identity(2)
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
    assert is_fricke(al_identity(6))
    assert is_fricke(base_element(2, 2))
    assert not is_fricke(base_element(6, 2))


def test_base_element():
    for d in (1, 2, 6, 12, 30, 210):
        assert base_element(d, 1) == al_identity(d)
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


def test_random_gamma0_zero_bound_is_translation():
    rng = random.Random(6)
    for d in D_SET:
        w = random_gamma0(d, rng, bound=0)
        assert (w.s, w.a, w.c, w.e) == (1, 1, 0, 1)


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
    t = translation(6, 1)
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
    # al_mul's divisibility asserts never fire on valid input; simulate the
    # trap by checking the exception type exists and is a RuntimeError.
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
