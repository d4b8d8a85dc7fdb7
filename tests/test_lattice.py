import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from k3fm.arith import exact_divisor_values
from k3fm.corr import represent
from k3fm.errors import ActionNotDiagonal, NotAnIsometry, NotIntegral
from k3fm.lattice import (
    IsometryN,
    discriminant_unit,
    is_isometry,
    is_orientation_preserving,
    isometry_from_json,
    isometry_to_json,
)
from k3fm.modgroup import base_element, random_al, random_gamma0
from oracles import IDENTITY, gram, mat_mul, mat_vec, neg, pair


def test_is_isometry_basics():
    for d in (1, 6):
        one = IsometryN(d, IDENTITY)
        assert is_isometry(one)
        assert is_isometry(IsometryN(d, neg(one.m)))
        assert not is_isometry(IsometryN(d, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_isometry_closure_under_product_and_inverse():
    rng = random.Random(12)
    d = 6
    samples = [represent(random_al(d, s, rng)) for s in exact_divisor_values(d) for _ in range(5)]
    for g in samples:
        assert is_isometry(g)
    for g, h in zip(samples, samples[1:]):
        assert is_isometry(IsometryN(g.d, mat_mul(g.m, h.m)))


def test_orientation_examples():
    for d in (1, 2, 6, 30):
        one = IsometryN(d, IDENTITY)
        assert is_orientation_preserving(one)
        # -id restricts to the 2-plane with determinant +1
        assert is_orientation_preserving(IsometryN(d, neg(one.m)))
        swap = IsometryN(d, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert is_isometry(swap)
        assert not is_orientation_preserving(swap)
    with pytest.raises(NotAnIsometry):
        is_orientation_preserving(IsometryN(6, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_discriminant_unit_examples():
    d = 6
    one = IsometryN(d, IDENTITY)
    assert discriminant_unit(one) == 1
    assert discriminant_unit(IsometryN(d, neg(one.m))) == 2 * d - 1
    g = represent(base_element(6, 2))
    u = discriminant_unit(g)
    assert (u * u - 1) % 24 == 0
    assert u % 12 not in (1, 11)
    assert u == 7


def test_discriminant_unit_brute_force_action():
    # check u against the action on all of Z/12 = Z/2d at d=6: the image of
    # k*ell/2d must differ from u*k*ell/2d by a lattice vector
    d = 6
    g = represent(base_element(6, 2))
    u = discriminant_unit(g)
    twod = 2 * d
    for k in range(twod):
        image = mat_vec(g.m, (Fraction(0), Fraction(k, twod), Fraction(0)))
        diff = (image[0], image[1] - Fraction(u * k, twod), image[2])
        assert all(x.denominator == 1 for x in map(Fraction, diff))


def test_discriminant_unit_multiplicative():
    rng = random.Random(13)
    for d in (6, 12, 30):
        values = exact_divisor_values(d)
        for _ in range(30):
            g = represent(random_al(d, rng.choice(values), rng))
            h = represent(random_al(d, rng.choice(values), rng))
            ugh = discriminant_unit(IsometryN(g.d, mat_mul(g.m, h.m)))
            assert ugh == (discriminant_unit(g) * discriminant_unit(h)) % (2 * d)


def test_star_kernel():
    d = 6
    one = IsometryN(d, IDENTITY)
    assert discriminant_unit(one) == 1
    assert discriminant_unit(IsometryN(d, neg(one.m))) != 1
    rng = random.Random(14)
    for _ in range(1000):
        g = represent(random_gamma0(d, rng))
        assert discriminant_unit(g) == 1


def test_unit_square_identity_on_samples():
    rng = random.Random(15)
    for d in (2, 6, 30):
        for s in exact_divisor_values(d):
            u = discriminant_unit(represent(random_al(d, s, rng)))
            assert (u * u - 1) % (4 * d) == 0


def test_discriminant_unit_rejections():
    # A rational isometry, the lift of the non-coset real matrix [[2,1],[1,1]],
    # never becomes an IsometryN: the type refuses it and the wire reader
    # refuses its spelling, so discriminant_unit only sees integers.
    d = 6
    alpha, beta, gamma, delta = 2, 1, 1, 1
    m = (
        (delta**2, 2 * gamma * delta, Fraction(gamma**2, d)),
        (beta * delta, alpha * delta + beta * gamma, Fraction(alpha * gamma, d)),
        (d * beta**2, 2 * d * alpha * beta, alpha**2),
    )
    assert _is_isometry_reference(SimpleNamespace(d=d, m=m))  # over Q
    with pytest.raises(TypeError):
        IsometryN(d, m)
    with pytest.raises(NotIntegral, match="matrix is not integral"):
        isometry_from_json([[str(x) for x in row] for row in m], d)
    corrupted = IsometryN(d, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ActionNotDiagonal):
        discriminant_unit(corrupted)


# At d = 6, each matrix breaks one pairing of its columns u, v, w and keeps
# the other five, so only that conjunct of is_isometry refuses it.
ONE_PAIRING_BROKEN = {
    (0, 1): ((1, 0, 0), (0, 1, 0), (0, 1, 1)),  # columns (1,0,0), (0,1,1), (0,0,1)
    (0, 0): ((1, 0, 0), (0, 1, 0), (6, 0, 1)),  # columns (1,0,6), (0,1,0), (0,0,1)
}


@pytest.mark.parametrize("broken", sorted(ONE_PAIRING_BROKEN))
def test_is_isometry_checks_each_pairing_alone(broken):
    m = ONE_PAIRING_BROKEN[broken]
    cols = [tuple(row[j] for row in m) for j in range(3)]
    assert {(i, j) for i in range(3) for j in range(i, 3)
            if pair(6, cols[i], cols[j]) != gram(6)[i][j]} == {broken}
    assert not is_isometry(IsometryN(6, m))
    with pytest.raises(NotAnIsometry):
        is_orientation_preserving(IsometryN(6, m))


def test_discriminant_unit_checks_the_e4_coefficient_alone():
    # g*ell = (0, 1, 1): its e0 coefficient vanishes and u = 1 squares to 1,
    # so only the e4 coefficient's test mod 2d refuses it.
    g = IsometryN(6, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    assert (g.m[0][1], g.m[1][1], g.m[2][1]) == (0, 1, 1)
    with pytest.raises(ActionNotDiagonal, match="image of ell"):
        discriminant_unit(g)


def test_discriminant_unit_invariants():
    """The multiplier read off an integral matrix must be a unit mod 2d with
    u^2 = 1 (mod 4d); discriminant_unit itself refuses one that is not."""
    not_a_unit = IsometryN(6, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))  # 2 mod 12
    with pytest.raises(ActionNotDiagonal, match="multiplier 2 "):
        discriminant_unit(not_a_unit)
    bad_square = IsometryN(8, ((1, 0, 0), (0, 3, 0), (0, 0, 1)))  # 9 != 1 mod 32
    with pytest.raises(ActionNotDiagonal, match="multiplier 3 "):
        discriminant_unit(bad_square)
    # The square test alone refuses every u with gcd(u, 2d) > 1.
    for d in range(1, 61):
        for u in range(2 * d):
            if math.gcd(u, 2 * d) != 1:
                with pytest.raises(ActionNotDiagonal, match=f"multiplier {u} "):
                    discriminant_unit(IsometryN(d, ((1, 0, 0), (0, u, 0), (0, 0, 1))))


def test_isometry_json_round_trip():
    g = represent(base_element(30, 5))
    assert isometry_to_json(g) == [[str(x) for x in row] for row in g.m]
    assert isometry_from_json(isometry_to_json(g), 30) == g
    flags = IsometryN(5, ((True, False, 0), (0, True, 0), (0, 0, True)))
    assert isometry_to_json(flags) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(NotIntegral):
        isometry_from_json([["1", "0", "0"], ["0", "1", "0"], ["1/2", "0", "1"]], 5)
    with pytest.raises(ValueError):
        isometry_from_json([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError):
        isometry_from_json([["1", "2", "x"], ["0", "1", "0"], ["0", "0", "1"]], 5)
    with pytest.raises(ValueError):
        isometry_from_json([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], 5)


def test_isometry_json_entry_spellings():
    """Entries are JSON integers or strings matching -?[0-9]+(/[0-9]+)?,
    reduced to integers; spellings that Fraction() would also read are
    refused, and so is a well-formed rational that is not an integer."""
    def parse(x):
        return isometry_from_json([[x, 0, 0], [0, 1, 0], [0, 0, 1]], 1).m[0][0]

    for x, value in ((7, 7), (-3, -3), ("7", 7), ("0", 0), ("-0", 0), ("007", 7),
                     ("4/2", 2), ("-3/3", -1), ("-12/4", -3), ("0/5", 0),
                     ("-0/7", 0), (f"{2**70 * 3}/3", 2**70), (2**70, 2**70)):
        got = parse(x)
        assert got == value and type(got) is int
    for x in ("-1/6", "1/2", "-7/3", "5/10", "22/7"):
        with pytest.raises(NotIntegral, match="matrix is not integral"):
            parse(x)
    for x in ("1e0", "+1", " 7 ", "7 ", "7_0", "1.5", "\uff11", "1/-2", "- 1",
              "", "/2", "1/", "0x10", "7\n", "nan", "inf", True, False, None,
              [1], {"n": 1}):
        with pytest.raises(ValueError, match="malformed rational entry"):
            parse(x)
    with pytest.raises(ValueError, match="floats are refused"):
        parse(1.0)
    for x in ("1/0", "-5/00"):
        with pytest.raises(ValueError, match="malformed rational entry: zero denominator"):
            parse(x)


def test_entries_must_be_ints():
    """An entry is an int, and a bool is one; a Fraction, even an integral
    one, a float or a string is refused with TypeError."""
    for m in (IDENTITY, ((True, False, 0), (0, True, 0), (0, 0, True)),
              ((2**70, 0, 0), (0, -1, 0), (0, 0, 1))):
        assert IsometryN(3, m).m == m
    for bad in (Fraction(4, 2), Fraction(1, 2), 1.0, "1", None):
        m = ((1, 0, 0), (0, 1, 0), (0, 0, bad))
        with pytest.raises(TypeError, match="expected an int entry"):
            IsometryN(3, m)


def test_isometry_eq_hash_repr():
    g = IsometryN(6, ((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    assert repr(g) == "IsometryN(d=6, m=((1, 0, 0), (0, 2, 0), (0, 0, 1)))"
    assert hash(g) == hash((6, ((1, 0, 0), (0, 2, 0), (0, 0, 1))))
    assert g == IsometryN(6, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    h = IsometryN(6, ((2, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert h != g and hash(h) == hash((6, h.m))


def test_rows_become_tuples_and_entries_keep_their_type():
    # Lists become tuples; entries, bools included, are kept as given.
    cases = [
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]],
         "IsometryN(d=3, m=((1, 2, 3), (4, 5, 6), (7, 8, 9)))"),
        (((True, False, 0), (0, True, 0), (0, 0, True)),
         "IsometryN(d=3, m=((True, False, 0), (0, True, 0), (0, 0, True)))"),
        ([[True, 0, 2], (0, 1, 0), [0, 0, -1]],
         "IsometryN(d=3, m=((True, 0, 2), (0, 1, 0), (0, 0, -1)))"),
    ]
    for m, text in cases:
        g = IsometryN(3, m)
        assert type(g.m) is tuple and all(type(row) is tuple for row in g.m)
        assert g.m == tuple(map(tuple, m))
        assert repr(g) == text
        assert [type(x) for row in g.m for x in row] == [
            type(x) for row in m for x in row]


class _UnreadableRow:
    """A row of a given length whose entries must not be read."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("an entry was read")

    def __getitem__(self, index):
        raise AssertionError("an entry was read")


def test_shape_is_refused_before_any_entry_is_read():
    for lengths in ((3, 3), (3, 3, 3, 3), (3, 3, 2), (2, 3, 3), (3, 4, 3)):
        with pytest.raises(ValueError, match="m must be 3x3"):
            IsometryN(6, tuple(_UnreadableRow(n) for n in lengths))
    with pytest.raises(ValueError, match="m must be 3x3"):
        IsometryN(6, ((1.5, 0), (0, 1), (0, 0)))  # the shape, not the float


def test_exactness_guard():
    with pytest.raises(TypeError):
        IsometryN(2, ((1.5, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(TypeError):
        IsometryN(2, (("1", 0, 0), (0, 1, 0), (0, 0, 1)))


def test_level_must_be_a_positive_integer():
    """A float or Fraction level is refused on construction, not later by
    descend's integer arithmetic."""
    for d in (6.0, Fraction(6), 0, -1):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            IsometryN(d, IDENTITY)


def _is_isometry_reference(g):
    """transpose(m) * Gram * m == Gram by plain 3x3 products."""
    mt = tuple(zip(*g.m))
    return mat_mul(mt, mat_mul(gram(g.d), g.m)) == gram(g.d)


def _orientation_reference(g):
    """Sign of det <g*p_i, p_j> on the positive plane p1 = (1, 0, -d), p2 = ell."""
    p1, p2 = (1, 0, -g.d), (0, 1, 0)
    q1, q2 = mat_vec(g.m, p1), mat_vec(g.m, p2)
    det = (pair(g.d, q1, p1) * pair(g.d, q2, p2)
           - pair(g.d, q1, p2) * pair(g.d, q2, p1))
    return det > 0


def _perturbed(g, step):
    for i in range(3):
        for j in range(3):
            rows = [list(row) for row in g.m]
            rows[i][j] += step
            yield IsometryN(g.d, tuple(map(tuple, rows)))


def test_is_isometry_and_orientation_agree_with_references():
    rng = random.Random(16)
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    matrices = []
    for d in (1, 2, 6, 30, 2310, 510510):
        values = exact_divisor_values(d)
        for s in rng.sample(values, min(len(values), 6)):
            g = represent(random_al(d, s, rng))
            matrices += [g, IsometryN(d, neg(g.m)), IsometryN(d, mat_mul(flip, g.m))]
            matrices += _perturbed(g, rng.choice((1, -1)))
        for _ in range(20):
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            matrices.append(IsometryN(d, m))
    outcomes = set()
    for g in matrices:
        expected = _is_isometry_reference(g)
        assert is_isometry(g) == expected, (g.d, g.m)
        if expected:
            oriented = _orientation_reference(g)
            assert is_orientation_preserving(g) == oriented, (g.d, g.m)
        outcomes.add((expected, expected and oriented))
    assert outcomes == {(True, True), (True, False), (False, False)}
