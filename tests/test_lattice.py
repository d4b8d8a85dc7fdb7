import random
from fractions import Fraction

import pytest

from k3fm.arith import exact_divisor_values
from k3fm.corr import represent
from k3fm.errors import ActionNotDiagonal, LevelMismatch, NotAnIsometry, NotIntegral
from k3fm.lattice import (
    DiscriminantUnit,
    IsometryN,
    LatticeVector,
    discriminant_unit,
    gram_matrix,
    identity_matrix,
    is_isometry,
    is_orientation_preserving,
    isometry_from_json,
    isometry_neg,
    isometry_product,
    isometry_to_json,
    mat_vec,
    mukai_pairing,
)
from k3fm.modgroup import base_element, random_al, random_gamma0


def char_poly_coeffs(m):
    """Coefficients of det(x*I - m) for a 3x3 matrix, by direct expansion."""
    trace = m[0][0] + m[1][1] + m[2][2]
    minors = (
        m[1][1] * m[2][2] - m[1][2] * m[2][1]
        + m[0][0] * m[2][2] - m[0][2] * m[2][0]
        + m[0][0] * m[1][1] - m[0][1] * m[1][0]
    )
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return (-det, minors, -trace, 1)  # constant first


def sign_changes(seq):
    signs = [x for x in seq if x != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def test_gram_signature_2_1():
    # all eigenvalues are real (symmetric matrix); count positive and
    # negative roots of the characteristic polynomial by Descartes' rule
    for d in (1, 2, 6, 12, 30, 210):
        coeffs = char_poly_coeffs(gram_matrix(d))
        assert sign_changes(coeffs) == 2  # two positive eigenvalues
        reflected = tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))
        assert sign_changes(reflected) == 1  # one negative eigenvalue


def test_mukai_pairing_examples():
    d = 6
    point = LatticeVector(d, (0, 0, 1))
    assert mukai_pairing(point, point) == 0
    e0 = LatticeVector(d, (1, 0, 0))
    e4 = LatticeVector(d, (0, 0, 1))
    assert mukai_pairing(e0, e4) == -1
    for r, s in ((1, 6), (2, 3), (5, 7)):
        v = LatticeVector(d, (r, 1, s))
        assert mukai_pairing(v, v) == 2 * d - 2 * r * s
    assert mukai_pairing(LatticeVector(d, (2, 1, 3)), LatticeVector(d, (2, 1, 3))) == 0


def test_mukai_pairing_symmetry_and_level_check():
    rng = random.Random(11)
    for _ in range(50):
        u = LatticeVector(6, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
        v = LatticeVector(6, tuple(rng.randint(-9, 9) for _ in range(3)))
        assert mukai_pairing(u, v) == mukai_pairing(v, u)
    with pytest.raises(LevelMismatch):
        mukai_pairing(LatticeVector(2, (1, 0, 0)), LatticeVector(3, (1, 0, 0)))


def test_is_isometry_basics():
    for d in (1, 6):
        one = IsometryN(d, identity_matrix())
        assert is_isometry(one)
        assert is_isometry(isometry_neg(one))
        assert not is_isometry(IsometryN(d, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_isometry_closure_under_product_and_inverse():
    rng = random.Random(12)
    d = 6
    samples = [represent(random_al(d, s, rng)) for s in exact_divisor_values(d) for _ in range(5)]
    for g in samples:
        assert is_isometry(g)
    for g, h in zip(samples, samples[1:]):
        assert is_isometry(isometry_product(g, h))


def test_orientation_examples():
    for d in (1, 2, 6, 30):
        one = IsometryN(d, identity_matrix())
        assert is_orientation_preserving(one)
        # -id restricts to the 2-plane with determinant +1
        assert is_orientation_preserving(isometry_neg(one))
        swap = IsometryN(d, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        assert is_isometry(swap)
        assert not is_orientation_preserving(swap)
    with pytest.raises(NotAnIsometry):
        is_orientation_preserving(IsometryN(6, ((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_discriminant_unit_examples():
    d = 6
    one = IsometryN(d, identity_matrix())
    assert discriminant_unit(one).u == 1
    assert discriminant_unit(isometry_neg(one)).u == 2 * d - 1
    g = represent(base_element(6, 2))
    u = discriminant_unit(g).u
    assert (u * u - 1) % 24 == 0
    assert u % 12 not in (1, 11)
    assert u == 7


def test_discriminant_unit_brute_force_action():
    # check u against the action on all of Z/12 = Z/2d at d=6: the image of
    # k*ell/2d must differ from u*k*ell/2d by a lattice vector
    d = 6
    g = represent(base_element(6, 2))
    u = discriminant_unit(g).u
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
            ugh = discriminant_unit(isometry_product(g, h)).u
            assert ugh == (discriminant_unit(g).u * discriminant_unit(h).u) % (2 * d)


def test_star_kernel():
    d = 6
    one = IsometryN(d, identity_matrix())
    assert discriminant_unit(one).u == 1
    assert discriminant_unit(isometry_neg(one)).u != 1
    rng = random.Random(14)
    for _ in range(1000):
        g = represent(random_gamma0(d, rng))
        assert discriminant_unit(g).u == 1


def test_unit_square_identity_on_samples():
    rng = random.Random(15)
    for d in (2, 6, 30):
        for s in exact_divisor_values(d):
            u = discriminant_unit(represent(random_al(d, s, rng))).u
            assert (u * u - 1) % (4 * d) == 0
            DiscriminantUnit(d, u)  # invariants re-validated on construction


def test_discriminant_unit_rejections():
    # rational isometry: lift of a non-coset real matrix [[2,1],[1,1]]
    d = 6
    alpha, beta, gamma, delta = 2, 1, 1, 1
    m = (
        (delta**2, 2 * gamma * delta, Fraction(gamma**2, d)),
        (beta * delta, alpha * delta + beta * gamma, Fraction(alpha * gamma, d)),
        (d * beta**2, 2 * d * alpha * beta, alpha**2),
    )
    g = IsometryN(d, m)
    assert is_isometry(g)
    assert not g.is_integral
    with pytest.raises(NotIntegral):
        discriminant_unit(g)
    corrupted = IsometryN(d, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ActionNotDiagonal):
        discriminant_unit(corrupted)


def test_discriminant_unit_invariants():
    with pytest.raises(ValueError):
        DiscriminantUnit(6, 2)  # not a unit
    with pytest.raises(ValueError):
        DiscriminantUnit(8, 3)  # 9 != 1 mod 32


def test_isometry_json_round_trip():
    g = represent(base_element(30, 5))
    assert isometry_from_json(isometry_to_json(g), 30) == g
    m = ((1, 0, 0), (0, 1, 0), (Fraction(1, 2), 0, 1))
    h = IsometryN(5, m)
    assert isometry_from_json(isometry_to_json(h), 5) == h
    with pytest.raises(ValueError):
        isometry_from_json([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError):
        isometry_from_json([["1", "2", "x"], ["0", "1", "0"], ["0", "0", "1"]], 5)
    with pytest.raises(ValueError):
        isometry_from_json([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], 5)


def test_exactness_guard():
    with pytest.raises(TypeError):
        IsometryN(2, ((1.5, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(TypeError):
        LatticeVector(2, (0.1, 0, 0))


def _is_isometry_reference(g):
    """transpose(m) * Gram * m == Gram by plain 3x3 products."""

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    mt = tuple(tuple(g.m[j][i] for j in range(3)) for i in range(3))
    gram = gram_matrix(g.d)
    return mul(mt, mul(gram, g.m)) == gram


def _orientation_reference(g):
    """Sign of det <g*p_i, p_j> on the positive plane p1 = (1, 0, -d), p2 = ell."""
    p1, p2 = (1, 0, -g.d), (0, 1, 0)
    q1, q2 = mat_vec(g.m, p1), mat_vec(g.m, p2)
    pair = LatticeVector(g.d, q1), LatticeVector(g.d, q2)
    plane = LatticeVector(g.d, p1), LatticeVector(g.d, p2)
    det = (mukai_pairing(pair[0], plane[0]) * mukai_pairing(pair[1], plane[1])
           - mukai_pairing(pair[0], plane[1]) * mukai_pairing(pair[1], plane[0]))
    return det > 0


def _perturbed(g, step):
    for i in range(3):
        for j in range(3):
            rows = [list(row) for row in g.m]
            rows[i][j] += step
            yield IsometryN(g.d, tuple(map(tuple, rows)))


def _rational_lift(d, alpha, beta, gamma, delta):
    """3x3 image of a determinant-one real matrix; rational unless d | gamma."""
    return IsometryN(d, (
        (delta**2, 2 * gamma * delta, Fraction(gamma**2, d)),
        (beta * delta, alpha * delta + beta * gamma, Fraction(alpha * gamma, d)),
        (d * beta**2, 2 * d * alpha * beta, alpha**2),
    ))


def test_is_isometry_and_orientation_agree_with_references():
    rng = random.Random(16)
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    matrices = []
    for d in (1, 2, 6, 30, 2310, 510510):
        values = exact_divisor_values(d)
        for s in rng.sample(values, min(len(values), 6)):
            g = represent(random_al(d, s, rng))
            matrices += [g, isometry_neg(g), isometry_product(IsometryN(d, flip), g)]
            matrices += _perturbed(g, rng.choice((1, -1)))
        for _ in range(20):
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            matrices.append(IsometryN(d, m))
        for alpha, beta, gamma, delta in ((2, 1, 1, 1), (1, 0, 3, 1), (5, 2, 2, 1)):
            h = _rational_lift(d, alpha, beta, gamma, delta)
            matrices += [h, isometry_neg(h), isometry_product(IsometryN(d, flip), h)]
            matrices += _perturbed(h, Fraction(1, 2))
            matrices += _perturbed(h, Fraction(-1, 3))
    outcomes = set()
    for g in matrices:
        expected = _is_isometry_reference(g)
        assert is_isometry(g) == expected, (g.d, g.m)
        if expected:
            oriented = _orientation_reference(g)
            assert is_orientation_preserving(g) == oriented, (g.d, g.m)
        outcomes.add((g.is_integral, expected, expected and oriented))
    assert outcomes == {
        (True, True, True), (True, True, False), (True, False, False),
        (False, True, True), (False, True, False), (False, False, False),
    }
