import itertools
import math
import random
from fractions import Fraction

import pytest

from k3fm.arith import exact_divisor_values, factorize
from k3fm.corr import (
    check_sample,
    descend,
    represent,
    verify_correspondence,
)
from k3fm.errors import NotInImage
from k3fm.lattice import IsometryN, is_isometry, is_orientation_preserving, mat_det
from k3fm.modgroup import (
    ALElement,
    al_identity,
    al_inverse,
    al_mul,
    base_element,
    is_fricke,
    random_al,
    translation,
)
from oracles import IDENTITY, mat_mul, neg

D_SET = (1, 2, 6, 12, 30)


def test_represent_identity_and_translation():
    for d in (1, 6):
        assert represent(al_identity(d)).m == IDENTITY
    assert represent(translation(1, 1)).m == ((1, 0, 0), (1, 1, 0), (1, 2, 1))


def test_represent_well_defined_projectively():
    w = base_element(6, 2)
    assert represent(w) == represent(al_inverse(al_inverse(w)))


def test_represent_lands_in_special_orthogonal_part():
    rng = random.Random(21)
    for d in D_SET:
        for s in exact_divisor_values(d):
            g = represent(random_al(d, s, rng))
            assert g.is_integral
            assert is_isometry(g)
            assert is_orientation_preserving(g)


def test_homomorphism_exact():
    rng = random.Random(22)
    for d in (6, 30):
        values = exact_divisor_values(d)
        for _ in range(50):
            w1 = random_al(d, rng.choice(values), rng)
            w2 = random_al(d, rng.choice(values), rng)
            assert represent(al_mul(w1, w2)).m == mat_mul(
                represent(w1).m, represent(w2).m
            )


def test_descend_identity_and_sign():
    for d in (1, 6, 30):
        assert descend(IsometryN(d, IDENTITY)) == al_identity(d)
        assert descend(IsometryN(d, neg(IDENTITY))) == al_identity(d)


def test_descend_round_trip():
    rng = random.Random(23)
    for d in D_SET:
        for s in exact_divisor_values(d):
            for _ in range(10):
                w = random_al(d, s, rng)
                assert descend(represent(w)) == w


def test_descend_rejects_non_image():
    swap = IsometryN(6, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    with pytest.raises(NotInImage):
        descend(swap)
    with pytest.raises(NotInImage):
        descend(IsometryN(6, ((2, 0, 0), (0, 1, 0), (0, 0, 2))))
    with pytest.raises(NotInImage):
        descend(IsometryN(6, ((1, 0, 0), (0, 1, 0), (0, 0, 2))))


def test_classify_coset():
    assert descend(IsometryN(6, IDENTITY)).s == 1
    for d in (2, 6, 30):
        assert descend(represent(base_element(d, d))).s == d
    rng = random.Random(24)
    w = al_mul(random_al(6, 2, rng), random_al(6, 3, rng))
    label = descend(represent(w))
    assert label.s == 6 and is_fricke(label)


def test_fricke_criterion_random():
    from k3fm.lattice import discriminant_unit

    rng = random.Random(25)
    for d in (2, 6, 12, 30):
        for s in exact_divisor_values(d):
            w = random_al(d, s, rng)
            u = discriminant_unit(represent(w))
            assert (u in (1, 2 * d - 1)) == is_fricke(w)


def test_check_sample_clean_and_corrupted():
    w = base_element(6, 2)
    assert check_sample(w) == ()
    corrupted = IsometryN(6, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert check_sample(w, corrupted) != ()
    # a genuine lift of another coset element: integral, Gram- and
    # orientation-preserving, but it descends to the level-6 element and
    # acts on the discriminant group by a sign, which the lift of the
    # non-Fricke level-2 element must not
    assert check_sample(w, represent(base_element(6, 6))) == (
        "round_trip", "fricke_criterion")


def test_check_sample_names_each_failed_check():
    """One Gram test serves both checks: a matrix that does not preserve the
    Gram form fails `isometry` (and no orientation is read off it), and a
    Gram-preserving lift composed with ell -> -ell fails `orientation`."""
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    for d, s in ((1, 1), (6, 2), (30, 5), (2310, 7)):
        w = base_element(d, s)
        g = represent(w)
        shear = IsometryN(d, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        assert check_sample(w, shear) == ("isometry", "round_trip", "fricke_criterion")
        for m in (mat_mul(flip, g.m), mat_mul(g.m, flip)):
            assert check_sample(w, IsometryN(d, m)) == ("orientation", "round_trip")
        # e0 -> e0/2, e4 -> 2*e4 preserves the Gram form over Q only.
        half = IsometryN(d, ((Fraction(1, 2), 0, 0), (0, 1, 0), (0, 0, 2)))
        assert check_sample(w, half) == ("integral", "round_trip", "fricke_criterion")

def test_verify_correspondence_trivial_level():
    assert verify_correspondence(factorize(1), 20, random.Random(26)) == ()


def test_verify_correspondence_level_six():
    assert verify_correspondence(factorize(6), 100, random.Random(27)) == ()


def test_verify_correspondence_deterministic():
    a = verify_correspondence(factorize(12), 10, random.Random(5))
    b = verify_correspondence(factorize(12), 10, random.Random(5))
    assert a == b


# --- reference oracle: the exhaustive descend --------------------------------


def _descend_reference(g):
    """Every exact divisor times all 16 sign patterns, compared by lifting."""
    if not g.is_integral:
        raise NotInImage("matrix is not integral")
    det = mat_det(g.m)
    if det not in (1, -1):
        raise NotInImage(f"determinant {det} is not +-1")
    h = g.m if det == 1 else neg(g.m)
    for s in exact_divisor_values(g.d):
        t = g.d // s
        roots = []
        for num, div in ((h[0][0], s), (h[2][2], s), (h[2][0], t), (h[0][2], t)):
            q, rem = divmod(num, div)
            root = math.isqrt(q) if q >= 0 and not rem else -1
            if root < 0 or root * root != q:
                break
            roots.append(root)
        else:
            e0, a0, b0, c0 = roots
            for sa, sb, sc, se in itertools.product((1, -1), repeat=4):
                a, b, c, e = sa * a0, sb * b0, sc * c0, se * e0
                if a * e * s - b * c * t != 1:
                    continue
                w = ALElement(g.d, s, a, b, c, e)
                if represent(w).m == h:
                    return w
    raise NotInImage("entry pattern matches no Atkin-Lehner coset")


def _outcome(fn, g):
    try:
        return fn(g)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def _oracle_inputs(d, s, rng):
    g = represent(random_al(d, s, rng))
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    yield g
    yield IsometryN(d, neg(g.m))
    yield IsometryN(d, mat_mul(flip, g.m))
    yield IsometryN(d, mat_mul(g.m, flip))
    for i in range(3):
        for j in range(3):
            for step in (1, -1):
                rows = [list(row) for row in g.m]
                rows[i][j] += step
                yield IsometryN(d, tuple(map(tuple, rows)))


def test_descend_agrees_with_exhaustive_reference():
    rng = random.Random(31)
    for d in list(range(1, 61)) + [2310, 30030, 510510, 9699690]:
        values = exact_divisor_values(d)
        levels = values if len(values) <= 16 else rng.sample(values, 6)
        for s in levels:
            for g in _oracle_inputs(d, s, rng):
                expected = _outcome(_descend_reference, g)
                assert _outcome(descend, g) == expected, (d, s, g.m)
    half = IsometryN(6, ((1, 0, 0), (0, 1, 0), (Fraction(1, 2), 0, 1)))
    assert _outcome(descend, half) is _outcome(_descend_reference, half) is NotInImage
