import math
import random

import pytest

import oracles
from k3fm.arith import exact_divisor_values
from k3fm.corr import represent
from k3fm.errors import LevelMismatch, NumericalPole, ZeroRank
from k3fm.fmcalc import InducedTransform, induced_transform, partner_label
from k3fm.halfplane import charge_product_defect, equivariance_defect, induced_action, mobius
from k3fm.lattice import IsometryN
from k3fm.modgroup import ALElement, al_identity, al_mul, base_element, random_al, translation

LOCAL_TOL = 1e-12
PIPELINE_TOL = 1e-9


def random_point(rng):
    return complex(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())


def tube_vector(z, d):
    """z -> [exp(z*L)] = (1, z, d*z^2) in coordinates (e0, ell, e4): the
    tube-domain point equivariance_defect compares in."""
    return (complex(1.0), z, d * z * z)


def tube_self_pairing(d, v):
    return 2 * d * v[1] * v[1] - 2 * v[0] * v[2]


def tube_conjugate_pairing(d, v):
    w = tuple(x.conjugate() for x in v)
    return 2 * d * v[1] * w[1] - v[0] * w[2] - v[2] * w[0]


def test_embed_examples():
    tv = tube_vector(complex(0.0, 1.0), 7)
    assert tv[0] == 1 and tv[1] == 1j and tv[2] == -7
    # real and imaginary parts span the orientation plane of the lattice side
    assert [x.real for x in tv] == [1.0, 0.0, -7.0]
    assert [x.imag for x in tv] == [0.0, 1.0, 0.0]
    tv = tube_vector(complex(1.0, 1.0), 2)
    assert tv == (1, 1 + 1j, 4j)


def test_embed_invariants():
    rng = random.Random(41)
    for d in (1, 2, 6, 30):
        for _ in range(50):
            z = random_point(rng)
            v = tube_vector(z, d)
            scale = max(abs(x) for x in v) ** 2
            assert abs(tube_self_pairing(d, v)) <= LOCAL_TOL * scale
            assert tube_conjugate_pairing(d, v).real > 0
    # positivity grows like t^2 along the imaginary axis
    low = tube_conjugate_pairing(2, tube_vector(complex(0, 10.0), 2))
    high = tube_conjugate_pairing(2, tube_vector(complex(0, 100.0), 2))
    assert high.real > 90 * low.real


_INF, _NAN = float("inf"), float("nan")
OFF_PLANE = ([(u, v) for u in (0.0, -0.0, 1.5, -3.0, 1e300, _INF, -_INF, _NAN)
              for v in (0.0, -0.0, -1.0, -1e-300, _INF, -_INF, _NAN)]
             + [(u, v) for u in (_INF, -_INF, _NAN) for v in (1.0, 1e-3, 1e300)])
GUARD_ELEMENTS = [al_identity(6), translation(6, 1), ALElement(6, 1, 1, 0, 1, 1),
                  *(base_element(6, s) for s in (2, 3, 6)), ALElement(6, 2, 2, 1, 1, 1)]
GUARD_TRANSFORMS = [induced_transform(d, r) for d in (6, 30) for r in exact_divisor_values(d)]


@pytest.mark.parametrize("u, v", OFF_PLANE)
def test_off_plane_points_are_refused(u, v):
    # A point off the plane or not finite is refused by every function
    # that acts on a point, with the error that refuses a pole.
    z = complex(u, v)
    for w in GUARD_ELEMENTS:
        with pytest.raises(NumericalPole):
            mobius(w, z)
        with pytest.raises(NumericalPole):
            equivariance_defect(w, z, represent(w))
    for t in GUARD_TRANSFORMS:
        with pytest.raises(NumericalPole):
            induced_action(t, z)


def test_real_matrix_determinant():
    # mobius acts by ((a*sqrt(s), b/sqrt(s)), (c*(d/s)*sqrt(s), e*sqrt(s))),
    # a determinant-one real matrix
    rng = random.Random(55)
    for d, s in ((6, 2), (30, 15), (2, 2)):
        w = base_element(d, s)
        root = math.sqrt(s)
        (a, b), (c, e) = (w.a * root, w.b / root), (w.c * (d // s) * root, w.e * root)
        assert abs(a * e - b * c - 1.0) < LOCAL_TOL
        for _ in range(10):
            z = random_point(rng)
            want = (a * z + b) / (c * z + e)
            assert abs(mobius(w, z) - want) / max(1.0, abs(want)) < LOCAL_TOL


def test_mobius_identity_and_translation():
    rng = random.Random(42)
    for _ in range(20):
        z = random_point(rng)
        same = mobius(al_identity(6), z)
        assert same == z
        shifted = mobius(translation(6, 1), z)
        assert abs(shifted - (z + 1)) < LOCAL_TOL


def test_mobius_fricke_fixed_point():
    for d in (2, 6, 30):
        w = base_element(d, d)
        fp = complex(0.0, 1.0 / math.sqrt(d))
        out = mobius(w, fp)
        assert abs(out - fp) < LOCAL_TOL
        # z -> -1/(dz) on a generic point
        z = complex(0.5, 2.0)
        assert abs(mobius(w, z) - (-1 / (d * z))) < LOCAL_TOL


def test_mobius_homomorphism_and_stability():
    rng = random.Random(43)
    for d in (1, 6, 30):
        values = exact_divisor_values(d)
        for _ in range(40):
            w1 = random_al(d, rng.choice(values), rng)
            w2 = random_al(d, rng.choice(values), rng)
            z = random_point(rng)
            lhs = mobius(al_mul(w1, w2), z)
            rhs = mobius(w1, mobius(w2, z))
            assert lhs.imag > 0
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < PIPELINE_TOL


def test_induced_action_example():
    t = induced_transform(2, 1)
    assert (t.image.d, t.rank, t.n_src, t.n_tgt) == (2, 1, 0, 1)
    out = induced_action(t, complex(0.0, 1.0))
    assert abs(out - (1 + 0.5j)) < LOCAL_TOL
    lab = partner_label(2, 1)
    with pytest.raises(ZeroRank):
        induced_action(InducedTransform(lab, lab, translation(2, 1)),
                       complex(0.0, 1.0))


def _datum_action(d, rank, n_src, n_tgt, z):
    """The rank/twist datum formula, as a float.hex pair or the refusal
    it raised."""
    zz = z - n_src / rank
    if abs(zz) < 1e-300:
        return "NumericalPole"
    out = (-1.0 / zz) / (d * abs(rank)) + n_tgt / rank
    if not out.imag > 0:
        return "NumericalPole"
    return out.real.hex(), out.imag.hex()


def test_induced_action_reads_the_transform_bit_for_bit():
    rng = random.Random(56)
    compared = 0
    for d in (6, 50, 2310, 510510):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(3):
                z = random_point(rng)
                try:
                    out = induced_action(t, z)
                    got = out.real.hex(), out.imag.hex()
                except NumericalPole:
                    got = "NumericalPole"
                assert got == _datum_action(d, t.rank, t.n_src, t.n_tgt, z), (d, r, z)
                compared += 1
    assert compared == 3 * (4 + 4 + 32 + 128)


def test_induced_action_matches_matrix():
    rng = random.Random(44)
    for d in range(1, 51):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(5):
                z = random_point(rng)
                za = induced_action(t, z)
                zm = mobius(t.image, z)
                assert abs(za - zm) / max(1.0, abs(zm)) < LOCAL_TOL
                assert za.imag > 0


def test_charge_product_identity():
    rng = random.Random(48)
    for d in (1, 2, 6, 30):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(20):
                z = random_point(rng)
                assert charge_product_defect(t, z, mobius(t.image, z)) < PIPELINE_TOL
    lab = partner_label(6, 1)
    z = complex(0.0, 1.0)
    with pytest.raises(ZeroRank):
        charge_product_defect(InducedTransform(lab, lab, translation(6, 3)), z, z)


def test_defects_require_what_they_evaluate():
    z = complex(0.0, 1.0)
    with pytest.raises(TypeError):
        equivariance_defect(base_element(6, 2), z)
    with pytest.raises(TypeError):
        charge_product_defect(induced_transform(6, 1), z)


def _charge_product(t, z1, z2):
    """The charge product formula, written out apart from the library."""
    d, r, n, m = t.image.d, t.rank, t.n_src, t.n_tgt
    zs = 2 * d * z1 * n - d * n * n // r - d * z1 * z1 * r
    zt = 2 * d * z2 * m - d * m * m // r - d * z2 * z2 * r
    return abs(zs * zt - 1.0)


def test_charge_product_defect_takes_the_image_point_bit_for_bit():
    rng = random.Random(54)
    moved = 0
    for d in (6, 50, 2310, 510510, 9699690):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(2):
                z = random_point(rng)
                zm = mobius(t.image, z)
                want = _charge_product(t, z, zm).hex()
                assert charge_product_defect(t, z, zm).hex() == want
                # the point passed in is the one used
                got = charge_product_defect(t, z, z).hex()
                assert got == _charge_product(t, z, z).hex()
                moved += got != want
    assert moved > 0


def test_equivariance_defect():
    rng = random.Random(49)
    z = random_point(rng)
    assert equivariance_defect(al_identity(6), z, represent(al_identity(6))) == 0.0
    for s in exact_divisor_values(6):
        for _ in range(25):
            w = random_al(6, s, rng)
            assert equivariance_defect(w, random_point(rng), represent(w)) < PIPELINE_TOL


def test_equivariance_defect_sees_corruption():
    rng = random.Random(50)
    w = base_element(6, 2)
    corrupted = IsometryN(6, ((5, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert equivariance_defect(w, random_point(rng), corrupted) > 1e-2
    with pytest.raises(LevelMismatch):
        equivariance_defect(w, random_point(rng), IsometryN(12, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def _outcome(defect, w, z, g):
    """The defect as float.hex (bitwise, so -0.0 and 0.0 differ), or the
    refusal it raised."""
    try:
        return defect(w, z, g).hex()
    except NumericalPole as exc:
        return f"NumericalPole: {exc}"


def test_equivariance_defect_matches_the_generator_form_bit_for_bit():
    # s = 1 and s = d base elements lift to matrices with zero entries, and
    # points on the imaginary axis carry u = 0.0 and -0.0, so signed zeros
    # pass through the complex products; a corrupted lift gives large
    # defects as well as small ones.
    rng = random.Random(53)
    compared = 0
    for d in (1, 6, 2310, 9699690):
        values = exact_divisor_values(d)
        for s in sorted({1, d, *rng.sample(values, min(len(values), 6))}):
            for w in [base_element(d, s)] + [random_al(d, s, rng) for _ in range(3)]:
                g = represent(w)
                rows = [list(row) for row in g.m]
                rows[rng.randrange(3)][rng.randrange(3)] += 1
                points = [random_point(rng) for _ in range(6)]
                points += [complex(0.0, 1.0), complex(-0.0, 0.5)]
                for h in (g, IsometryN(d, rows)):
                    for z in points:
                        want = _outcome(oracles.equivariance_defect, w, z, h)
                        assert _outcome(equivariance_defect, w, z, h) == want, (d, w, z, h)
                        compared += 1
    assert compared >= 1000


_T62 = induced_transform(6, 2)


@pytest.mark.parametrize("evaluate, message", [
    (lambda: mobius(base_element(6, 6), complex(0.0, 1e-200)), "denominator vanished"),
    (lambda: mobius(ALElement(6, 1, 1, 0, 1, 1), complex(1e200, 1.0)),
     "not in the upper half plane"),
    (lambda: induced_action(_T62, complex(_T62.n_src / _T62.rank, 1e-301)),
     "at its pole"),
    (lambda: induced_action(_T62, complex(1e200, 1.0)), "left the upper half plane"),
    (lambda: equivariance_defect(al_identity(6), complex(0.0, 0.1),
                                 IsometryN(6, ((0, 0, 0), (0, 1, 0), (0, 0, 1)))),
     "projectivization degenerated"),
])
def test_numerical_poles_raise(evaluate, message):
    with pytest.raises(NumericalPole, match=message):
        evaluate()
