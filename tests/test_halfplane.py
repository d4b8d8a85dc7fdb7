import math
import random

import pytest

from k3fm.arith import exact_divisor_values
from k3fm.errors import LevelMismatch, NotInUpperHalfPlane, ZeroRank
from k3fm.fmcalc import MukaiVector, induced_transform
from k3fm.halfplane import (
    HalfPlanePoint,
    central_charge,
    charge_product_defect,
    embed,
    equivariance_defect,
    induced_action,
    mobius,
    real_matrix,
)
from k3fm.lattice import IsometryN
from k3fm.modgroup import al_identity, al_mul, base_element, random_al, translation

LOCAL_TOL = 1e-12
PIPELINE_TOL = 1e-9


def random_point(rng):
    return HalfPlanePoint(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())


def tube_self_pairing(d, v):
    return 2 * d * v[1] * v[1] - 2 * v[0] * v[2]


def tube_conjugate_pairing(d, v):
    w = tuple(x.conjugate() for x in v)
    return 2 * d * v[1] * w[1] - v[0] * w[2] - v[2] * w[0]


def test_embed_examples():
    tv = embed(HalfPlanePoint(0.0, 1.0), 7)
    assert tv[0] == 1 and tv[1] == 1j and tv[2] == -7
    # real and imaginary parts span the orientation plane of the lattice side
    assert [x.real for x in tv] == [1.0, 0.0, -7.0]
    assert [x.imag for x in tv] == [0.0, 1.0, 0.0]
    tv = embed(HalfPlanePoint(1.0, 1.0), 2)
    assert tv == (1, 1 + 1j, 4j)


def test_embed_invariants():
    rng = random.Random(41)
    for d in (1, 2, 6, 30):
        for _ in range(50):
            z = random_point(rng)
            v = embed(z, d)
            scale = max(abs(x) for x in v) ** 2
            assert abs(tube_self_pairing(d, v)) <= LOCAL_TOL * scale
            assert tube_conjugate_pairing(d, v).real > 0
    # positivity grows like t^2 along the imaginary axis
    low = tube_conjugate_pairing(2, embed(HalfPlanePoint(0, 10.0), 2))
    high = tube_conjugate_pairing(2, embed(HalfPlanePoint(0, 100.0), 2))
    assert high.real > 90 * low.real


def test_halfplane_guard():
    with pytest.raises(NotInUpperHalfPlane):
        HalfPlanePoint(0.0, 0.0)
    with pytest.raises(NotInUpperHalfPlane):
        HalfPlanePoint(1.0, -2.0)
    inf, nan = float("inf"), float("nan")
    for u, v in ((nan, inf), (0.0, inf), (0.0, nan),
                 (inf, 1.0), (-inf, 1.0), (nan, 1.0)):
        with pytest.raises(NotInUpperHalfPlane):
            HalfPlanePoint(u, v)


def test_real_matrix_determinant():
    for d, s in ((6, 2), (30, 15), (2, 2)):
        (a, b), (c, e) = real_matrix(base_element(d, s))
        assert abs(a * e - b * c - 1.0) < LOCAL_TOL


def test_mobius_identity_and_translation():
    rng = random.Random(42)
    for _ in range(20):
        z = random_point(rng)
        same = mobius(al_identity(6), z)
        assert same == z
        shifted = mobius(translation(6, 1), z)
        assert abs(shifted.z - (z.z + 1)) < LOCAL_TOL


def test_mobius_fricke_fixed_point():
    for d in (2, 6, 30):
        w = base_element(d, d)
        fp = HalfPlanePoint(0.0, 1.0 / math.sqrt(d))
        out = mobius(w, fp)
        assert abs(out.z - fp.z) < LOCAL_TOL
        # z -> -1/(dz) on a generic point
        z = HalfPlanePoint(0.5, 2.0)
        assert abs(mobius(w, z).z - (-1 / (d * z.z))) < LOCAL_TOL


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
            assert lhs.v > 0
            assert abs(lhs.z - rhs.z) / max(1.0, abs(rhs.z)) < PIPELINE_TOL


def test_induced_action_example():
    out = induced_action(2, 1, 0, 1, HalfPlanePoint(0.0, 1.0))
    assert abs(out.z - (1 + 0.5j)) < LOCAL_TOL
    with pytest.raises(ZeroRank):
        induced_action(2, 0, 0, 0, HalfPlanePoint(0.0, 1.0))


def test_induced_action_matches_matrix():
    rng = random.Random(44)
    for d in range(1, 51):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(5):
                z = random_point(rng)
                za = induced_action(d, t.rank, t.n_src, t.n_tgt, z)
                zm = mobius(t.image, z)
                assert abs(za.z - zm.z) / max(1.0, abs(zm.z)) < LOCAL_TOL
                assert za.v > 0


def test_central_charge_point_class():
    rng = random.Random(45)
    for d in (1, 6, 30):
        point = MukaiVector(d, 0, 0, 1)
        for _ in range(20):
            z = random_point(rng)
            assert central_charge(z.u, z.v, point) == -1


def test_central_charge_closed_form_isotropic():
    # for isotropic (r, n, s) the charge is -r*d*(z - n/r)^2
    rng = random.Random(46)
    for d in (2, 6, 30):
        for r in exact_divisor_values(d):
            v = MukaiVector(d, r, 1, d // r)
            for _ in range(20):
                z = random_point(rng)
                direct = central_charge(z.u, z.v, v)
                closed = -r * d * (z.z - v.n / v.r) ** 2
                assert abs(direct - closed) <= LOCAL_TOL * max(1.0, abs(closed))


def test_central_charge_closed_form_general():
    # for any r != 0 the charge equals v^2/(2r) + r*d*(omega + i(n/r - beta))^2
    # with the square taken under the intersection form (L^2 = 2d)
    rng = random.Random(51)
    for _ in range(60):
        d = rng.randint(1, 30)
        r = rng.choice([x for x in range(-6, 7) if x])
        v = MukaiVector(d, r, rng.randint(-6, 6), rng.randint(-6, 6))
        z = random_point(rng)
        direct = central_charge(z.u, z.v, v)
        square = (z.v + 1j * (v.n / r - z.u)) ** 2
        closed = v.self_pairing / (2 * r) + r * d * square
        assert abs(direct - closed) <= LOCAL_TOL * max(1.0, abs(closed))


def test_central_charge_bilinearity():
    rng = random.Random(47)
    d = 6
    for _ in range(30):
        v1 = MukaiVector(d, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        v2 = MukaiVector(d, rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        vsum = MukaiVector(d, v1.r + v2.r, v1.n + v2.n, v1.s + v2.s)
        z = random_point(rng)
        lhs = central_charge(z.u, z.v, vsum)
        rhs = central_charge(z.u, z.v, v1) + central_charge(z.u, z.v, v2)
        assert abs(lhs - rhs) <= LOCAL_TOL * max(1.0, abs(rhs))
    with pytest.raises(NotInUpperHalfPlane):
        central_charge(0.0, 0.0, MukaiVector(6, 1, 0, 0))


def test_charge_product_identity():
    rng = random.Random(48)
    for d in (1, 2, 6, 30):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(20):
                assert charge_product_defect(t, random_point(rng)) < PIPELINE_TOL


def test_equivariance_defect():
    rng = random.Random(49)
    z = random_point(rng)
    assert equivariance_defect(al_identity(6), z) == 0.0
    for s in exact_divisor_values(6):
        for _ in range(25):
            w = random_al(6, s, rng)
            assert equivariance_defect(w, random_point(rng)) < PIPELINE_TOL


def test_equivariance_defect_sees_corruption():
    rng = random.Random(50)
    w = base_element(6, 2)
    corrupted = IsometryN(6, ((5, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert equivariance_defect(w, random_point(rng), corrupted) > 1e-2
    with pytest.raises(LevelMismatch):
        equivariance_defect(w, random_point(rng), IsometryN(12, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))
