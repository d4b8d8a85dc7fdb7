import math
import random

import pytest

from k3fm.arith import exact_divisor_values, factorize, factorize_window
from k3fm.corr import descend, represent
from k3fm.errors import EndpointMismatch, InvalidLevel, LevelMismatch
from k3fm.fmcalc import (
    InducedTransform,
    PartnerLabel,
    compose,
    induced_transform,
    invert,
    partner_census,
    partner_label,
    partner_representatives,
    source_twist,
)
from k3fm.modgroup import (
    ALElement,
    al_inverse,
    base_element,
    fricke_coset_count,
    is_fricke,
)


def brute_partner_classes(d):
    reps = set()
    for r in range(1, d + 1):
        if d % r == 0 and math.gcd(r, d // r) == 1:
            reps.add(min(r, d // r))
    return tuple(sorted(reps))


def test_census_examples():
    assert [lab.r for lab in partner_census(1)] == [1]
    assert [lab.r for lab in partner_census(6)] == [1, 2]
    assert [lab.r for lab in partner_census(30)] == [1, 2, 3, 5]
    assert len(partner_census(30)) == 4 == 2 ** (3 - 1)


def folded_partner_reps(d):
    """Reference fold: min(r, d/r) over the exact divisors, as a set, sorted."""
    return tuple(sorted({min(r, d // r) for r in exact_divisor_values(d)}))


def fricke_classes(d):
    """Reference coset count: the number of distinct pairs {s, d/s}."""
    return len({frozenset((s, d // s)) for s in exact_divisor_values(d)})


PRIMORIALS = [math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23)[:k]) for k in range(1, 10)]
PRIME_POWERS = [2**40, 3**25, 7**11, 1021**4, 65537**3, 4294967291**2]


def test_census_brute_force_and_formula():
    for d in range(1, 300):
        census = partner_census(d)
        assert tuple(lab.r for lab in census) == brute_partner_classes(d)
        omega = factorize(d).omega
        assert len(census) == (1 if d == 1 else 2 ** (omega - 1))
        assert len(census) == fricke_coset_count(d)
    for d in [*range(1, 5001), *PRIMORIALS, *PRIME_POWERS, 2**64 - 1]:
        census = partner_census(d)
        reps = folded_partner_reps(d)
        assert census == tuple(PartnerLabel(d, r) for r in reps)
        assert fricke_coset_count(d) == fricke_classes(d) == len(reps)


def test_partner_representatives_is_the_fold_prefix():
    # The bisected prefix against the fold it replaced, one comparison per
    # divisor; the last three levels put isqrt at the top of the range: the
    # omega-15 level, the largest prime below 2**64 and a square prime power.
    levels = [*factorize_window(1, 10**4), *map(factorize, (
        614889782588491410, 18446744073709551557, 4294967291**2))]
    for f in levels:
        reps = partner_representatives(f)
        assert type(reps) is list
        assert reps == [r for r in f.divisors if r * r <= f.n]
    assert len(partner_representatives(levels[-3])) == 2**14
    # a prime and a prime power have the exact divisors 1 and d only
    assert [partner_representatives(f) for f in levels[-2:]] == [[1], [1]]


def test_partner_label_canonical():
    assert partner_label(6, 3) == partner_label(6, 2) == PartnerLabel(6, 2)
    assert partner_label(6, 6) == PartnerLabel(6, 1)
    with pytest.raises(InvalidLevel):
        partner_label(12, 2)
    with pytest.raises(InvalidLevel):
        PartnerLabel(12, 2)  # 2 divides 12 but not exactly
    with pytest.raises(InvalidLevel):
        PartnerLabel(6, 3)  # not the small representative


def test_partner_label_rendering():
    assert PartnerLabel(6, 2).moduli == "M_L(2+L+3)"
    assert partner_label(1, 1).moduli == "M_L(1+L+1)"
    for d in (1, 2, 6, 12, 30, 210):
        for lab in partner_census(d):
            assert lab.is_fine  # gcd(r, 2d, d/r) = 1 follows from exactness


def test_source_twist_examples():
    assert source_twist(6, 1) == 0
    assert source_twist(6, 2) == 1  # (2 + 6)/4 = 2
    assert source_twist(6, 3) == 1  # (3 + 6)/9 = 1
    with pytest.raises(InvalidLevel):
        source_twist(12, 2)


def test_source_twist_exhaustive_oracle():
    for d in range(1, 200):
        for r in exact_divisor_values(d):
            candidates = [n for n in range(r) if (r + d * n) % (r * r) == 0]
            assert candidates, (d, r)
            assert source_twist(d, r) == candidates[0]


def test_induced_transform_examples():
    t = induced_transform(6, 1)
    assert (t.image.a, t.image.b, t.image.c, t.image.e) == (1, -1, 1, 0)
    assert t.image.s == 6
    t = induced_transform(6, 2)
    assert (t.image.a, t.image.b, t.image.c, t.image.e) == (1, -2, 1, -1)
    assert t.image.s == 3
    assert descend(represent(t.image)).s == 3
    t = induced_transform(2, 1)
    assert (t.image.s, t.image.a, t.image.b, t.image.c, t.image.e) == (2, 1, -1, 1, 0)


def test_induced_transform_endpoints_and_rank():
    for d in range(1, 201):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            assert t.source == partner_label(d, r)
            assert t.target == partner_label(d, 1)
            assert t.rank == r and t.n_tgt == 1
            assert t.n_src == source_twist(d, r)
            assert t.image.s == d // r


def test_same_partner():
    assert is_fricke(induced_transform(6, 1).image)
    assert not is_fricke(induced_transform(6, 2).image)
    t = induced_transform(6, 2)
    round_trip = compose(t, invert(t))
    assert is_fricke(round_trip.image)
    assert round_trip.source == round_trip.target


def test_same_partner_agrees_with_endpoints():
    rng = random.Random(32)
    for d in (6, 30):
        pool = [induced_transform(d, r) for r in exact_divisor_values(d)]
        pool += [invert(t) for t in pool]
        for _ in range(100):
            t1 = rng.choice(pool)
            options = [t for t in pool if t.target == t1.source]
            t2 = rng.choice(options)
            c = compose(t1, t2)
            assert (c.source == c.target) == is_fricke(c.image)
            pool.append(c)


def test_compose_identity_and_levels():
    t = induced_transform(6, 2)
    lab = partner_label(6, 2)
    ident = InducedTransform(lab, lab, ALElement(6, 1, 1, 0, 0, 1))
    assert compose(t, ident) == t
    # distinct W_2 and W_3 images compose to the Fricke coset W_6
    t2 = induced_transform(6, 3)  # image level 2
    c = compose(t, invert(t2))
    assert c.image.s == 6 and is_fricke(c.image)


def test_compose_endpoint_mismatch():
    t = induced_transform(6, 2)
    with pytest.raises(EndpointMismatch):
        compose(t, t)  # target of t is X, source is the r=2 partner
    with pytest.raises(EndpointMismatch):
        lab = partner_label(30, 1)
        compose(t, InducedTransform(lab, lab, ALElement(30, 1, 1, 1, 0, 1)))


def test_invert_swaps_twists():
    t = induced_transform(6, 2)
    ti = invert(t)
    assert (ti.source, ti.target) == (t.target, t.source)
    assert ti.rank == t.rank
    assert (ti.n_src, ti.n_tgt) == (t.n_tgt, t.n_src)
    assert compose(t, ti).image == ALElement(6, 1, 1, 0, 0, 1)


def test_translation_transform():
    lab = partner_label(6, 1)
    t = InducedTransform(lab, lab, ALElement(6, 1, 1, 3, 0, 1))
    assert t.rank == 0 and t.source == t.target
    assert (t.image.a, t.image.b, t.image.c, t.image.e) == (1, 3, 0, 1)
    assert is_fricke(t.image)


def test_transform_validation():
    t = induced_transform(6, 2)
    with pytest.raises(EndpointMismatch):
        InducedTransform(t.target, t.target, t.image)
    with pytest.raises(LevelMismatch):
        InducedTransform(partner_label(30, 1), partner_label(30, 5), t.image)
    # The inverse of the level-2 base element keeps its normal form with
    # c = -1: the rank/twist data are the same for (a, b, c, e) and its
    # negation, so the image gives (3, 2, -1) whichever sign it stores.
    image = al_inverse(base_element(6, 2))
    assert image.c < 0
    t = InducedTransform(partner_label(6, 1), partner_label(6, 2), image)
    assert (t.rank, t.n_src, t.n_tgt) == (3, 2, -1)
