"""The producers that build values without the constructors' checks,
each from invariants it has proved: `TRUSTED_CALLERS` below lists them all.
What each returns must be the value the checked constructors build, and
each check those producers keep must refuse what it alone stands between a
wrong input and a wrong value."""

import ast
import random
from pathlib import Path

import pytest

import k3fm
from k3fm import modgroup
from k3fm.arith import exact_divisor_values
from k3fm.corr import descend, represent
from k3fm.errors import InternalClosureViolation, InvalidLevel, NotInImage
from k3fm.fmcalc import InducedTransform, induced_transform, partner_label
from k3fm.lattice import IsometryN, mat_det, mat_neg
from k3fm.modgroup import ALElement, al_mul, base_element, random_al, translation

LEVELS = (6, 210, 510510)


def _assert_same(trusted, checked):
    """Equal, of the same type, with the same fields in the same order and
    of the same types, the same hash and the same repr."""
    assert type(trusted) is type(checked)
    assert trusted == checked
    assert list(vars(trusted).items()) == list(vars(checked).items())
    assert [type(x) for x in vars(trusted).values()] == [
        type(x) for x in vars(checked).values()]
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)


def _checked_al(w):
    return ALElement(w.d, w.s, w.a, w.b, w.c, w.e)


def _samples(d, rng):
    divisors = exact_divisor_values(d)
    levels = divisors if len(divisors) <= 16 else rng.sample(divisors, 16)
    return [random_al(d, s, rng) for s in levels for _ in range(3)]


@pytest.mark.parametrize("d", LEVELS)
def test_random_al_and_al_mul_build_what_the_constructor_builds(d):
    rng = random.Random(d)
    sample = _samples(d, rng)
    for w in sample:
        _assert_same(w, _checked_al(w))
        # the other sign of the same projective element normalizes alike
        _assert_same(w, ALElement(w.d, w.s, -w.a, -w.b, -w.c, -w.e))
    for w1, w2 in zip(sample, sample[1:] + sample[:1]):
        product = al_mul(w1, w2)
        _assert_same(product, _checked_al(product))


@pytest.mark.parametrize("d", LEVELS)
def test_represent_and_descend_build_what_the_constructor_builds(d):
    rng = random.Random(d + 1)
    for w in _samples(d, rng) + [base_element(d, 1), base_element(d, d)]:
        g = represent(w)
        _assert_same(g, IsometryN(g.d, g.m))
        back = descend(g)
        _assert_same(back, _checked_al(back))
        _assert_same(back, w)
        _assert_same(descend(IsometryN(d, mat_neg(g.m))), w)


@pytest.mark.parametrize("d", (1,) + LEVELS)
def test_induced_transform_builds_what_the_constructors_build(d):
    for r in exact_divisor_values(d):
        t = induced_transform(d, r)
        n = t.n_src
        image = ALElement(d, d // r, 1, -((r + d * n) // (r * r)), 1, -n)
        _assert_same(t, InducedTransform(partner_label(d, r), partner_label(d, 1), image))
        _assert_same(t.source, partner_label(d, r))
        _assert_same(t.target, partner_label(d, 1))
        _assert_same(t.image, image)


# 2 and 6 divide 12 but are not exact (4 is: 12 = 4 * 3 with gcd(4, 3) = 1).
@pytest.mark.parametrize("d, r", [(12, 2), (12, 6), (12, 0), (12, 13), (1, 0), (1, 2)])
def test_induced_transform_refuses_what_is_not_an_exact_divisor(d, r):
    with pytest.raises(InvalidLevel):
        induced_transform(d, r)


def test_proved_normalizes_the_projective_sign():
    for quintuple in ((2, 1, 1, 1), (-2, -1, -1, -1)):
        _assert_same(ALElement.proved(6, 2, *quintuple), ALElement(6, 2, 2, 1, 1, 1))
    _assert_same(ALElement.proved(6, 6, 0, 1, -1, 0), ALElement(6, 6, 0, -1, 1, 0))


# The one rule: a producer that has proved a value's invariants builds it
# with `object.__new__` and `__dict__.update`, and a helper exists only where
# that build has a rule of its own: `ALElement.proved` normalizes the
# projective sign, and `arith._proved` derives the divisor tuple.  These are
# the only top-level (module, name) pairs that build with `object.__new__`
# or read `proved` or `_proved`; nothing else in the package builds without
# the checks.
TRUSTED_CALLERS = {("arith", "_proved"), ("arith", "_window"), ("arith", "_last"),
                   ("modgroup", "ALElement"), ("modgroup", "_read_back"),
                   ("corr", "_match_level"), ("corr", "represent"),
                   ("fmcalc", "induced_transform")}


def _builds_unchecked(n):
    """A read of `__new__` (as `object.__new__(cls)` makes), or of the
    name or attribute `proved` or `_proved`."""
    if isinstance(n, ast.Attribute):
        name = n.attr
    elif isinstance(n, ast.Name):
        name = n.id
    else:
        return False
    return name in ("__new__", "proved", "_proved") and isinstance(n.ctx, ast.Load)


def _top_level_name(node):
    """The name a top-level statement binds: a def's or class's, or an
    assignment's (`_last: ... = [_proved(1, ())]` is the slot `_last`)."""
    if isinstance(node, ast.Assign):
        return node.targets[0].id
    if isinstance(node, ast.AnnAssign):
        return node.target.id
    return getattr(node, "name", None)


def test_only_the_trusted_producers_build_unchecked():
    src = Path(k3fm.__file__).resolve().parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if any(map(_builds_unchecked, ast.walk(node))):
                callers.add((path.stem, _top_level_name(node)))
    assert callers == TRUSTED_CALLERS


# --- what the producers' remaining checks stand guard over -----------------


def _pattern(w):
    """The integer matrix [[a*s, b], [c*d, e*s]] of w."""
    return ((w.a * w.s, w.b), (w.c * w.d, w.e * w.s))


def test_read_back_refuses_a_product_off_the_coset_law():
    # W_2 times W_6 at d = 6: g = gcd(2, 6) = 2 and the product lies in W_3,
    # so each entry is a multiple of g*t, g, g*d or g*t; one step off any
    # one of them leaves a remainder.
    w1, w2 = base_element(6, 2), base_element(6, 6)
    (x11, x12), (x21, x22) = _pattern(w1)
    (y11, y12), (y21, y22) = _pattern(w2)
    p = [x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
         x21 * y11 + x22 * y21, x21 * y12 + x22 * y22]
    assert modgroup._read_back(6, 3, 2, *p) == al_mul(w1, w2)
    for i in range(4):
        off = list(p)
        off[i] += 1
        with pytest.raises(InternalClosureViolation):
            modgroup._read_back(6, 3, 2, *off)


def test_descend_refuses_h32_where_the_determinant_does_not_pin_it():
    """det(h) is linear in h32 with coefficient -c*e, so with c = 0 or
    e = 0 every h32 leaves det(h) = 1, and only the h32 = 2*a*b*d comparison
    refuses a matrix that matches the rest of a lift."""
    d = 6
    lifts = [translation(d, m) for m in (0, 1, -2)]  # c = 0
    lifts += [base_element(d, d), ALElement(d, d, 1, -1, 1, 0)]  # e = 0
    with pytest.raises(NotInImage):
        descend(IsometryN(d, ((1, 0, 0), (0, 1, 0), (0, 5, 1))))
    for w in lifts:
        assert w.c == 0 or w.e == 0
        m = [list(row) for row in represent(w).m]
        for step in (1, -1, 5):
            m[2][1] += step
            h = tuple(map(tuple, m))
            assert mat_det(h) == 1
            with pytest.raises(NotInImage):
                descend(IsometryN(d, h))
            m[2][1] -= step


# Matrices of determinant one at d = 6, each refused by one comparison of
# _match_level alone, the one named: a*e*s - b*c*(d/s) = 1 (the quintuple
# read off is (0, 1, 1, 1) at s = 6), h21 = b*e, h23 = a*c, h12 = 2*c*d*e
# or h32 = 2*a*b*d; the remainder of h31 or h13 by d/s; a corner quotient
# that is negative (isqrt would raise) or not a square.  A corner entry
# is free in det(h) where its cofactor, a^2*s for h11, e^2*s for h33,
# c^2*(d/s) for h31 and b^2*(d/s) for h13, is 0, so each square and
# remainder case is a lift with that factor 0 and the corner moved.
ONE_COMPARISON_FROM_A_LIFT = {
    "determinant": ((6, 12, 1), (1, -1, 0), (1, 0, 0)),
    "h21": ((1, 0, 0), (-1, 1, 0), (0, 0, 1)),
    "h23": ((1, 0, 0), (0, 1, -1), (0, 0, 1)),
    "h12": ((1, -1, 0), (0, 1, 0), (0, 0, 1)),
    "h32": ((1, 0, 0), (0, 1, 0), (0, -1, 1)),
    "h31_remainder": ((1, 0, 0), (1, 1, 0), (7, 12, 1)),
    "h13_remainder": ((1, 12, 7), (0, 1, 1), (0, 0, 1)),
    "h11_negative": ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    "h33_negative": ((1, 0, 0), (0, -1, 0), (0, 0, -1)),
    "h31_negative": ((1, 0, 0), (0, 1, 0), (-6, 0, 1)),
    "h13_negative": ((1, 0, -6), (0, 1, 0), (0, 0, 1)),
    "h11_square": ((12, 12, 1), (-1, -1, 0), (1, 0, 0)),
    "h33_square": ((0, 0, 1), (0, -1, 1), (1, -12, 12)),
    "h31_square": ((1, 0, 0), (1, 1, 0), (12, 12, 1)),
    "h13_square": ((1, 12, 12), (0, 1, 1), (0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(ONE_COMPARISON_FROM_A_LIFT))
def test_descend_refuses_what_one_comparison_alone_refuses(name):
    h = ONE_COMPARISON_FROM_A_LIFT[name]
    assert mat_det(h) == 1
    with pytest.raises(NotInImage, match="entry pattern"):
        descend(IsometryN(6, h))
