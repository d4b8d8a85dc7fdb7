"""A level-free certificate of the lift: `represent`'s entries are integer
polynomials in (a, b, c, e, s, t) with d = s*t, so the properties the
paper's surjection rests on are polynomial identities modulo the one
relation a*e*s - b*c*t = 1 that every coset element satisfies.

Polynomials are dicts from exponent tuples over (a, b, c, e, s, t, z) to
integer coefficients, z the point of the upper half plane a transform acts on.  Reduction rewrites a*e*s -> 1 + b*c*t until no monomial
holds a*e*s.  A single relation is its own Groebner basis, so the reduced
form is a normal form: it is zero exactly when the polynomial lies in the
ideal of the relation, and then the identity holds at every integer point
of every coset of every level.  The symbolic matrix is tied to the code by
evaluating it at seeded elements and comparing with `represent(w).m`, and
the symbolic rank and twists by evaluating them at the images of
`induced_transform`, `compose` and `invert`.
"""

import random

from k3fm.arith import exact_divisor_values
from k3fm.corr import represent
from k3fm.fmcalc import compose, induced_transform, invert
from k3fm.modgroup import base_element, random_al

A, B, C, E, S, T, Z = range(7)  # positions in an exponent tuple


def var(i):
    return {tuple(int(j == i) for j in range(7)): 1}


def const(k):
    return {(0,) * 7: k} if k else {}


def add(*ps):
    out = {}
    for p in ps:
        for mono, k in p.items():
            out[mono] = out.get(mono, 0) + k
    return {mono: k for mono, k in out.items() if k}


def neg(p):
    return {mono: -k for mono, k in p.items()}


def mul(*ps):
    out = const(1)
    for p in ps:
        prod = {}
        for m1, k1 in out.items():
            for m2, k2 in p.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                prod[mono] = prod.get(mono, 0) + k1 * k2
        out = {mono: k for mono, k in prod.items() if k}
    return out


a, b, c, e, s, t, z = map(var, range(7))
d = mul(s, t)
# a*e*s = 1 + b*c*t: the determinant identity of W_s at level d = s*t
RELATION_RHS = add(const(1), mul(b, c, t))


def reduce(p):
    """The normal form of p modulo a*e*s - b*c*t - 1."""
    p = dict(p)
    while True:
        lead = next((mono for mono in p if mono[A] and mono[E] and mono[S]), None)
        if lead is None:
            return p
        k = p.pop(lead)
        rest = list(lead)
        for i in (A, E, S):
            rest[i] -= 1
        p = add(p, mul({tuple(rest): k}, RELATION_RHS))


def evaluate(p, point):
    total = 0
    for mono, k in p.items():
        term = k
        for x, n in zip(point, mono):
            term *= x**n
        total += term
    return total


# The lift of (1/sqrt(s)) * [[a*s, b], [c*d, e*s]], as in represent.
LIFT = (
    (mul(e, e, s), mul(const(2), c, d, e), mul(c, c, t)),
    (mul(b, e), add(mul(a, e, s), mul(b, c, t)), mul(a, c)),
    (mul(b, b, t), mul(const(2), a, b, d), mul(a, a, s)),
)
GRAM = ((const(0), const(0), const(-1)),
        (const(0), mul(const(2), d), const(0)),
        (const(-1), const(0), const(0)))


def mat_mul(x, y):
    return tuple(tuple(add(*(mul(x[i][k], y[k][j]) for k in range(3))) for j in range(3))
                 for i in range(3))


def transpose(x):
    return tuple(tuple(x[j][i] for j in range(3)) for i in range(3))


def det(m):
    (p, q, r), (u, v, w), (x, y, z) = m
    return add(mul(p, v, z), mul(q, w, x), mul(r, u, y),
               neg(mul(r, v, x)), neg(mul(p, w, y)), neg(mul(q, u, z)))


def is_multiple_of_2d(p):
    """True when the normal form of p is 2*s*t times an integer polynomial,
    so p is a multiple of 2d at every point of every coset."""
    return all(k % 2 == 0 and mono[S] and mono[T] for mono, k in reduce(p).items())


def test_lift_preserves_the_gram_form():
    preserved = mat_mul(transpose(LIFT), mat_mul(GRAM, LIFT))
    for i in range(3):
        for j in range(3):
            assert reduce(add(preserved[i][j], neg(GRAM[i][j]))) == {}, (i, j)


def test_lift_has_determinant_one():
    assert reduce(add(det(LIFT), const(-1))) == {}


def test_lift_middle_entry_is_one_plus_2bct():
    # so the discriminant unit is +1 on W_1, where t = d
    assert reduce(add(LIFT[1][1], neg(add(const(1), mul(const(2), b, c, t))))) == {}


def test_lift_h12_and_h32_vanish_mod_2d():
    assert is_multiple_of_2d(LIFT[0][1])
    assert is_multiple_of_2d(LIFT[2][1])


def test_reduction_is_not_vacuous():
    # The relation itself reduces to zero; what lies outside its ideal does not.
    assert reduce(add(mul(a, e, s), neg(RELATION_RHS))) == {}
    assert reduce(add(det(LIFT), const(1))) == const(2)
    assert reduce(LIFT[1][1]) == add(const(1), mul(const(2), b, c, t))
    assert not is_multiple_of_2d(LIFT[1][1])
    assert not is_multiple_of_2d(mul(c, d, e))


def test_symbolic_lift_is_represent():
    rng = random.Random(20261019)
    for level in (6, 30, 210):
        for coset in exact_divisor_values(level):
            sample = [base_element(level, coset)]
            sample += [random_al(level, coset, rng) for _ in range(5)]
            for w in sample:
                point = (w.a, w.b, w.c, w.e, w.s, w.d // w.s)
                symbolic = tuple(tuple(evaluate(p, point) for p in row) for row in LIFT)
                assert symbolic == represent(w).m, w


# The image (1/sqrt(s)) * [[a*s, b], [c*d, e*s]] of a transform acts on z as
# P/Q, and InducedTransform reads its rank and twists off the same entries.
P = add(mul(a, s, z), b)
Q = add(mul(c, d, z), mul(e, s))
RANK = mul(c, c, t)
N_SRC = neg(mul(c, e))
N_TGT = mul(a, c)


def charge_identity(n_src, n_tgt):
    """d^2*(r*z - n_src)^2*(r*P - n_tgt*Q)^2 - r^2*Q^2 in normal form: zero
    when Z_src(z)*Z_tgt(t(z)) = 1 at every z."""
    source = add(mul(RANK, z), neg(n_src))
    target = add(mul(RANK, P), neg(mul(n_tgt, Q)))
    return reduce(add(mul(d, d, source, source, target, target), neg(mul(RANK, RANK, Q, Q))))


def test_target_charge_is_minus_c():
    assert reduce(add(mul(RANK, P), neg(mul(N_TGT, Q)), c)) == {}


def test_source_charge_times_s_is_c_times_q():
    # no relation needed: the two sides agree as polynomials
    assert add(mul(s, add(mul(RANK, z), neg(N_SRC))), neg(mul(c, Q))) == {}


def test_charge_identity_holds_for_every_transform():
    assert charge_identity(N_SRC, N_TGT) == {}


def test_charge_identity_refuses_shifted_twists():
    # a check modulo translation, z -> z + 1, would let n_tgt + rank pass
    assert charge_identity(add(N_SRC, const(1)), N_TGT) != {}
    assert charge_identity(N_SRC, add(N_TGT, RANK)) != {}


def test_symbolic_rank_and_twists_are_the_transforms():
    for level in (1, 6, 30, 210, 2310, 510510):
        canonical = [induced_transform(level, r) for r in exact_divisor_values(level)]
        pool = canonical + [invert(x) for x in canonical]
        pool += [compose(x, y) for x in pool for y in pool if x.source == y.target]
        for x in pool:
            w = x.image
            point = (w.a, w.b, w.c, w.e, w.s, w.d // w.s, 0)
            assert tuple(evaluate(p, point) for p in (RANK, N_SRC, N_TGT)) == (
                x.rank, x.n_src, x.n_tgt), x
