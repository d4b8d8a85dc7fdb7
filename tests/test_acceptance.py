"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them) and enforcing its runtime budget."""

import hashlib
import json
import math
import random
import time

from k3fm.arith import exact_divisor_values, factorize, star
from k3fm.cli import main
from k3fm.corr import descend, represent, verify_correspondence
from k3fm.fmcalc import (
    compose,
    induced_transform,
    invert,
    partner_census,
    source_twist,
)
from k3fm.halfplane import charge_product_defect, equivariance_defect, induced_action, mobius
from k3fm.modgroup import al_mul, fricke_coset_count, is_fricke, random_al
from k3fm.verify import _TOLERANCE
from oracles import mat_mul

D_SET = (1, 2, 6, 12, 30, 210)
# sha256 of the stdout of `k3fm verify` with every option at its default.
DEFAULT_VERIFY_SHA256 = (
    "d7b6da7023c088635d5f555a78cf575f7a5fea7aa94fa6a7f0c7e0a70d6e7006"
)
ANALYTIC_TOL = 1e-9


def _finish(number, name, failures, started, budget):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number} ({name}): "
          f"{len(failures)} failures, {elapsed:.2f}s of {budget:.0f}s budget")
    assert not failures, failures[:10]
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget"


def brute_force_partner_count(d):
    reps = set()
    for r in range(1, d + 1):
        if d % r == 0 and math.gcd(r, d // r) == 1:
            reps.add(min(r, d // r))
    return len(reps)


def test_criterion_1_census_identity():
    started = time.monotonic()
    failures = []
    for d in range(1, 201):
        census = len(partner_census(d))
        scan = brute_force_partner_count(d)
        cosets = fricke_coset_count(d)
        formula = 1 if d == 1 else 2 ** (factorize(d).omega - 1)
        if not census == scan == cosets == formula:
            failures.append((d, census, scan, cosets, formula))
    _finish(1, "census identity", failures, started, budget=5.0)


def test_criterion_2_coset_algebra():
    started = time.monotonic()
    failures = []
    rng = random.Random(20260801)
    for d in D_SET:
        values = exact_divisor_values(d)
        left = {s: [random_al(d, s, rng) for _ in range(50)] for s in values}
        right = {s: [random_al(d, s, rng) for _ in range(50)] for s in values}
        for s1 in values:
            for s2 in values:
                expected = star(s1, s2)
                for w1, w2 in zip(left[s1], right[s2]):
                    forward = al_mul(w1, w2)
                    if forward.s != expected:
                        failures.append((d, s1, s2, "level", forward.s))
                    if al_mul(w2, w1).s != forward.s:
                        failures.append((d, s1, s2, "label commutativity"))
                    if s1 == s2 and forward.s != 1:
                        failures.append((d, s1, "square not in W_1"))
    _finish(2, "coset algebra", failures, started, budget=10.0)


def test_criterion_3_correspondence_forward_backward():
    started = time.monotonic()
    failures = []
    rng = random.Random(20260802)
    for d in D_SET:
        failures.extend((d, element, check)
                        for element, check in verify_correspondence(factorize(d), 100, rng))
    _finish(3, "lift/descend correspondence", failures, started, budget=30.0)


def test_criterion_4_transform_construction():
    started = time.monotonic()
    failures = []
    for d in range(1, 201):
        for r in exact_divisor_values(d):
            n = source_twist(d, r)
            if (r + d * n) % (r * r) != 0:
                failures.append((d, r, "twist not integral"))
                continue
            t = induced_transform(d, r)
            w = t.image
            if w.a * w.e * w.s - w.b * w.c * (d // w.s) != 1:
                failures.append((d, r, "determinant identity"))
            if descend(represent(w)).s != d // r:
                failures.append((d, r, "coset level"))

    rng = random.Random(20260803)
    for d in (6, 12, 30, 210):
        pool = [induced_transform(d, r) for r in exact_divisor_values(d)]
        pool += [invert(t) for t in pool]
        for _ in range(250):
            t1 = rng.choice(pool)
            t2 = rng.choice([t for t in pool if t.target == t1.source])
            c = compose(t1, t2)
            if (c.source == c.target) != is_fricke(c.image):
                failures.append((d, "fricke/partner disagreement"))
            if max(abs(x) for x in (c.image.a, c.image.b, c.image.c, c.image.e)) < 10**6:
                pool.append(c)
    _finish(4, "transform construction", failures, started, budget=30.0)


def test_criterion_5_analytic_consistency():
    assert _TOLERANCE == ANALYTIC_TOL  # `verify` judges its defects by this bound
    started = time.monotonic()
    failures = []
    rng = random.Random(20260804)
    for d in (1, 2, 6, 30):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            for _ in range(100):
                z = complex(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())
                za = induced_action(t, z)
                zm = mobius(t.image, z)
                if abs(za - zm) / max(1.0, abs(zm)) >= ANALYTIC_TOL:
                    failures.append((d, r, "action mismatch"))
                if charge_product_defect(t, z, zm) >= ANALYTIC_TOL:
                    failures.append((d, r, "charge product"))
        for s in exact_divisor_values(d):
            w = random_al(d, s, rng)
            for _ in range(100):
                z = complex(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())
                if equivariance_defect(w, z, represent(w)) >= ANALYTIC_TOL:
                    failures.append((d, s, "equivariance"))
    _finish(5, "analytic consistency", failures, started, budget=10.0)


def test_criterion_6_homomorphism():
    started = time.monotonic()
    failures = []
    rng = random.Random(20260805)
    for d in D_SET:
        values = exact_divisor_values(d)
        for _ in range(1000):
            w1 = random_al(d, rng.choice(values), rng)
            w2 = random_al(d, rng.choice(values), rng)
            if represent(al_mul(w1, w2)).m != mat_mul(represent(w1).m, represent(w2).m):
                failures.append((d, w1, w2))
    _finish(6, "homomorphism of the lift", failures, started, budget=10.0)


def test_criterion_7_cli_determinism(capsys):
    started = time.monotonic()
    failures = []
    code1 = main(["verify"])
    out1 = capsys.readouterr().out
    code2 = main(["verify"])
    out2 = capsys.readouterr().out
    if code1 != 0 or code2 != 0:
        failures.append(("exit codes", code1, code2))
    if out1.encode() != out2.encode():
        failures.append(("reports differ",))
    digest = hashlib.sha256(out1.encode()).hexdigest()
    if digest != DEFAULT_VERIFY_SHA256:
        failures.append(("default report digest", digest))
    if json.loads(out1)["total_failures"] != 0:
        failures.append(("failures in default run",))
    _finish(7, "CLI determinism", failures, started, budget=60.0)
