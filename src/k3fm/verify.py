"""The self-verification pipeline behind `k3fm verify`.

Each level d runs four checks, in this order and on one seeded generator:
the sampled lift/descend correspondence on every coset, the partner census
against the Fricke coset index and 2^(omega-1), the level each canonical
transform's image descends to, and the analytic defects on sampled points
of the upper half plane.  `run_verify` returns the report and its exit
code; the CLI lays it out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import Factorization, _range_problem, factorize_window
from .corr import descend, represent, verify_correspondence
from .errors import NotInImage
from .fmcalc import InducedTransform, induced_transform, partner_representatives
from .halfplane import charge_product_defect, equivariance_defect, induced_action, mobius
from .modgroup import fricke_coset_count, random_al

__all__ = ["MAX_SAMPLED_ELEMENTS", "VerifyConfig", "run_verify"]

# Most coset elements one run may sample, samples * sum of 2**omega(d) over
# its levels.  VerifyConfig keeps one running count of it, a lower bound at
# every level, and refuses at the first level that takes the count over.
# Per-level work (factorization, the per-divisor transforms and analytic
# points) is not counted, so the cost of an element varies about tenfold
# with the level.  Runs near the bound took 0.83-1.23 s at d = 1
# (13-19 us per element), 4.2-6.4 s on the one level of omega 15 below 2**64
# (64-98 us) and 8.9-9.5 s on the 2000 levels below 2**64 (62812 elements,
# 142-151 us each): six alternating whole-process runs, 2-vCPU Intel Xeon
# x86_64, Python 3.11.7; `verify --d-max 200` samples 40050.
MAX_SAMPLED_ELEMENTS = 2**16

# The bound on the action and equivariance defects, every report's `tolerance`.
_TOLERANCE = 1e-9


@dataclass(frozen=True)
class VerifyConfig:
    """One run's levels d_min..d_max, samples per coset and seed;
    construction raises ValueError on the first usage problem."""

    d_min: int = 1
    d_max: int = 50
    samples_per_coset: int = 50
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("d_min", "d_max", "samples_per_coset", "seed"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if (problem := _range_problem(self.d_min, self.d_max)) is not None:
            raise ValueError(problem)
        if self.samples_per_coset < 1:
            raise ValueError("samples per coset must be at least 1")
        if self.seed < 0:  # random.Random(-n) would seed as random.Random(n)
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Every level but d = 1 has two cosets or more: the count starts at
        # that bound (so at most 2**15 levels are walked) and adds the rest.
        per_coset = self.samples_per_coset
        sampled = (2 * (self.d_max - self.d_min + 1) - (self.d_min == 1)) * per_coset
        if sampled <= MAX_SAMPLED_ELEMENTS:
            for level in factorize_window(self.d_min, self.d_max):
                sampled += per_coset * ((1 << level.omega) - 2 + (level.n == 1))
                if sampled > MAX_SAMPLED_ELEMENTS:
                    break
        if sampled > MAX_SAMPLED_ELEMENTS:
            raise ValueError(f"verify samples at most {MAX_SAMPLED_ELEMENTS} coset "
                             f"elements (samples x 2**omega(d) over the levels), "
                             f"got at least {sampled}")


def _sample_point(rng: random.Random) -> complex:
    return complex(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())


def _charge_identity_holds(t: InducedTransform) -> bool:
    """Z_src(z) * Z_tgt(t(z)) = 1 at every z, decided in integers: with the
    image acting as P/Q, P = a*s*z + b and Q = c*d*z + e*s, the identities
    rank*P - n_tgt*Q = -c and s*(rank*z - n_src) = c*Q, coefficient by
    coefficient, give d^2*(rank*z - n_src)^2*(rank*P - n_tgt*Q)^2 = rank^2*Q^2.
    Both hold for every transform InducedTransform builds, so this checks its
    read-off and is no new detector: it replaces the verdict on the float
    charge_product_defect, which fails correct levels from d = 2310 up."""
    w, rank, n_tgt = t.image, t.rank, t.n_tgt
    p1, p0, q1, q0 = w.a * w.s, w.b, w.c * w.d, w.e * w.s
    return (rank * p1 == n_tgt * q1 and rank * p0 - n_tgt * q0 == -w.c
            and w.s * rank == w.c * q1 and -w.s * t.n_src == w.c * q0)


def _verify_level(level: Factorization, config: VerifyConfig,
                  rng: random.Random) -> dict:
    d, divisors = level.n, level.divisors
    sampled = verify_correspondence(level, config.samples_per_coset, rng)

    fm_number = len(partner_representatives(level))
    formula = 1 if d == 1 else 2 ** (level.omega - 1)
    coset_count = fricke_coset_count(d)
    census_ok = fm_number == coset_count == formula

    # Only the analytic points draw from rng here (descend draws nothing),
    # one transform after another in divisor order.
    n_points = min(10, config.samples_per_coset)
    action_max = charge_max = equiv_max = 0.0
    charge_ok = True
    transforms = []
    for r in divisors:
        t = induced_transform(d, r)
        try:
            s = str(descend(represent(t.image)).s)
        except NotInImage:  # the image's lift is no coset element's
            s = None
        expected = str(d // r)
        transforms.append({"r": str(r), "twist": str(t.n_src), "level": s,
                           "expected_level": expected, "ok": s == expected})
        charge_ok &= _charge_identity_holds(t)
        for _ in range(n_points):
            z = _sample_point(rng)
            za = induced_action(t, z)
            zm = mobius(t.image, z)
            action_max = max(action_max, abs(za - zm) / max(1.0, abs(zm)))
            charge_max = max(charge_max, charge_product_defect(t, z, zm))
    for s in divisors:
        w = random_al(d, s, rng)
        g = represent(w)
        for _ in range(n_points):
            equiv_max = max(equiv_max, equivariance_defect(w, _sample_point(rng), g))
    # charge_max is the float picture of the charge identity; charge_ok decides.
    analytic_ok = charge_ok and max(action_max, equiv_max) < _TOLERANCE
    failures = (len(sampled) + sum(not t["ok"] for t in transforms)
                + (not census_ok) + (not analytic_ok))

    return {
        "d": str(d),
        "correspondence": {
            "d": str(d),
            "samples_per_coset": str(config.samples_per_coset),
            "failures": [{"element": element, "check": name}
                         for element, name in sampled],
        },
        "census": {
            "fm_number": str(fm_number),
            "coset_count": str(coset_count),
            "formula": str(formula),
            "ok": census_ok,
        },
        "transforms": transforms,
        "analytic": {
            "max_action_defect": action_max,
            "max_charge_defect": charge_max,
            "max_equivariance_defect": equiv_max,
            "ok": analytic_ok,
        },
        "failures": failures,
    }


def run_verify(config: VerifyConfig) -> tuple[dict, int]:
    """Run the whole pipeline; deterministic for a fixed config."""
    rng = random.Random(config.seed)
    levels = [_verify_level(level, config, rng)
              for level in factorize_window(config.d_min, config.d_max)]
    total = sum(level["failures"] for level in levels)
    report = {
        "config": {**{key: str(value) for key, value in vars(config).items()},
                   "tolerance": _TOLERANCE},
        "levels": levels,
        "total_failures": total,
    }
    return report, 0 if total == 0 else 1

