"""Seeded inputs, expected outputs and output checks for the four k3fm
benchmark workloads.

Every input is generated here from the workload seed; the program under
test only ever receives the generated argv and stdin.  Expected results are
computed with this module's own arithmetic (primality test, segmented sieve,
the 3x3 lift formula), never by asking k3fm.  The one exception is sampling
coset elements for `classify` inputs, which uses the public `k3fm.random_al`
with a private `random.Random` per element, so this module's own random
stream does not depend on how k3fm consumes random numbers.

A workload yields *chunks*: lists of requests that the runner times as one
unit.  The median of per-chunk throughput is the reported `items_per_s`.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

import k3fm

# sha256 of the stdout of `k3fm verify` with every option at its default.
DEFAULT_VERIFY_SHA256 = (
    "d7b6da7023c088635d5f555a78cf575f7a5fea7aa94fa6a7f0c7e0a70d6e7006"
)

# Checks run on each sampled coset element by the correspondence stage:
# integral, isometry, orientation, round_trip, fricke_criterion.
CHECKS_PER_SAMPLE = 5

# Tolerance `k3fm verify` uses by default; the requests never pass --tol.
VERIFY_TOLERANCE = 1e-9

TABLE_HEADER = "d,omega,exact_divisors,fm_number,fricke_index"


@dataclass(frozen=True)
class Request:
    """One closed-loop call of `k3fm.cli.main(argv)` with `stdin` as input.

    `items` is how many workload items the request completes; `label` is
    whatever the workload's checker needs to know the right answer."""

    argv: tuple[str, ...]
    stdin: str
    items: int
    label: object


@dataclass
class Outcome:
    """Result of checking one request's output.

    `attempted`/`failed` count operations (report checks on verify-*, table
    rows on census-table, requests on queries).  A problem is an output
    that a correct program cannot produce; any problem makes the run
    incorrect."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


# ------------------------------------------------------------ arithmetic


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def prime_powers(n: int) -> list[int]:
    """The prime-power factors p**k of a small n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def exact_divisors(powers: list[int] | tuple[int, ...]) -> list[int]:
    """All exact divisors of the product of pairwise coprime prime powers."""
    divs = [1]
    for q in powers:
        divs += [v * q for v in divs]
    return sorted(divs)


def omega_window(lo: int, hi: int, primes: list[int]) -> list[int]:
    """omega(d) for lo <= d <= hi by a segmented sieve; `primes` must cover
    every prime up to sqrt(hi)."""
    rest = list(range(lo, hi + 1))
    omega = [0] * len(rest)
    for p in primes:
        if p * p > hi:
            break
        for i in range((-lo) % p, len(rest), p):
            omega[i] += 1
            while rest[i] % p == 0:
                rest[i] //= p
    return [w + (r > 1) for w, r in zip(omega, rest)]


def lift(d: int, s: int, a: int, b: int, c: int, e: int) -> list[list[int]]:
    """Integral 3x3 isometry of the coset element (1/sqrt(s))[[as, b], [cd, es]]
    (symmetric-square formula with every sqrt(s) cancelled)."""
    t = d // s
    return [
        [e * e * s, 2 * c * d * e, c * c * t],
        [b * e, a * e * s + b * c * t, a * c],
        [b * b * t, 2 * a * b * d, a * a * s],
    ]


def preserves_gram(m: list[list[int]], d: int) -> bool:
    """m^T G m == G for G = [[0,0,-1],[0,2d,0],[-1,0,0]]."""
    gram = ((0, 0, -1), (0, 2 * d, 0), (-1, 0, 0))
    gm = [[sum(gram[i][k] * m[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    return all(
        sum(m[k][i] * gm[k][j] for k in range(3)) == gram[i][j]
        for i in range(3)
        for j in range(3)
    )


# ---------------------------------------------------------- verify-*


@dataclass(frozen=True)
class VerifyLabel:
    d_min: int
    d_max: int
    samples: int
    omegas: tuple[int, ...]


def _verify_request(d_min: int, d_max: int, samples: int, seed: int) -> Request:
    omegas = tuple(len(prime_powers(d)) for d in range(d_min, d_max + 1))
    argv = ("verify", "--d-min", str(d_min), "--d-max", str(d_max),
            "--samples", str(samples), "--seed", str(seed))
    items = samples * sum(2**w for w in omegas)
    return Request(argv, "", items, VerifyLabel(d_min, d_max, samples, omegas))


def check_verify(req: Request, code, out: str) -> Outcome:
    """Completeness and consistency of a verify report.

    Operations are the report's checks: CHECKS_PER_SAMPLE per sampled
    element, one census, one per transform and one analytic check per level.
    Failed analytic checks are counted but are not a problem: on levels
    above a few hundred the analytic stage reports false failures (see
    NOTES.md, defect D1).  A failure in an exact stage is a problem."""
    lab: VerifyLabel = req.label
    attempted = sum(lab.samples * 2**w * CHECKS_PER_SAMPLE + 2**w + 2
                    for w in lab.omegas)
    try:
        report = json.loads(out)
        levels = report["levels"]
        if [int(lv["d"]) for lv in levels] != list(range(lab.d_min, lab.d_max + 1)):
            return Outcome(attempted, attempted, ["report does not cover the requested levels"])
        failed = 0
        problems = []
        for lv, w in zip(levels, lab.omegas):
            corr = len(lv["correspondence"]["failures"])
            census = not lv["census"]["ok"]
            if len(lv["transforms"]) != 2**w:
                problems.append(f"d={lv['d']}: {len(lv['transforms'])} transforms, want {2**w}")
            transforms = sum(not t["ok"] for t in lv["transforms"])
            analytic = not lv["analytic"]["ok"]
            level_failed = corr + census + transforms + analytic
            if lv["failures"] != level_failed:
                problems.append(f"d={lv['d']}: failure count {lv['failures']} != {level_failed}")
            if corr or census or transforms:
                problems.append(f"d={lv['d']}: exact-stage check failed")
            failed += level_failed
        if report["total_failures"] != failed:
            problems.append("total_failures disagrees with the levels")
        if code != (1 if failed else 0):
            problems.append(f"exit code {code} with {failed} failed checks")
        return Outcome(attempted, failed, problems)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(attempted, attempted, [f"unreadable verify report: {exc!r}"])


VERIFY_SAMPLES = 2


def sweep_chunks(rng: random.Random) -> Iterator[list[Request]]:
    """Rounds of five `verify` runs over d = 1..D, D = 10, 20, 30, 40, 50 in
    seeded order, each with a fresh seed; D = 50 is the default range
    (omega <= 3).  The uneven sizes put the median request inside the D = 30
    group and the tail inside the D = 50 group, not at a group's edge."""
    while True:
        ends = [10, 20, 30, 40, 50]
        rng.shuffle(ends)
        yield [_verify_request(1, d_max, VERIFY_SAMPLES, rng.randrange(1, 2**31))
               for d_max in ends]


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def primorial_chunks(rng: random.Random) -> Iterator[list[Request]]:
    """Rounds of five single-level verifies, omega = 5, 6, 7, 8, 8.  The
    level of omega w is the product of w of the first w+1 primes (2310,
    30030, 510510 and 9699690 are the smallest choices).  Latency grows
    steeply with omega; with omega 8 twice, the median request is an omega-7
    level and the tail lies among the omega-8 levels, not on a boundary
    between two groups."""
    while True:
        chunk = []
        for w in (5, 6, 7, 8, 8):
            drop = rng.randrange(w + 1)
            d = math.prod(p for i, p in enumerate(_FIRST_PRIMES[: w + 1]) if i != drop)
            chunk.append(_verify_request(d, d, VERIFY_SAMPLES, rng.randrange(1, 2**31)))
        yield chunk


# ----------------------------------------------------------- census-table

CENSUS_LO = 10**6
CENSUS_ROWS = 200
CENSUS_WINDOWS = 5000


def census_chunks(rng: random.Random) -> Iterator[list[Request]]:
    """`table` over windows of CENSUS_ROWS consecutive d, drawn without
    replacement from [10^6, 2*10^6): no d repeats within a run, and the mean
    size of d does not depend on how many windows a run gets through.  A
    run that uses up all of them goes on in [2*10^6, 3*10^6), and so on."""
    for block in itertools.count(1):
        for k in rng.sample(range(CENSUS_WINDOWS), CENSUS_WINDOWS):
            lo = block * CENSUS_LO + k * CENSUS_ROWS
            hi = lo + CENSUS_ROWS - 1
            yield [Request(("table", "--d-min", str(lo), "--d-max", str(hi)), "",
                           CENSUS_ROWS, (lo, hi))]


class CensusChecker:
    """Each row must show omega from our own sieve, 2^omega exact divisors
    and fm_number = fricke_index = 2^(omega-1)."""

    def __init__(self) -> None:
        self.primes = primes_below(math.isqrt(2 * CENSUS_LO) + 2)

    def __call__(self, req: Request, code, out: str) -> Outcome:
        lo, hi = req.label
        if self.primes[-1] ** 2 < hi:
            self.primes = primes_below(math.isqrt(hi) + 2)
        rows = hi - lo + 1
        lines = out.splitlines()
        if code != 0 or not lines or lines[0] != TABLE_HEADER or len(lines) != rows + 1:
            return Outcome(rows, rows, [f"table [{lo}, {hi}]: exit {code}, {len(lines)} lines"])
        failed = 0
        for d, w, line in zip(range(lo, hi + 1), omega_window(lo, hi, self.primes), lines[1:]):
            fm = 1 if d == 1 else 2 ** (w - 1)
            failed += line != f"{d},{w},{2**w},{fm},{fm}"
        problems = [f"table [{lo}, {hi}]: {failed} wrong rows"] if failed else []
        return Outcome(rows, failed, problems)


# ---------------------------------------------------------------- queries

# One block of 20 requests; its order is shuffled per block.
QUERY_BLOCK = (
    ("semiprime", "prime_power", "smooth")
    + ("wire",) * 6
    + ("lift",) * 6
    + ("perturbed_wire", "perturbed_lift", "malformed", "reflected", "reflected")
)

_SEMIPRIME_LO = int(0.9 * 2**20)
_SMALL_PRIMES = tuple(primes_below(50))


@dataclass(frozen=True)
class Expect:
    """Expected exit code, plus the expected payload on success: the
    classify record, or the exact divisors of d for partners."""

    code: int
    record: dict | None = None
    divisors: tuple[int, ...] = ()


def _partners(d: int, powers: list[int]) -> Request:
    return Request(("partners", "--d", str(d)), "", 1,
                   Expect(0, divisors=tuple(exact_divisors(powers))))


def _level(rng: random.Random) -> tuple[int, int]:
    """A mixed level d (omega 1..7 from primes below 30, some squared) and
    an exact divisor s of it."""
    primes = rng.sample(_SMALL_PRIMES[:10], rng.randint(1, 7))
    powers = [p * p if rng.random() < 0.25 else p for p in primes]
    s = math.prod(q for q in powers if rng.random() < 0.5)
    return math.prod(powers), s


def _element(rng: random.Random) -> tuple[int, int, int, int, int, int]:
    d, s = _level(rng)
    w = k3fm.random_al(d, s, random.Random(rng.randrange(2**62)))
    if (w.d, w.s) != (d, s) or w.a * w.e * s - w.b * w.c * (d // s) != 1:
        raise RuntimeError(f"random_al returned {w} for d={d}, s={s}")
    return d, s, w.a, w.b, w.c, w.e


def _wire_text(d, s, a, b, c, e) -> str:
    return json.dumps({"d": str(d), "s": str(s), "abce": [str(a), str(b), str(c), str(e)]})


def _lift_text(m) -> str:
    return json.dumps([[str(x) for x in row] for row in m])


def _query(kind: str, rng: random.Random) -> Request:
    if kind == "semiprime":
        p = random_prime(rng, _SEMIPRIME_LO, 2**20)
        q = p
        while q == p:
            q = random_prime(rng, _SEMIPRIME_LO, 2**20)
        return _partners(p * q, [p, q])
    if kind == "prime_power":
        p = random_prime(rng, 3, 2**12)
        k = rng.randint(2, int(40 / math.log2(p)))
        return _partners(p**k, [p**k])
    if kind == "smooth":
        w = rng.randint(5, 8)
        while True:
            primes = rng.sample(_SMALL_PRIMES, w)
            if math.prod(primes) < 2**40:
                return _partners(math.prod(primes), primes)

    d, s, a, b, c, e = _element(rng)
    m = lift(d, s, a, b, c, e)
    lift_argv = ("classify", "--d", str(d))
    if kind in ("wire", "lift"):
        record = {
            "s": str(s),
            "fricke": s in (1, d),
            "discriminant_unit": str(m[1][1] % (2 * d)),
            "orientation": True,
        }
        if kind == "wire":
            return Request(("classify",), _wire_text(d, s, a, b, c, e), 1, Expect(0, record))
        return Request(lift_argv, _lift_text(m), 1, Expect(0, record))
    if kind == "perturbed_wire":
        abce = [a, b, c, e]
        i = rng.randrange(4)
        while True:
            abce[i] += 1
            pa, pb, pc, pe = abce
            if pa * pe * s - pb * pc * (d // s) != 1:
                return Request(("classify",), _wire_text(d, s, *abce), 1, Expect(3))
            abce[i] -= 1
            i = (i + 1) % 4
    if kind == "perturbed_lift":
        i, j = rng.randrange(3), rng.randrange(3)
        m[i][j] += 1
        while preserves_gram(m, d):
            m[i][j] -= 1
            i, j = (i + (j == 2)) % 3, (j + 1) % 3
            m[i][j] += 1
        return Request(lift_argv, _lift_text(m), 1, Expect(3))
    if kind == "malformed":
        text = _wire_text(d, s, a, b, c, e) if rng.random() < 0.5 else _lift_text(m)
        return Request(lift_argv, text[: rng.randrange(1, len(text))], 1, Expect(4))
    if kind == "reflected":
        # m * diag(1, -1, 1): still Gram-preserving, but it reverses the
        # orientation of the positive 2-plane, so no coset element lifts to it.
        for row in m:
            row[1] = -row[1]
        if not preserves_gram(m, d):
            raise RuntimeError("reflected lift lost the Gram form")
        return Request(lift_argv, _lift_text(m), 1, Expect(3))
    raise ValueError(f"unknown query kind {kind!r}")


def query_chunks(rng: random.Random) -> Iterator[list[Request]]:
    while True:
        kinds = list(QUERY_BLOCK)
        rng.shuffle(kinds)
        yield [_query(kind, rng) for kind in kinds]


def check_query(req: Request, code, out: str) -> Outcome:
    exp: Expect = req.label
    if code != exp.code:
        return Outcome(1, 1, [f"{' '.join(req.argv)}: exit {code}, want {exp.code}"])
    if exp.code != 0:
        return Outcome(1, 0) if out == "" else Outcome(1, 1, ["rejected input produced output"])
    try:
        obj = json.loads(out)
        if req.argv[0] == "classify":
            ok = obj == exp.record
        else:
            d = int(req.argv[2])
            want = sorted({min(r, d // r) for r in exp.divisors})
            labels = obj["labels"]
            ok = (
                int(obj["d"]) == d
                and int(obj["fm_number"]) == len(want) == len(labels)
                and [int(lab["r"]) for lab in labels] == want
                and all(_partner_image_ok(d, lab) for lab in labels)
            )
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(1, 1, [f"{' '.join(req.argv)}: unreadable output: {exc!r}"])
    return Outcome(1, 0) if ok else Outcome(1, 1, [f"{' '.join(req.argv)}: wrong result"])


def _partner_image_ok(d: int, lab: dict) -> bool:
    """The image lies in the coset of level d/r and has determinant one."""
    s = int(lab["coset_level"])
    a, b, c, e = (int(x) for x in lab["image"]["abce"])
    return (s == d // int(lab["r"]) and int(lab["image"]["s"]) == s
            and a * e * s - b * c * (d // s) == 1)


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    chunks: Callable[[random.Random], Iterator[list[Request]]]
    check: Callable[[Request, object, str], Outcome]  # (request, exit code, stdout)
    pool_per_second: int  # chunks generated during set-up, per measured second
    trace_per_second: float  # chunks in the traced prefix, per measured second
    verify_default: bool = False  # also check the default-config verify digest


def make(name: str) -> Workload:
    if name == "verify-sweep":
        return Workload(name, sweep_chunks, check_verify, 8, 0.2, True)
    if name == "verify-primorial":
        return Workload(name, primorial_chunks, check_verify, 5, 0.2, True)
    if name == "census-table":
        return Workload(name, census_chunks, CensusChecker(), 150, 6.0)
    if name == "queries":
        return Workload(name, query_chunks, check_query, 8, 1.0)
    raise ValueError(f"unknown workload {name!r}")
