"""Command-line front end: census tables, partner listings, coset
classification, and the self-verification pipeline.

Exact integers and rationals ride through JSON as decimal strings; floats
appear only in defect and tolerance fields.  CSV output is RFC-4180 framed
with a mandatory header row.  Nothing reads the environment, so a fixed
seed reproduces a verification report byte for byte.

Exit codes: 0 success, 1 verification failures, 2 usage error,
3 classification failure, 4 parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from dataclasses import dataclass

from .arith import (
    FACTORIZE_BOUND,
    Factorization,
    exact_divisor_values,
    factorize,
    factorize_window,
)
from .corr import descend, report_to_json, represent, verify_correspondence
from .errors import K3FMError, NotAnIsometry
from .fmcalc import (
    census_to_json,
    induced_transform,
    partner_census,
    partner_representatives,
)
from .halfplane import (
    HalfPlanePoint,
    charge_product_defect,
    equivariance_defect,
    induced_action,
    mobius,
)
from .lattice import (
    discriminant_unit,
    is_isometry,
    is_orientation_preserving,
    isometry_from_json,
)
from .modgroup import al_from_json, al_to_json, fricke_coset_count, is_fricke, random_al

__all__ = ["VerifyConfig", "main", "run_verify"]

_FORMATS = ("json", "csv", "text")


class _Exit(Exception):
    """Ends a subcommand: `main` prints `error: <message>` to stderr and
    returns `code` (1 failed cross-check, 2 usage, 3 classification,
    4 parse)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _range_problem(d_min: int, d_max: int) -> str | None:
    """The usage problem with levels d_min..d_max, or None.  Levels from
    FACTORIZE_BOUND up are refused before any work: factorize is exact and
    bounded in time only below it."""
    if not 1 <= d_min <= d_max:
        return f"invalid range [{d_min}, {d_max}]"
    if d_max >= FACTORIZE_BOUND:
        return f"d must be below 2**64, got {d_max}"
    return None


def _check_positive(d: int) -> None:
    if d < 1:
        raise _Exit(2, f"d must be positive, got {d}")


@dataclass(frozen=True)
class VerifyConfig:
    d_min: int = 1
    d_max: int = 50
    samples_per_coset: int = 50
    seed: int = 1
    tolerance: float = 1e-9

    def validate(self) -> str | None:
        """The first usage problem with this config, or None."""
        if (problem := _range_problem(self.d_min, self.d_max)) is not None:
            return problem
        if self.samples_per_coset < 1:
            return "samples per coset must be at least 1"
        if not 0 < self.tolerance < math.inf:  # false for nan as well
            return f"tolerance must be finite and positive, got {self.tolerance!r}"
        return None


def _flag(x: bool) -> str:
    return "true" if x else "false"


def _emit(fmt: str, obj, header: list[str], rows, text) -> None:
    """Write one result to stdout: `obj` as sorted, indented JSON, `header`
    and `rows` as RFC-4180 CSV, or the lines of `text`.  Only the chosen
    one of `rows` and `text` is iterated, so both may be lazy."""
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(line + "\n" for line in text)


# ---------------------------------------------------------------- table

_TABLE_KEYS = ["d", "omega", "exact_divisors", "fm_number", "fricke_index"]
# factorize_window and the rendered rows hold a whole window in memory.
_TABLE_MAX_LEVELS = 10**6


def _table_row(f: Factorization) -> list[str]:
    d = f.n
    fm_number = len(partner_representatives(d))
    index = fricke_coset_count(d)
    if fm_number != index:
        raise _Exit(1, f"partner count and coset index disagree at d={d}")
    return [str(d), str(f.omega), str(len(exact_divisor_values(d))),
            str(fm_number), str(index)]


def _cmd_table(args) -> int:
    if (problem := _range_problem(args.d_min, args.d_max)) is not None:
        raise _Exit(2, problem)
    if (levels := args.d_max - args.d_min + 1) > _TABLE_MAX_LEVELS:
        raise _Exit(2, f"table windows hold at most {_TABLE_MAX_LEVELS} levels, "
                       f"got {levels}")
    rows = [_table_row(f) for f in factorize_window(args.d_min, args.d_max)]
    _emit(args.format, {"rows": [dict(zip(_TABLE_KEYS, row)) for row in rows]},
          _TABLE_KEYS, rows,
          ("  ".join(f"{x:>14}" for x in row) for row in [_TABLE_KEYS, *rows]))
    return 0


# ------------------------------------------------------------- partners


def _cmd_partners(args) -> int:
    _check_positive(args.d)
    if (problem := _range_problem(args.d, args.d)) is not None:
        raise _Exit(2, problem)
    census = partner_census(args.d)
    payload = census_to_json(census)
    labels = payload["labels"]
    for lab, entry in zip(census.labels, labels):
        image = induced_transform(args.d, lab.r).image
        entry.update(image=al_to_json(image), coset_level=str(image.s))
    _emit(args.format, payload,
          ["d", "r", "moduli", "fine", "coset_level", "a", "b", "c", "e"],
          ([payload["d"], e["r"], e["moduli"], _flag(e["fine"]), e["coset_level"],
            *e["image"]["abce"]] for e in labels),
          [f"d={args.d}  fm_number={payload['fm_number']}"] + [
              f"  {e['moduli']}  r={e['r']}  image level {e['coset_level']}"
              f"  (a,b,c,e)=({','.join(e['image']['abce'])})"
              f"  {'fine' if e['fine'] else 'not fine'}"
              for e in labels])
    return 0


# ------------------------------------------------------------- classify


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_classify(args) -> int:
    if args.d is not None:
        _check_positive(args.d)
    try:
        obj = json.loads(_read_input(args.path))
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(4, f"cannot read input: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise _Exit(4, f"input is not JSON: {exc}") from None

    try:
        if isinstance(obj, dict) and "abce" in obj:
            w = al_from_json(obj)
            if args.d is not None and args.d != w.d:
                raise ValueError(f"--d {args.d} contradicts encoded d={w.d}")
            g = represent(w)
        elif isinstance(obj, list):
            if args.d is None:
                raise _Exit(2, "3x3 input requires --d")
            g = isometry_from_json(obj, args.d)
        else:
            raise ValueError("expected an element object or a 3x3 array")
        if not is_isometry(g):
            raise NotAnIsometry("matrix does not preserve the Gram form")
        w = descend(g)
        record = {
            "s": str(w.s),
            "fricke": is_fricke(w),
            "discriminant_unit": str(discriminant_unit(g).u),
            "orientation": is_orientation_preserving(g),
        }
    except K3FMError as exc:
        raise _Exit(3, f"not classifiable: {exc}") from None
    except (ValueError, TypeError) as exc:
        raise _Exit(4, f"malformed input: {exc}") from None

    row = [record["s"], _flag(record["fricke"]), record["discriminant_unit"],
           _flag(record["orientation"])]
    header = ["s", "fricke", "discriminant_unit", "orientation"]
    _emit(args.format, record, header, [row],
          [" ".join(f"{k}={v}" for k, v in zip(header, row))])
    return 0


# --------------------------------------------------------------- verify


def _sample_point(rng: random.Random) -> HalfPlanePoint:
    return HalfPlanePoint(rng.uniform(-2.0, 2.0), 0.1 + 1.9 * rng.random())


def _verify_level(d: int, config: VerifyConfig, rng: random.Random) -> dict:
    report = verify_correspondence(d, config.samples_per_coset, rng)

    census = partner_census(d)
    omega = factorize(d).omega
    formula = 1 if d == 1 else 2 ** (omega - 1)
    coset_count = fricke_coset_count(d)
    census_ok = census.fm_number == coset_count == formula

    divisors = exact_divisor_values(d)
    built = [induced_transform(d, r) for r in divisors]
    transforms = []
    for r, t in zip(divisors, built):
        twist_ok = (r + d * t.n_src) % (r * r) == 0
        level = descend(represent(t.image)).s
        transforms.append(
            {
                "r": str(r),
                "twist": str(t.n_src),
                "level": str(level),
                "expected_level": str(d // r),
                "ok": twist_ok and level == d // r,
            }
        )

    n_points = min(10, config.samples_per_coset)
    action_max = charge_max = equiv_max = 0.0
    for t in built:
        for _ in range(n_points):
            z = _sample_point(rng)
            za = induced_action(d, t.rank, t.n_src, t.n_tgt, z)
            zm = mobius(t.image, z)
            scale = max(1.0, abs(zm.z))
            action_max = max(action_max, abs(za.z - zm.z) / scale)
            charge_max = max(charge_max, charge_product_defect(t, z))
    for s in divisors:
        w = random_al(d, s, rng)
        g = represent(w)
        for _ in range(n_points):
            equiv_max = max(equiv_max,
                            equivariance_defect(w, _sample_point(rng), isometry=g))
    analytic_ok = max(action_max, charge_max, equiv_max) < config.tolerance
    failures = (len(report.failures) + sum(not t["ok"] for t in transforms)
                + (not census_ok) + (not analytic_ok))

    return {
        "d": str(d),
        "correspondence": report_to_json(report),
        "census": {
            "fm_number": str(census.fm_number),
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
    levels = [
        _verify_level(d, config, rng) for d in range(config.d_min, config.d_max + 1)
    ]
    total = sum(level["failures"] for level in levels)
    report = {
        "config": {
            "d_min": str(config.d_min),
            "d_max": str(config.d_max),
            "samples_per_coset": str(config.samples_per_coset),
            "seed": str(config.seed),
            "tolerance": config.tolerance,
        },
        "levels": levels,
        "total_failures": total,
    }
    return report, 0 if total == 0 else 1


def _cmd_verify(args) -> int:
    config = VerifyConfig(args.d_min, args.d_max, args.samples, args.seed, args.tol)
    if (problem := config.validate()) is not None:
        raise _Exit(2, problem)
    report, code = run_verify(config)
    rows, text = [], []
    for level in report["levels"]:
        d, corr, analytic = level["d"], level["correspondence"], level["analytic"]
        worst = max(analytic["max_action_defect"], analytic["max_charge_defect"],
                    analytic["max_equivariance_defect"])
        rows += [
            [d, "correspondence", _flag(not corr["failures"]),
             f"failures={len(corr['failures'])}"],
            [d, "census", _flag(level["census"]["ok"]),
             f"fm_number={level['census']['fm_number']}"],
            [d, "transforms", _flag(all(t["ok"] for t in level["transforms"])),
             f"count={len(level['transforms'])}"],
            [d, "analytic", _flag(analytic["ok"]), f"max_defect={worst!r}"],
        ]
        status = "ok" if level["failures"] == 0 else f"{level['failures']} failures"
        text.append(f"d={d}: {status} (worst analytic defect {worst!r})")
    text.append(f"total failures: {report['total_failures']}")
    _emit(args.format, report, ["d", "check", "ok", "detail"], rows, text)
    return code


# ----------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3fm",
        description=(
            "Exact Atkin-Lehner coset algebra and derived-partner invariants "
            "of degree-2d polarized K3 surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="census table over a range of d")
    p_table.add_argument("--d-min", type=int, default=1)
    p_table.add_argument("--d-max", type=int, default=50)
    p_table.add_argument("--format", choices=_FORMATS, default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_partners = sub.add_parser("partners", help="partner census for one d")
    p_partners.add_argument("--d", type=int, required=True)
    p_partners.add_argument("--format", choices=_FORMATS, default="json")
    p_partners.set_defaults(func=_cmd_partners)

    p_classify = sub.add_parser(
        "classify", help="classify a 2x2 element or 3x3 matrix from JSON"
    )
    p_classify.add_argument("path", nargs="?", default=None,
                            help="input file, or - for stdin (default)")
    p_classify.add_argument("--d", type=int, default=None,
                            help="level, required for bare 3x3 input")
    p_classify.add_argument("--format", choices=_FORMATS, default="json")
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="run the verification pipeline")
    p_verify.add_argument("--d-min", type=int, default=1)
    p_verify.add_argument("--d-max", type=int, default=50)
    p_verify.add_argument("--samples", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--format", choices=_FORMATS, default="json")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
