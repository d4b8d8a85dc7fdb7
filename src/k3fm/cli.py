"""Command-line front end: census tables, partner listings, coset
classification, and the `k3fm.verify` self-verification pipeline.

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
import functools
import itertools
import json
import sys

from .arith import Factorization, _range_problem, factorize_window
from .corr import descend, represent
from .errors import K3FMError
from .fmcalc import induced_transform, partner_census, partner_representatives
from .lattice import discriminant_unit, is_orientation_preserving, isometry_from_json
from .modgroup import al_from_json, al_to_json, fricke_coset_count, is_fricke
from .verify import CSV_HEADER, VerifyConfig, _flag, render, run_verify

__all__ = ["main"]

_FORMATS = ("json", "csv", "text")


class _Exit(Exception):
    """Ends a subcommand: `main` prints `error: <message>` to stderr and
    returns `code` (1 failed cross-check, 2 usage, 3 classification,
    4 parse)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _check_positive(d: int) -> None:
    if d < 1:
        raise _Exit(2, f"d must be positive, got {d}")


def _emit(fmt: str, obj, header: list[str], rows, text) -> None:
    """Write one result to stdout: `obj` as sorted, indented JSON, `header`
    and `rows` as RFC-4180 CSV, or the lines of `text`.  Only the chosen
    one of `rows` and `text` is iterated, so both may be lazy.  JSON goes
    out 4096 encoder chunks at a time: json.dumps would hold the whole
    document, as a list of chunks and as one string, at once."""
    if fmt == "json":
        chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)
        while batch := "".join(itertools.islice(chunks, 4096)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(line + "\n" for line in text)


# ---------------------------------------------------------------- table

_TABLE_KEYS = ["d", "omega", "exact_divisors", "fm_number", "fricke_index"]
# The rendered rows of a whole window are held until every level has passed
# the cross-check (0.36 GB resident in CSV, 0.55 GB in JSON at this bound);
# factorize_window holds one block of levels at a time.
_TABLE_MAX_LEVELS = 10**6


def _table_row(f: Factorization) -> tuple[str, ...]:
    # fricke_coset_count(d) is the cross-check's second computation, and
    # bench/tests counts the factorize calls it makes over a table.  A tuple
    # of str is untracked by the garbage collector, so the rows held over a
    # large window add nothing to its full collections.
    d = f.n
    fm_number = len(partner_representatives(f))
    if fm_number != fricke_coset_count(d):
        raise _Exit(1, f"partner count and coset index disagree at d={d}")
    count = str(fm_number)
    return str(d), str(f.omega), str(len(f.divisors)), count, count


def _cmd_table(args) -> int:
    if (problem := _range_problem(args.d_min, args.d_max)) is not None:
        raise _Exit(2, problem)
    if (levels := args.d_max - args.d_min + 1) > _TABLE_MAX_LEVELS:
        raise _Exit(2, f"table windows hold at most {_TABLE_MAX_LEVELS} levels, "
                       f"got {levels}")
    rows = [_table_row(f) for f in factorize_window(args.d_min, args.d_max)]
    obj = ({"rows": [dict(zip(_TABLE_KEYS, row)) for row in rows]}
           if args.format == "json" else None)
    _emit(args.format, obj, _TABLE_KEYS, rows,
          ("  ".join(f"{x:>14}" for x in row) for row in [_TABLE_KEYS, *rows]))
    return 0


# ------------------------------------------------------------- partners


def _cmd_partners(args) -> int:
    _check_positive(args.d)
    if (problem := _range_problem(args.d, args.d)) is not None:
        raise _Exit(2, problem)
    labels = []
    for lab in partner_census(args.d):
        image = induced_transform(args.d, lab.r).image
        labels.append({"r": str(lab.r), "moduli": lab.moduli, "fine": lab.is_fine,
                       "image": al_to_json(image), "coset_level": str(image.s)})
    fm_number = str(len(labels))
    _emit(args.format, {"d": str(args.d), "fm_number": fm_number, "labels": labels},
          ["d", "r", "moduli", "fine", "coset_level", "a", "b", "c", "e"],
          ([str(args.d), e["r"], e["moduli"], _flag(e["fine"]), e["coset_level"],
            *e["image"]["abce"]] for e in labels),
          [f"d={args.d}  fm_number={fm_number}"] + [
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
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
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
        orientation = is_orientation_preserving(g)  # runs the Gram test first
        w = descend(g)
        record = {
            "s": str(w.s),
            "fricke": is_fricke(w),
            "discriminant_unit": str(discriminant_unit(g)),
            "orientation": orientation,
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


def _cmd_verify(args) -> int:
    try:
        config = VerifyConfig(args.d_min, args.d_max, args.samples, args.seed, args.tol)
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None
    report, code = run_verify(config)
    rows, text = ((), ()) if args.format == "json" else render(report)
    _emit(args.format, report, CSV_HEADER, rows, text)
    return code


# ----------------------------------------------------------------- main


# Usage and help are wrapped at the width argparse takes from COLUMNS=80,
# so they never depend on the terminal (and no parser probes it).
_Parser = functools.partial(
    argparse.ArgumentParser,
    formatter_class=functools.partial(argparse.HelpFormatter, width=78))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="k3fm",
        description=(
            "Exact Atkin-Lehner coset algebra and derived-partner invariants "
            "of degree-2d polarized K3 surfaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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
    p_verify.add_argument("--d-min", type=int, default=VerifyConfig.d_min)
    p_verify.add_argument("--d-max", type=int, default=VerifyConfig.d_max)
    p_verify.add_argument("--samples", type=int, default=VerifyConfig.samples_per_coset)
    p_verify.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p_verify.add_argument("--tol", type=float, default=VerifyConfig.tolerance)
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
