"""Command-line front end: census tables, partner listings, coset
classification, and the `k3fm.verify` self-verification pipeline.

Exact integers and rationals ride through JSON as decimal strings; floats
appear only in defect and tolerance fields.  CSV output is RFC-4180 framed
with a mandatory header row.  Nothing reads the environment, so a fixed
seed reproduces a verification report byte for byte.

Exit codes: 0 success, 1 verification failures, 2 usage error,
3 classification failure, 4 parse error, 141 stdout closed (by its reader,
or before the run).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _json_str

from .arith import Factorization, _range_problem, factorize_window
from .corr import descend, represent
from .errors import K3FMError
from .fmcalc import induced_transform, partner_census, partner_representatives
from .lattice import discriminant_unit, is_orientation_preserving, isometry_from_json
from .modgroup import al_from_json, al_to_json, fricke_coset_count, is_fricke
from .verify import VerifyConfig, run_verify

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


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


# The JSON text of a scalar, by its exact type; a subclass is refused.  CSV
# and text spell a bool as JSON does, with _flag.
_flag = {True: "true", False: "false"}.__getitem__
_JSON_LEAVES = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: _flag,
    type(None): lambda _: "null",
}


def _json(obj, parts: list[str], newline: str) -> None:
    """Append to `parts` the text `json.dumps(obj, sort_keys=True, indent=2)`
    gives `obj` at the indent of `newline`, byte for byte.  CPython runs the
    stdlib encoder in pure Python whenever `indent` is set; this writer
    takes strings from its C helper instead.  Arrays are lists, tuples and
    iterators (read once, so a caller can stream them); while an array is
    written, `parts` goes to stdout whenever it passes 4096 entries.  Any
    other type, and a key that is not a str, raise TypeError."""
    if (leaf := _JSON_LEAVES.get(type(obj))) is not None:
        parts.append(leaf(obj))
    elif isinstance(obj, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{sep}{_json_str(key)}: ")
            _json(value, parts, inner)
            sep = "," + inner
        parts.append(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple, Iterator)):
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _json(item, parts, inner)
            sep = "," + inner
            if len(parts) > 4096:
                sys.stdout.write("".join(parts))
                parts.clear()
        parts.append("[]" if sep[0] == "[" else newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(fmt: str, obj, header: list[str], rows, text) -> None:
    """Write one result to stdout: `obj` as sorted, indented JSON, `header`
    and `rows` as RFC-4180 CSV, or the lines of `text`.  Only the chosen
    one of `rows` and `text` is iterated, so both may be lazy, and so may
    the arrays of `obj` (see `_json`)."""
    if sys.stdout is None:  # fd 1 was closed before the run
        raise BrokenPipeError("stdout is closed")
    if fmt == "json":
        parts: list[str] = []
        _json(obj, parts, "\n")
        parts.append("\n")
        sys.stdout.write("".join(parts))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.writelines(line + "\n" for line in text)


# ---------------------------------------------------------------- table

_TABLE_KEYS = ["d", "omega", "exact_divisors", "fm_number", "fricke_index"]
# The rendered rows of a whole window are held until every level has passed
# the cross-check (0.35 GB resident at this bound, in CSV and in JSON alike);
# factorize_window holds one block of levels at a time.
_TABLE_MAX_LEVELS = 10**6


def _table_row(f: Factorization) -> tuple[str, ...]:
    # fricke_coset_count(d) finds f in factorize's slot (bench/tests counts
    # that call).  A tuple of str is untracked by the garbage collector, so
    # the rows held over a large window add nothing to its full collections.
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
    _emit(args.format, {"rows": (dict(zip(_TABLE_KEYS, row)) for row in rows)},
          _TABLE_KEYS, rows,
          ("  ".join(f"{x:>14}" for x in row)
           for row in itertools.chain([_TABLE_KEYS], rows)))
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
          itertools.chain([f"d={args.d}  fm_number={fm_number}"], (
              f"  {e['moduli']}  r={e['r']}  image level {e['coset_level']}"
              f"  (a,b,c,e)=({','.join(e['image']['abce'])})"
              f"  {'fine' if e['fine'] else 'not fine'}"
              for e in labels)))
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

    row = [_flag(v) if type(v) is bool else v for v in record.values()]
    _emit(args.format, record, list(record), [row],
          [" ".join(f"{k}={v}" for k, v in zip(record, row))])
    return 0


# --------------------------------------------------------------- verify


def _worst(level: dict) -> float:
    analytic = level["analytic"]
    return max(analytic["max_action_defect"], analytic["max_charge_defect"],
               analytic["max_equivariance_defect"])


def _verify_rows(report: dict) -> Iterator[tuple[str, ...]]:
    """The CSV rows of a `run_verify` report, four per level."""
    for level in report["levels"]:
        d, census, analytic = level["d"], level["census"], level["analytic"]
        failures, transforms = level["correspondence"]["failures"], level["transforms"]
        yield d, "correspondence", _flag(not failures), f"failures={len(failures)}"
        yield d, "census", _flag(census["ok"]), f"fm_number={census['fm_number']}"
        yield (d, "transforms", _flag(all(t["ok"] for t in transforms)),
               f"count={len(transforms)}")
        yield d, "analytic", _flag(analytic["ok"]), f"max_defect={_worst(level)!r}"


def _verify_text(report: dict) -> Iterator[str]:
    """The text lines of a `run_verify` report, one per level and a total."""
    for level in report["levels"]:
        status = f"{level['failures']} failures" if level["failures"] else "ok"
        yield f"d={level['d']}: {status} (worst analytic defect {_worst(level)!r})"
    yield f"total failures: {report['total_failures']}"


def _cmd_verify(args) -> int:
    try:
        config = VerifyConfig(args.d_min, args.d_max, args.samples, args.seed, args.tol)
    except ValueError as exc:
        raise _Exit(2, str(exc)) from None
    report, code = run_verify(config)
    _emit(args.format, report, ["d", "check", "ok", "detail"], _verify_rows(report),
          _verify_text(report))
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # help or usage is written by now
            code = int(exc.code) if exc.code else 0
        else:
            code = args.func(args)
        if sys.stdout is not None:  # with fd 1 closed, help went to stderr
            sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # The reader is gone: the exit flush goes to the null device instead.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
