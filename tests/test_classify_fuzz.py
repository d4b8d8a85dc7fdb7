"""Seeded exit-code fuzz of `k3fm classify`.

Every input below is malformed, ill-typed or not the lift of a coset
element.  Each must end in its documented exit code (2 usage, 3 not
classifiable, 4 parse error) with exactly one `error:` line on stderr,
nothing on stdout, and no exception escaping `main`.
"""

import io
import json
import random
import sys

import pytest

from k3fm.arith import exact_divisor_values
from k3fm.cli import main
from k3fm.corr import represent
from k3fm.modgroup import al_to_json, random_al

LEVELS = (1, 2, 6, 12, 30, 210, 2310)
CASES_PER_KIND = 30


def _element(rng):
    d = rng.choice(LEVELS)
    return random_al(d, rng.choice(exact_divisor_values(d)), rng)


def _lift(rng):
    w = _element(rng)
    return w.d, [[str(x) for x in row] for row in represent(w).m]


def truncated(rng):
    w = _element(rng)
    wire = [[str(x) for x in row] for row in represent(w).m]
    text = json.dumps(rng.choice([al_to_json(w), wire]))
    return ["--d", str(w.d)], text[: rng.randrange(len(text))], 4


def wrong_shape(rng):
    d, m = _lift(rng)
    w = al_to_json(_element(rng))
    shapes = [
        m[:2], [row[:2] for row in m], m + [m[0]], [m], m[0], [[m[0]], m[1], m[2]],
        [], {}, None, "6", 6, True,
        {"d": w["d"], "s": w["s"]}, {**w, "abce": w["abce"][:3]},
        {**w, "abce": w["abce"] + ["0"]}, {**w, "abce": "".join(w["abce"])},
        {**w, "abce": {"a": "1"}}, {"abce": w["abce"]},
    ]
    shape = rng.choice(shapes)
    if isinstance(shape, list) and rng.random() < 0.3:
        return [], json.dumps(shape), 2  # a bare matrix needs --d
    return ["--d", str(d)] if isinstance(shape, list) else [], json.dumps(shape), 4


def _with_one_entry(rng, value):
    """A lift with one entry set to value (it needs --d), or an element
    object with one of its fields set to value."""
    if rng.random() < 0.5:
        d, m = _lift(rng)
        m[rng.randrange(3)][rng.randrange(3)] = value
        return ["--d", str(d)], m
    w = al_to_json(_element(rng))
    slot = rng.randrange(6)
    if slot < 4:
        w["abce"][slot] = value
    else:
        w[("d", "s")[slot - 4]] = value
    return [], w


def float_or_bool(rng):
    bad = rng.choice([1.0, 0.5, -0.0, 1e3, 2.5e-7, True, False])
    extra, obj = _with_one_entry(rng, bad)
    return extra, json.dumps(obj), 4


def huge_integer(rng):
    """An entry longer than Python's 4300-digit conversion limit, as a bare
    JSON integer or as a decimal string."""
    extra, obj = _with_one_entry(rng, "BIG")
    digits = "9" * rng.randint(4301, 6000)
    big = f'"{digits}"' if rng.random() < 0.5 else digits
    return extra, json.dumps(obj).replace('"BIG"', big), 4


def perturbed_lift(rng):
    """One entry of a lift moved by an odd amount.  A one-entry change keeps
    the Gram form only when it flips the sign of the sole nonzero entry of
    the middle row, an even move, so every input here is a non-isometry."""
    d, m = _lift(rng)
    i, j = rng.randrange(3), rng.randrange(3)
    m[i][j] = str(int(m[i][j]) + rng.choice([-3, -1, 1, 3]))
    return ["--d", str(d)], json.dumps(m), 3


def reflected_lift(rng):
    """diag(1, -1, 1) times a lift, on the left or the right: an isometry
    that no coset element lifts to."""
    d, m = _lift(rng)
    if rng.random() < 0.5:
        m[1] = [str(-int(x)) for x in m[1]]
    else:
        for row in m:
            row[1] = str(-int(row[1]))
    return ["--d", str(d)], json.dumps(m), 3


def rational_entry(rng):
    """A lift with an entry spelled "p/q" that is not an integer exits 3;
    a malformed entry or a zero denominator later in the array is a parse
    error first (exit 4)."""
    d, m = _lift(rng)
    cells = sorted(rng.sample(range(9), 2))
    i, j = divmod(cells[0], 3)
    q = rng.randint(2, 9)
    m[i][j] = f"{int(m[i][j]) * q + rng.randrange(1, q)}/{q}"
    case = rng.randrange(3)
    if case == 0:
        return ["--d", str(d)], json.dumps(m), 3
    i, j = divmod(cells[1], 3)
    if case == 1:
        m[i][j] = rng.choice(["x", "1e0", "+1", "1/", "1.5", "1/-2", 0.5, True, None])
    else:
        m[i][j] = f"{m[i][j]}/0"
    return ["--d", str(d)], json.dumps(m), 4


KINDS = [truncated, wrong_shape, float_or_bool, huge_integer, perturbed_lift,
         reflected_lift, rational_entry]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_classify_rejects_with_documented_exit_code(kind, capsys, monkeypatch):
    rng = random.Random(f"classify-fuzz-{kind.__name__}")
    for _ in range(CASES_PER_KIND):
        extra, text, expected = kind(rng)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(["classify", *extra])
        captured = capsys.readouterr()
        case = f"{kind.__name__}: classify {' '.join(extra)} < {text[:120]!r}"
        assert code == expected, case
        assert captured.out == "", case
        assert captured.err.startswith("error: "), case
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), case


def _over(x, q):
    """The decimal entry x spelled as the rational (x*q)/q."""
    return f"{int(x) * q}/{q}"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_integral_rationals_classify_as_their_integers(fmt, capsys, monkeypatch):
    """A lift whose entries are spelled as integral rationals ("4/2",
    "-3/3") gives the same bytes as its decimal spelling."""
    rng = random.Random(f"classify-rationals-{fmt}")
    for _ in range(CASES_PER_KIND):
        d, m = _lift(rng)
        spelled = [[rng.choice([x, _over(x, rng.randint(1, 4))]) for x in row]
                   for row in m]
        outputs = []
        for text in (json.dumps(m), json.dumps(spelled)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(["classify", "--d", str(d), "--format", fmt])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0][0] == 0 and outputs[0][1], (d, m)
        assert outputs[1] == outputs[0], (d, spelled)
