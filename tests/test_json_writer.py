"""`cli._emit` writes JSON with its own writer, not the stdlib encoder:
these tests pin its output to `json.dumps(obj, sort_keys=True, indent=2)`
byte for byte on everything k3fm emits, and its refusals."""

import hashlib
import json
import math
from types import SimpleNamespace

import pytest

from k3fm import cli
from k3fm.cli import VerifyConfig, main, run_verify


def emitted(capsys, obj) -> str:
    cli._emit("json", obj, [], (), ())
    return capsys.readouterr().out


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


AWKWARD = 'quote " backslash \\ slash / nul \x00 tab \t nl \n cr \r bell \x07 del \x7f é \U0001f600'

CRAFTED = [
    {},
    [],
    (),
    "",
    None,
    True,
    False,
    0,
    -1,
    10**100,
    -(10**100) + 7,
    0.1,
    -0.0,
    5e-324,
    1e300,
    -1e-300,
    1.2412670766236366e-16,
    math.nan,
    math.inf,
    -math.inf,
    AWKWARD,
    {"": "", AWKWARD: AWKWARD, "é": 1, "\U0001f600": [], "a": {}, "A": ()},
    {"nested": {"empty": {}, "list": [], "deeper": [{}, [[]], [{}], {"x": [[], {}]}]}},
    [None, True, False, 0, 1.5, "s", [1, [2, [3]]], {"k": (1, (2,))}],
    ("a", ("b", ()), {"c": ("d",)}),
    {"b": 1, "a": 2, "ab": 3, "B": 4, "_": 5, "0": 6, "~": 7},
    {"floats": [0.1, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 1e16, 123456789.0]},
]


@pytest.mark.parametrize("obj", CRAFTED, ids=range(len(CRAFTED)))
def test_writer_matches_json_dumps(capsys, obj):
    assert emitted(capsys, obj) == stdlib(obj)


def test_writer_writes_iterators_as_arrays(capsys):
    rows = [{"d": str(d), "omega": "1"} for d in range(5)]
    assert emitted(capsys, {"rows": iter(rows)}) == stdlib({"rows": rows})
    assert emitted(capsys, {"rows": (r for r in ())}) == stdlib({"rows": []})
    assert emitted(capsys, map(str, range(3))) == stdlib(["0", "1", "2"])


@pytest.mark.parametrize("obj", [
    {1, 2},
    frozenset(),
    {"k": {"v"}},
    {1: "a"},
    {"a": {None: 0}},
    [b"bytes"],
    {"k": object()},
    {"k": {"a": 1}.keys()},
    [type("Text", (str,), {})("s")],
    {"k": type("Count", (int,), {})(1)},
], ids=["set", "frozenset", "nested-set", "int-key", "none-key", "bytes",
        "object", "dict-view", "str-subclass", "int-subclass"])
def test_writer_refuses_what_json_would_coerce_or_refuse(obj):
    # scalars are taken by exact type, so a subclass is refused too
    with pytest.raises(TypeError):
        cli._emit("json", obj, [], (), ())


def test_writer_writes_wide_arrays_in_bounded_batches(monkeypatch):
    writes = []
    monkeypatch.setattr("sys.stdout", SimpleNamespace(write=writes.append))
    rows = [{"d": str(d), "fm_number": "1"} for d in range(20000)]
    cli._emit("json", {"rows": iter(rows)}, [], (), ())
    assert "".join(writes) == stdlib({"rows": rows})
    assert len(writes) > 10
    assert max(map(len, writes)) < 1 << 17


def test_verify_report_matches_json_dumps(capsys):
    report, code = run_verify(VerifyConfig(d_max=200))
    out = emitted(capsys, report)
    assert code == 0
    assert out == stdlib(report)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e3c7ca6d8efe6cd73ebf9d07a23ed198372c524496581233c28f6ab3b0ce44ca")


def test_table_json_keeps_its_bytes_over_a_wide_window(capsys):
    # the sha256 of what json.dumps wrote for the 10**5 rows as a list of dicts
    assert main(["table", "--d-min", "1", "--d-max", str(10**5), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "34296a1564f9df58aa417ff1a47c31354a1656221805ca9060bca5fa55f29dce")


def test_writer_matches_json_dumps_on_generated_values(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                       | st.dictionaries(st.text(), inner)),
        max_leaves=25)

    @hypothesis.settings(max_examples=300, deadline=None, database=None,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(values)
    def check(obj):
        assert emitted(capsys, obj) == stdlib(obj)

    check()
