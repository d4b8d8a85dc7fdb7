import copy
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from k3fm import cli
from k3fm.arith import exact_divisor_values, factorize, factorize_window
from k3fm.cli import VerifyConfig, main, run_verify
from k3fm.corr import represent, verify_correspondence
from k3fm.fmcalc import induced_transform, partner_census
from k3fm.halfplane import charge_product_defect, mobius
from k3fm.modgroup import ALElement, al_to_json, base_element, fricke_coset_count
from k3fm.verify import MAX_SAMPLED_ELEMENTS, _charge_identity_holds


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--d-min", "1", "--d-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,omega,exact_divisors,fm_number,fricke_index"
    assert lines[1] == "1,0,1,1,1"


def test_table_first_row_after_factorize_true(capsys):
    factorize(True)
    code, out, _ = run_cli(capsys, "table", "--d-min", "1", "--d-max", "1")
    assert (code, out.splitlines()[1]) == (0, "1,0,1,1,1")


def test_table_known_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--d-min", "1", "--d-max", "30", "--format", "json")
    assert code == 0
    rows = {row["d"]: row for row in json.loads(out)["rows"]}
    assert rows["6"] == {
        "d": "6", "omega": "2", "exact_divisors": "4",
        "fm_number": "2", "fricke_index": "2",
    }
    assert rows["30"] == {
        "d": "30", "omega": "3", "exact_divisors": "8",
        "fm_number": "4", "fricke_index": "4",
    }


def test_table_rfc4180_line_endings(capsys):
    _, out, _ = run_cli(capsys, "table", "--d-min", "1", "--d-max", "2")
    assert "\r\n" in out


def test_table_invalid_range(capsys):
    code, _, err = run_cli(capsys, "table", "--d-min", "5", "--d-max", "2")
    assert code == 2
    assert "invalid range" in err


def _disagree_at(monkeypatch, bad):
    monkeypatch.setattr("k3fm.cli.fricke_coset_count",
                        lambda d: fricke_coset_count(d) + (d == bad))


def test_table_cross_check_failure_exits_1(capsys, monkeypatch):
    # Each row is written as it is computed, so the rows before the level
    # that fails are out when the error comes.
    _disagree_at(monkeypatch, 5)
    code, out, err = run_cli(capsys, "table", "--d-min", "1", "--d-max", "8")
    assert (code, out) == (1, "d,omega,exact_divisors,fm_number,fricke_index\r\n"
                              "1,0,1,1,1\r\n2,1,2,1,1\r\n3,1,2,1,1\r\n4,1,2,1,1\r\n")
    assert err == "error: partner count and coset index disagree at d=5\n"


def test_table_cross_check_failure_exits_1_in_text(capsys, monkeypatch):
    _disagree_at(monkeypatch, 3)
    code, out, err = run_cli(capsys, "table", "--d-max", "8", "--format", "text")
    assert (code, out.splitlines()) == (1, [
        "             d           omega  exact_divisors       fm_number    fricke_index",
        "             1               0               1               1               1",
        "             2               1               2               1               1",
    ])
    assert err == "error: partner count and coset index disagree at d=3\n"


def test_table_cross_check_failure_leaves_no_json_document(capsys, monkeypatch):
    # The failing level comes after batches of rows have gone out, so stdout
    # holds a truncated prefix of the document.
    _disagree_at(monkeypatch, 1500)
    code, out, err = run_cli(capsys, "table", "--d-max", "2000", "--format", "json")
    assert code == 1
    assert err == "error: partner count and coset index disagree at d=1500\n"
    assert out.startswith('{\n  "rows": [\n    {\n      "d": "1",')
    assert '"d": "1500"' not in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_table_huge_window_exits_2_without_traceback():
    # under a 1 GiB address space an up-front allocation of the window
    # ends in MemoryError; the refusal must come before any work
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1",
         "--d-max", str(10**12)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: table windows hold at most 1000000 levels, got {10**12}\n")


def _limit_address_space_to_144_mib():
    resource.setrlimit(resource.RLIMIT_AS, (144 << 20, 144 << 20))


def test_table_json_streams_under_a_tight_address_space():
    # 10**5 levels of JSON: streamed, the run needs about 26 MiB of address
    # space; encoded whole as by json.dumps, it needs about 180 MiB and ends
    # in a MemoryError traceback from the encoder (Python 3.11, x86_64)
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", str(10**5),
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space_to_144_mib,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 10**5
    assert rows[-1] == {"d": "100000", "omega": "2", "exact_divisors": "4",
                        "fm_number": "2", "fricke_index": "2"}


def _limit_address_space_to_75_mib():
    resource.setrlimit(resource.RLIMIT_AS, (75 << 20, 75 << 20))


def test_table_csv_holds_one_block_under_a_tight_address_space():
    # 10**5 levels of CSV: with the window factorized one block at a time,
    # the run needs about 26 MiB of address space; with the whole window's
    # trial-division lists built before the first row, it needed about 91
    # MiB while the rows were also held, and ended in a MemoryError
    # traceback (Python 3.11, x86_64)
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", str(10**5)],
        capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space_to_75_mib,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 10**5 + 1
    assert lines[-1] == "100000,2,4,2,2"


def _limit_address_space_to_65_mib():
    resource.setrlimit(resource.RLIMIT_AS, (65 << 20, 65 << 20))


def test_table_json_holds_no_row_dicts_under_a_tight_address_space():
    # 10**5 levels of JSON: with one row dict alive at a time, the run needs
    # about 26 MiB of address space, as CSV does; with a dict built for every
    # row before the first is written, it needs about 67 MiB and ends in a
    # MemoryError traceback (Python 3.11, x86_64)
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", str(10**5),
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space_to_65_mib,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 10**5
    assert rows[-1] == {"d": "100000", "omega": "2", "exact_divisors": "4",
                        "fm_number": "2", "fricke_index": "2"}


def _limit_address_space_to_64_mib():
    resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))


@pytest.mark.parametrize("fmt, tail", [
    ("csv", "300000,3,8,4,4\r\n"),
    ("json", '{\n      "d": "300000",\n      "exact_divisors": "8",\n'
             '      "fm_number": "4",\n      "fricke_index": "4",\n'
             '      "omega": "3"\n    }\n  ]\n}\n'),
], ids=["csv", "json"])
def test_table_writes_each_row_as_it_is_computed(fmt, tail):
    # 3 * 10**5 levels: with each row written as it is computed, the run
    # needs about 26 MiB of address space, as at 10**5 levels; holding the
    # rendered rows until the window has passed its cross-checks needs about
    # 123 MiB and ends in a MemoryError traceback (Python 3.11, x86_64)
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", str(3 * 10**5),
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        preexec_fn=_limit_address_space_to_64_mib,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.endswith(tail.encode())


def test_table_reader_that_leaves_early_stops_the_run():
    # `table --d-max 1000000 | head -1`: the first rows reach the pipe
    # within a fraction of a second, and the next write after the reader
    # has gone ends the run with 141; a window held until its last level
    # was computed took about 8 s to write its header.
    start = time.monotonic()
    argv = [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", str(10**6)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    assert (header, proc.returncode, err) == (
        b"d,omega,exact_divisors,fm_number,fricke_index\r\n", 141, b"")
    assert time.monotonic() - start < 3.0


def test_table_window_limit_is_checked_before_any_work(capsys, monkeypatch):
    windows = []
    monkeypatch.setattr("k3fm.cli.factorize_window",
                        lambda d_min, d_max: windows.append((d_min, d_max)) or iter(()))
    for d_min, d_max in ((1, 10**6), (7, 10**6 + 6)):
        code, _, err = run_cli(capsys, "table", "--d-min", str(d_min),
                               "--d-max", str(d_max))
        assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "table", "--d-min", "7", "--d-max", str(10**6 + 7))
    assert (code, out) == (2, "")
    assert err == "error: table windows hold at most 1000000 levels, got 1000001\n"
    assert windows == [(1, 10**6), (7, 10**6 + 6)]


def test_partners_trivial(capsys):
    code, out, _ = run_cli(capsys, "partners", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["fm_number"] == "1"
    assert payload["labels"][0]["moduli"] == "M_L(1+L+1)"


def test_partners_level_six(capsys):
    code, out, _ = run_cli(capsys, "partners", "--d", "6")
    assert code == 0
    payload = json.loads(out)
    levels = [lab["coset_level"] for lab in payload["labels"]]
    assert levels == ["6", "3"]
    # output round-trips through the census schema
    census = partner_census(int(payload["d"]))
    assert [lab.moduli for lab in census] == [
        lab["moduli"] for lab in payload["labels"]
    ]
    assert str(len(census)) == payload["fm_number"]


def test_partners_rejects_bad_d(capsys):
    code, _, err = run_cli(capsys, "partners", "--d", "0")
    assert code == 2
    assert "must be positive" in err


def test_partners_large_prime_within_budget(capsys, time_budget):
    with time_budget(2.0):
        code, out, _ = run_cli(capsys, "partners", "--d", "1000000000000000003")
    assert code == 0
    assert json.loads(out)["fm_number"] == "1"


def test_partners_writes_each_label_as_it_is_built(monkeypatch):
    # 2**14 labels at the 15th primorial: JSON goes out in batches while the
    # listing is built, so some canonical transform is built after the first
    # write; a listing held whole until its last label was built writes none
    # before then
    writes, written_before = [], []

    def building(d, r):
        written_before.append(sum(map(len, writes)))
        return induced_transform(d, r)

    monkeypatch.setattr("k3fm.cli.induced_transform", building)
    monkeypatch.setattr("sys.stdout", SimpleNamespace(write=writes.append,
                                                      flush=lambda: None))
    assert main(["partners", "--d", "614889782588491410", "--format", "json"]) == 0
    assert len(written_before) == 2**14
    assert written_before[0] == 0 < written_before[-1]
    assert "".join(writes).endswith("\n  ]\n}\n")


def test_levels_from_two_to_the_64_exit_2(capsys, time_budget):
    big, below = str(2**64), str(2**64 - 1)
    for argv in (
        ("partners", "--d", big),
        ("table", "--d-min", big, "--d-max", big),
        ("table", "--d-max", big),
        ("verify", "--d-min", big, "--d-max", big, "--samples", "1"),
        ("verify", "--d-max", big),
    ):
        with time_budget(2.0):
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: d must be below 2**64, got {big}\n", argv
    with time_budget(2.0):
        code, out, _ = run_cli(capsys, "partners", "--d", below)
    assert code == 0
    assert json.loads(out)["fm_number"] == "64"


def test_table_top_levels_below_two_to_the_64_within_budget(capsys, time_budget):
    with time_budget(5.0):
        code, out, _ = run_cli(capsys, "table", "--d-min", str(2**64 - 200),
                               "--d-max", str(2**64 - 1))
    assert code == 0
    assert out.splitlines()[-1] == "18446744073709551615,7,128,64,64"


def test_classify_accepts_any_level(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, out, _ = run_cli(capsys, "classify", "--d", str(2**80), str(path))
    assert code == 0
    assert json.loads(out)["s"] == "1"


def test_classify_identity(tmp_path, capsys, monkeypatch):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, out, _ = run_cli(capsys, "classify", "--d", "6", str(path))
    assert code == 0
    record = json.loads(out)
    assert record == {
        "s": "1", "fricke": True, "discriminant_unit": "1", "orientation": True,
    }


def test_classify_round_trip(tmp_path, capsys):
    g = represent(base_element(6, 2))
    path = tmp_path / "w2.json"
    path.write_text(json.dumps([[str(x) for x in row] for row in g.m]))
    code, out, _ = run_cli(capsys, "classify", "--d", "6", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["s"] == "2"
    assert record["fricke"] is False
    assert record["discriminant_unit"] == "7"


def test_classify_accepts_element_objects(tmp_path, capsys):
    path = tmp_path / "el.json"
    path.write_text(json.dumps(al_to_json(base_element(30, 5))))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert json.loads(out)["s"] == "5"


def test_classify_non_isometry_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, _, err = run_cli(capsys, "classify", "--d", "6", str(path))
    assert code == 3
    assert "not classifiable" in err


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 1, 1]],  # only <u, v> = 0 fails
    [[1, 0, 0], [0, 1, 0], [6, 0, 1]],  # only <u, u> = 0 fails
])
def test_classify_names_the_gram_form_for_one_broken_pairing(tmp_path, capsys, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "classify", "--d", "6", str(path))
    assert (code, out) == (3, "")
    assert "matrix does not preserve the Gram form" in err


def test_classify_parse_error_exits_4(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "classify", "--d", "6", str(path))
    assert code == 4
    path.write_text(json.dumps({"d": "6", "s": "2"}))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 4
    # floats are refused, also when they hold an integral value
    for entry in (1.0, 0.5):
        path.write_text(json.dumps([[entry, 0, 0], [0, 1, 0], [0, 0, 1]]))
        code, out, err = run_cli(capsys, "classify", "--d", "6", str(path))
        assert (code, out) == (4, "")
        assert "malformed input" in err


def test_classify_unreadable_input_exits_4(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "classify", "--d", "6", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("error: cannot read input: ")
    # an integer JSON cannot convert is rejected like any other bad input
    path.write_text("[[" + "1" * 5000 + ", 0, 0], [0, 1, 0], [0, 0, 1]]")
    code, out, err = run_cli(capsys, "classify", "--d", "6", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("error: input is not JSON: ")
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "classify", "--d", "6"],
        input=b"\xff\xfe", capture_output=True,
    )
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr


def test_classify_json_nested_past_the_recursion_limit_exits_4(tmp_path, capsys):
    """Nesting deeper than the parser can recurse is a parse error, not a
    traceback: on stdin and in a file, inside an element's field."""
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "classify", "--d", "6"],
        input=("[" * 100_000).encode(), capture_output=True,
    )
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(b"error: input is not JSON: ")
    path = tmp_path / "deep.json"
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text(f'{{"d": {deep}, "s": "2", "abce": ["2", "1", "1", "1"]}}')
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (4, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: input is not JSON: ")


def test_classify_requires_level_for_matrices(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "--d" in err
    for d in ("0", "-3"):
        code, _, err = run_cli(capsys, "classify", "--d", d, str(path))
        assert code == 2
        assert "must be positive" in err


def test_verify_deterministic_and_green(capsys):
    args = ["verify", "--d-min", "1", "--d-max", "12", "--samples", "15", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["total_failures"] == 0
    assert report["levels"][5]["census"] == {
        "fm_number": "2", "coset_count": "2", "formula": "2", "ok": True,
    }


def test_verify_seed_changes_report(capsys):
    base = ["verify", "--d-min", "6", "--d-max", "6", "--samples", "5"]
    _, out1, _ = run_cli(capsys, *base, "--seed", "1")
    _, out2, _ = run_cli(capsys, *base, "--seed", "2")
    assert out1 != out2


def test_verify_absurd_tolerance_fails(capsys, monkeypatch):
    monkeypatch.setattr("k3fm.verify._TOLERANCE", 1e-300)
    code, out, _ = run_cli(
        capsys, "verify", "--d-min", "1", "--d-max", "6", "--samples", "5",
        "--seed", "7",
    )
    assert code == 1
    assert json.loads(out)["total_failures"] > 0


@pytest.mark.parametrize("d, samples", [(9699690, 2), (18446744073709551557, 1)])
def test_verify_certifies_levels_whose_float_charge_product_cancels(capsys, d, samples):
    # The expanded charge product reads 0.19 at 9699690 and exactly 1.0 at
    # this prime, against the fixed 1e-9; the charge verdict is exact instead.
    code, out, _ = run_cli(capsys, "verify", "--d-min", str(d), "--d-max", str(d),
                           "--samples", str(samples))
    assert code == 0
    analytic = json.loads(out)["levels"][0]["analytic"]
    assert analytic["ok"] is True
    assert analytic["max_charge_defect"] > 1e-9  # still reported, as the float picture


def _shifted(t, **by):
    """A copy of the transform t with each named field moved by the amount
    given, as a transform whose twists disagree with its image."""
    out = copy.copy(t)
    for name, amount in by.items():
        object.__setattr__(out, name, getattr(t, name) + amount)
    return out


def test_charge_identity_holds_on_every_transform():
    for d in [*range(1, 201), 2310, 510510, 9699690, 614889782588491410]:
        for r in exact_divisor_values(d):
            assert _charge_identity_holds(induced_transform(d, r)), (d, r)


def test_charge_identity_refuses_shifted_twists():
    for d in (1, 6, 30, 2310, 9699690):
        for r in exact_divisor_values(d):
            t = induced_transform(d, r)
            assert not _charge_identity_holds(_shifted(t, n_src=1)), (d, r)
            assert not _charge_identity_holds(_shifted(t, n_tgt=t.rank)), (d, r)


def test_verify_charge_verdict_refuses_a_shifted_twist(monkeypatch):
    # A tolerance no float defect reaches leaves the exact verdict to decide.
    monkeypatch.setattr("k3fm.verify._TOLERANCE", 1e300)
    monkeypatch.setattr("k3fm.verify.induced_transform",
                        lambda d, r: _shifted(induced_transform(d, r), n_src=1))
    report, code = run_verify(VerifyConfig(1, 6, 2))
    assert code == 1
    assert [level["analytic"]["ok"] for level in report["levels"]] == [False] * 6


def _image_b_off(t):
    """A copy of the transform t whose image has b one off, built unchecked
    as `induced_transform` builds its images: with c = 1 and d/s = r, its
    a*e*s - b*c*(d/s) is 1 - r, not 1."""
    w = t.image
    out = copy.copy(t)
    object.__setattr__(out, "image", ALElement.proved(w.d, w.s, w.a, w.b + 1, w.c, w.e))
    return out


def test_charge_identity_refuses_an_image_with_b_off():
    # b enters only the conjunct rank*b - n_tgt*e*s == -c, the one runtime
    # check of the unchecked image's b.
    for d in (6, 30, 510510):
        for r in exact_divisor_values(d):
            assert not _charge_identity_holds(_image_b_off(induced_transform(d, r))), (d, r)


def test_verify_reports_an_image_that_does_not_descend(capsys, monkeypatch):
    # The image of the r = 2 transform at d = 6 has determinant -1, so its
    # lift descends to no coset: that transform fails, and so does the exact
    # charge verdict.
    def off_at_6_2(d, r):
        t = induced_transform(d, r)
        return _image_b_off(t) if (d, r) == (6, 2) else t

    monkeypatch.setattr("k3fm.verify.induced_transform", off_at_6_2)
    report, code = run_verify(VerifyConfig(1, 6, 1))
    assert code == 1
    level = report["levels"][5]
    assert [t["ok"] for t in level["transforms"]] == [True, False, True, True]
    assert level["transforms"][1] == {"r": "2", "twist": "1", "level": None,
                                      "expected_level": "3", "ok": False}
    assert level["analytic"]["ok"] is False
    assert [lv["failures"] for lv in report["levels"]] == [0, 0, 0, 0, 0, 2]
    assert report["total_failures"] == 2
    code, out, err = run_cli(capsys, "verify", "--d-max", "6", "--samples", "1")
    assert (code, err) == (1, "")
    assert json.loads(out) == report


def test_verify_reports_each_correspondence_failure(capsys, monkeypatch):
    seen = []

    def fail_round_trip(w):
        seen.append(al_to_json(w))
        return ("round_trip",)

    monkeypatch.setattr("k3fm.corr.check_sample", fail_round_trip)
    report, code = run_verify(VerifyConfig(d_min=1, d_max=2, samples_per_coset=3))
    assert code == 1
    sampled = [level["correspondence"]["failures"] for level in report["levels"]]
    assert [len(failures) for failures in sampled] == [3, 6]  # 3 per coset
    assert json.loads(json.dumps(sampled)) == [
        [{"element": element, "check": "round_trip"} for element in seen[:3]],
        [{"element": element, "check": "round_trip"} for element in seen[3:]],
    ]
    assert [level["failures"] for level in report["levels"]] == [3, 6]
    assert report["total_failures"] == 9
    code, out, _ = run_cli(capsys, "verify", "--d-min", "1", "--d-max", "2",
                           "--samples", "3", "--format", "csv")
    assert code == 1
    assert [row for row in out.splitlines() if ",correspondence," in row] == [
        "1,correspondence,false,failures=3", "2,correspondence,false,failures=6"]


# Spellings `int` takes that the wire's `-?[0-9]+` refuses: an Arabic-Indic
# and a full-width digit, an underscore, surrounding space, a plus sign.
LOOSE_INTS = ["\u0666", "\uff16", "1_0", " 6", "6 ", "+6"]


@pytest.mark.parametrize("text", LOOSE_INTS)
@pytest.mark.parametrize("command, option", [
    ("partners", "--d"), ("classify", "--d"), ("table", "--d-min"),
    ("table", "--d-max"), ("verify", "--d-min"), ("verify", "--d-max"),
    ("verify", "--samples"), ("verify", "--seed"),
])
def test_integer_options_take_only_the_wire_grammar(command, option, text, capsys):
    code, out, err = run_cli(capsys, command, option, text)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: invalid int value: {text!r}\n")


def test_verify_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--d-min", "9", "--d-max", "2")
    assert code == 2
    assert "invalid range" in err
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert (code, err) == (2, "error: samples per coset must be at least 1\n")


@pytest.mark.parametrize("tol", ["1e-9", "1e-300", "nan", "0"])
def test_verify_has_no_tolerance_option(tol, capsys):
    # The float defects are judged against one fixed bound, criterion 5's.
    code, out, err = run_cli(capsys, "verify", "--d-max", "1", "--tol", tol)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --tol " + tol + "\n")


def test_verify_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d-min", "1", "--d-max", "2",
                           "--samples", "3", "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "total failures: 0"
    code, out, _ = run_cli(capsys, "verify", "--d-min", "1", "--d-max", "2",
                           "--samples", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "d,check,ok,detail"


def test_run_verify_api():
    report, code = run_verify(VerifyConfig(d_min=1, d_max=4, samples_per_coset=5, seed=11))
    assert code == 0
    assert report["total_failures"] == 0


@pytest.mark.parametrize("kwargs", [
    {"samples_per_coset": 0}, {"d_min": 3, "d_max": 1}, {"d_min": 0},
    # wrong field types: a bool, float or str is refused, not echoed back
    {"d_min": True, "d_max": 2, "samples_per_coset": 1}, {"d_max": 2.0},
    {"d_min": 1.5}, {"samples_per_coset": 2.5}, {"samples_per_coset": True},
    {"seed": 1.5}, {"seed": "x"}, {"seed": True},
    # random.Random(-5) seeds as random.Random(5)
    {"seed": -5},
])
def test_verify_config_refuses_configs_that_check_nothing(kwargs):
    with pytest.raises(ValueError):
        VerifyConfig(**kwargs)


# (d_min, d_max, samples), each over the bound on samples x sum of
# 2**omega(d): 10**9 levels; 100000 samples at d = 1; 4 x 2**15 at the 15th
# primorial, the one level of omega 15 below 2**64; the 2**16 levels just
# below 2**64, refused by their two cosets each before any is factorized.
OVERSIZED = [(1, 10**9, 1), (1, 1, 100000), (614889782588491410, 614889782588491410, 4),
             (2**64 - 2**16, 2**64 - 1, 1)]


@pytest.mark.parametrize("d_min, d_max, samples", OVERSIZED)
def test_verify_refuses_oversized_runs_before_any_work(d_min, d_max, samples, capsys,
                                                       time_budget):
    with time_budget(2):
        code, out, err = run_cli(capsys, "verify", "--d-min", str(d_min),
                                 "--d-max", str(d_max), "--samples", str(samples))
    assert (code, out) == (2, "")
    assert err.startswith("error: verify samples at most ") and err.count("\n") == 1
    with time_budget(2), pytest.raises(ValueError):
        VerifyConfig(d_min, d_max, samples)


# (d_min, d_max, samples, samples x sum of 2**omega(d)) at the size bound's
# edge, where only the walk decides: 2..10239 samples exactly the bound, and
# one level more, or d = 1's single coset in front, takes it over.
AT_THE_BOUND = [(2, 10239, 1, 65536), (2, 10240, 1, 65540), (1, 10239, 1, 65537),
                (100, 5500, 2, 65536), (100, 5501, 2, 65540)]


@pytest.mark.parametrize("d_min, d_max, samples, total", AT_THE_BOUND)
def test_verify_size_bound_at_its_edge(d_min, d_max, samples, total):
    assert samples * sum(1 << level.omega
                         for level in factorize_window(d_min, d_max)) == total
    if total <= MAX_SAMPLED_ELEMENTS:
        VerifyConfig(d_min, d_max, samples)
        return
    with pytest.raises(ValueError, match="got at least") as refused:
        VerifyConfig(d_min, d_max, samples)
    # the refusal's count is a true lower bound of the sum, over the bound
    assert MAX_SAMPLED_ELEMENTS < int(str(refused.value).split()[-1]) <= total


def test_verify_refuses_at_the_first_level_over_the_bound(monkeypatch):
    """The 2**15 levels below 2**64 count 2**16 at two cosets each, and the
    first level's cosets beyond two take the count over the bound, so the
    size walk reads at most that level before it refuses."""
    read = []

    def counting(d_min, d_max):
        for level in factorize_window(d_min, d_max):
            read.append(level.n)
            yield level

    monkeypatch.setattr("k3fm.verify.factorize_window", counting)
    with pytest.raises(ValueError, match="got at least"):
        VerifyConfig(2**64 - 2**15, 2**64 - 1, 1)
    assert len(read) <= 1


def test_verify_defaults_come_from_verify_config():
    args = cli._build_parser().parse_args(["verify"])
    config = VerifyConfig()
    assert [field.name for field in dataclasses.fields(config)] == [
        "d_min", "d_max", "samples_per_coset", "seed"]
    assert (args.d_min, args.d_max, args.samples, args.seed) == (
        config.d_min, config.d_max, config.samples_per_coset, config.seed)


def _wrap_everywhere(monkeypatch, original, wrapper):
    """Replace `original` with `wrapper` in every `k3fm` module that holds
    it, as `bench/tracer.py` does, without importing `bench/`."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "k3fm" or name.startswith("k3fm.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_verify_keeps_the_benchmark_tracer_contract(capsys, monkeypatch):
    """Wrap `run_verify` and `verify_correspondence` wherever a `k3fm`
    module holds them, as the benchmark tracer does: each level's
    correspondence stage must run inside the one `run_verify` call."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append("end " + fn.__name__)
        return wrapper

    for original in (run_verify, verify_correspondence):
        _wrap_everywhere(monkeypatch, original, counting(original))
    assert run_cli(capsys, "verify", "--d-max", "3", "--samples", "1")[0] == 0
    assert calls == ["run_verify",
                     *["verify_correspondence", "end verify_correspondence"] * 3,
                     "end run_verify"]


def test_verify_evaluates_each_image_once_in_the_tracer_view(capsys, monkeypatch):
    """Wrap `mobius` and `charge_product_defect` wherever a `k3fm` module
    holds them, as the benchmark tracer does.  At d = 1, 2, 3 there are 5
    transforms and 5 sampled coset elements with one point each: one
    charge check per transform point, and one `mobius` per analytic point
    (the action defect's and the equivariance defect's)."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for original in (mobius, charge_product_defect):
        _wrap_everywhere(monkeypatch, original, counting(original))
    assert run_cli(capsys, "verify", "--d-max", "3", "--samples", "1")[0] == 0
    assert calls.count("charge_product_defect") == 5
    assert calls.count("mobius") == 10


def test_verify_makes_no_one_level_factorization(capsys, monkeypatch):
    """The size walk and the run each take their levels from one window
    over d_min..d_max; no level is factorized again on its own."""
    widths = []

    def counting(d_min, d_max):
        widths.append(d_max - d_min + 1)
        return factorize_window(d_min, d_max)

    _wrap_everywhere(monkeypatch, factorize_window, counting)
    assert run_cli(capsys, "verify", "--d-max", "60", "--samples", "1")[0] == 0
    assert widths == [60, 60]


def test_verify_json_renders_no_csv_or_text(capsys, monkeypatch):
    args = ("verify", "--d-max", "12", "--samples", "2")
    want = run_cli(capsys, *args)

    def refuse(report):  # a generator, as the renderers are: raises once read
        raise AssertionError("render called")
        yield

    monkeypatch.setattr("k3fm.cli._verify_rows", refuse)
    monkeypatch.setattr("k3fm.cli._verify_text", refuse)
    assert run_cli(capsys, *args, "--format", "json") == want
    for fmt in ("csv", "text"):
        with pytest.raises(AssertionError, match="render called"):
            run_cli(capsys, *args, "--format", fmt)
    monkeypatch.undo()
    for fmt in ("csv", "text"):
        code, out, _ = run_cli(capsys, *args, "--format", fmt)
        assert code == 0 and out.count("\n") > 12


def test_verify_refuses_a_negative_seed_before_any_work(capsys, monkeypatch):
    # random.Random(-5) seeds as random.Random(5), so -5 would silently
    # stand for 5 while the report's config says -5.
    def refuse(config):
        raise AssertionError("run_verify called")

    monkeypatch.setattr("k3fm.cli.run_verify", refuse)
    code, out, err = run_cli(capsys, "verify", "--d-max", "6", "--samples", "2",
                             "--seed", "-5", "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: seed must be non-negative, got -5\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("d_max, first", [(20000, b"{\n"), (3, b"")], ids=["large", "small"])
def test_closed_stdout_exits_141_without_a_traceback(d_max, first, unbuffered):
    # The reader keeps the first line of a report of several megabytes, as
    # `| head -1` does, or reads none of a small one, as `| true` does, and
    # closes the pipe; a shell reports 141 for `cat` in the same spot.  A
    # small report reaches a buffered stdout's pipe only when it is flushed.
    argv = [sys.executable, "-m", "k3fm", "table", "--d-max", str(d_max), "--format", "json"]
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        got = proc.stdout.readline() if first else b""
        proc.stdout.close()
        err = proc.stderr.read()
    assert (got, proc.returncode, err) == (first, 141, b"")


@pytest.mark.parametrize("argv, unbuffered", [
    (["--help"], ""), (["table", "--help"], ""),
    (["--help"], "1"), (["table", "--help"], "1"),
], ids=["main", "table", "main-unbuffered", "table-unbuffered"])
def test_help_into_a_closed_pipe_exits_141(argv, unbuffered):
    # The read end is closed before the child starts, so every write to the
    # pipe fails; a buffered stdout holds the help until main flushes it,
    # and an unbuffered one fails inside argparse's own write.
    r, w = os.pipe()
    os.close(r)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "k3fm", *argv], stdout=w,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, code, err", [
    (["table", "--d-max", "3"], 141, b""),
    (["verify", "--d-max", "2"], 141, b""),
    (["table", "--d-min", "5", "--d-max", "2"], 2, b"error: invalid range [5, 2]\n"),
    (["--help"], 0, cli._build_parser().format_help().encode()),
], ids=["table", "verify", "usage", "help"])
def test_closed_fd_1_exits_141_without_a_traceback(argv, code, err):
    # With fd 1 closed at start-up, sys.stdout is None; a usage error still
    # reports on stderr with its own code, and argparse writes help there.
    proc = subprocess.run([sys.executable, "-m", "k3fm", *argv], stderr=subprocess.PIPE,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (code, err)


def test_closed_fd_0_is_a_read_error():
    # With fd 0 closed at start-up, sys.stdin is None: classify reports that
    # it cannot read its input, as it does for a missing file.
    proc = subprocess.run([sys.executable, "-m", "k3fm", "classify", "--d", "6"],
                          capture_output=True, preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == b"error: cannot read input: stdin is closed\n"


@pytest.mark.parametrize("argv, code", [
    (["table", "--d-min", "0"], 2),
    (["partners", "--d", "0"], 2),
    (["classify", "--d", "6"], 3),
], ids=["table", "partners", "classify"])
def test_closed_fd_2_keeps_the_exit_code(argv, code):
    # With fd 2 closed at start-up, the error line has nowhere to go; the
    # documented code still reports, and nothing reaches stdout instead.
    proc = subprocess.run([sys.executable, "-m", "k3fm", *argv], capture_output=True,
                          input=b'[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]',
                          preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_no_stderr_keeps_the_error_off_stdout(capsys, monkeypatch):
    # print(file=None) would write to stdout; the error line is dropped.
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["table", "--d-min", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,0,1,1,1"
