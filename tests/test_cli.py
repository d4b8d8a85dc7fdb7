import json
import resource
import subprocess
import sys

from k3fm.arith import factorize
from k3fm.cli import VerifyConfig, main, run_verify
from k3fm.corr import represent
from k3fm.fmcalc import partner_census
from k3fm.lattice import isometry_to_json
from k3fm.modgroup import al_to_json, base_element, fricke_coset_count


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


def test_table_cross_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("k3fm.cli.fricke_coset_count",
                        lambda d: fricke_coset_count(d) + (d == 5))
    code, out, err = run_cli(capsys, "table", "--d-min", "1", "--d-max", "8")
    assert (code, out) == (1, "")
    assert err == "error: partner count and coset index disagree at d=5\n"


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
    assert [lab.moduli for lab in census.labels] == [
        lab["moduli"] for lab in payload["labels"]
    ]
    assert str(census.fm_number) == payload["fm_number"]


def test_partners_rejects_bad_d(capsys):
    code, _, err = run_cli(capsys, "partners", "--d", "0")
    assert code == 2
    assert "must be positive" in err


def test_partners_large_prime_within_budget(capsys, time_budget):
    with time_budget(2.0):
        code, out, _ = run_cli(capsys, "partners", "--d", "1000000000000000003")
    assert code == 0
    assert json.loads(out)["fm_number"] == "1"


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
    path.write_text(json.dumps(isometry_to_json(g)))
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


def test_verify_absurd_tolerance_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--d-min", "1", "--d-max", "6", "--samples", "5",
        "--seed", "7", "--tol", "1e-300",
    )
    assert code == 1
    assert json.loads(out)["total_failures"] > 0


def test_verify_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--d-min", "9", "--d-max", "2")
    assert code == 2
    assert "invalid range" in err
    code, _, err = run_cli(capsys, "verify", "--samples", "0")
    assert code == 2
    for tol in ("nan", "-1", "0", "inf"):
        code, out, err = run_cli(capsys, "verify", "--d-max", "1", "--tol", tol)
        assert (code, out) == (2, "")
        assert "tolerance" in err


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
    assert VerifyConfig(d_min=2, d_max=1).validate() is not None
    assert VerifyConfig(tolerance=float("nan")).validate() is not None


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "k3fm", "table", "--d-min", "1", "--d-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1,0,1,1,1"
