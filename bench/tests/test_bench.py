"""Tests of the benchmark itself: python3 -m pytest bench/tests -q

They run the benchmark on one-second workloads from the repository root."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "calls/item", "ratio"}


def run_bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names + WORKLOADS:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_counts_repeat(workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    first, second = run_bench(workload, trace=1), run_bench(workload, trace=1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for traced in (first, second):
        assert traced["correct"]
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    # trace.overhead_ratio is a ratio of times, not a count.
    counts = [n for n, u in declared.items() if u in COUNT_UNITS and n != "trace.overhead_ratio"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_tracer_restores_k3fm():
    import k3fm
    import k3fm.cli
    from k3fm.modgroup import ALElement

    import tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n == "k3fm" or n.startswith("k3fm.")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}, ALElement.__post_init__

    before = snapshot()
    tr = tracer.Tracer(1e-9)
    tr.install()
    try:
        assert tracer.find_wrappers()
        assert k3fm.cli.main(["table", "--d-min", "1", "--d-max", "3"]) == 0
        assert k3fm.descend(k3fm.represent(k3fm.base_element(6, 2))).s == 2
    finally:
        tr.uninstall()
    assert tracer.find_wrappers() == []
    after = snapshot()
    assert after[1] is before[1]
    assert after[0].keys() == before[0].keys()
    assert all(after[0][k] is v for k, v in before[0].items())
    metrics = tr.metrics(items=3, untraced_s=1.0, traced_s=1.0)
    assert metrics["arith.factorize.calls"][0] > 0
    assert metrics["corr.descend.calls"][0] == 1
    assert metrics["corr.descend.hit_ratio"][0] == 1 / 2  # W_2 is second of (1, 2, 3, 6)


def test_refuses_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
