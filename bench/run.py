"""The k3fm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a k3fm source tree; the package is imported from
./src.  Workloads: verify-sweep, verify-primorial, census-table, queries
(see bench/NOTES.md for why each exists and what an item is).

--trace 0 measures the end-to-end metrics: a closed loop of requests into
`k3fm.cli.main` for S seconds of timed calls, with outputs checked between
calls, outside the timed region.  Set-up time is measured in separate fresh
interpreters.  --trace 1 runs a fixed, seed-determined prefix of the same
request stream twice, untraced and then traced, and reports the per-layer
metrics.  The last line of stdout is the JSON result; the lines before it
are for people, and a copy of the full result goes to bench/out/.

Every reported time is scaled to a host of nominal speed (see Clock): the
speed of the shared hosts this runs on drifts by tens of percent within
seconds, and a fixed reference kernel timed between requests on the same
CPU tracks that drift.  Raw times are kept in bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 7
# Reference-kernel time that defines nominal host speed (about the kernel's
# typical time on the 2-vCPU x86 host the bounds were measured on).
# Changing it, or the kernel, rescales every reported time.
NOMINAL_REF_S = 0.0025
SEGMENT_S = 0.05
WORKLOADS = ("verify-sweep", "verify-primorial", "census-table", "queries")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_cli():
    """Import k3fm and its CLI from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "k3fm" / "__init__.py").is_file():
        raise SystemExit(f"error: no k3fm source tree at {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import k3fm.cli

    if Path(k3fm.__file__).resolve().parent != (src / "k3fm").resolve():
        raise SystemExit(f"error: imported k3fm from {k3fm.__file__}, not from {src}")
    return k3fm.cli


def _stream(workload, seed: int, seconds: float):
    """The workload's chunk stream, its first chunks generated eagerly (they
    are part of set-up); later chunks, if a run needs them, come lazily."""
    chunks = workload.chunks(random.Random(seed))
    pool = list(itertools.islice(chunks, max(1, int(workload.pool_per_second * seconds))))
    return itertools.chain(pool, chunks)


@dataclass(frozen=True)
class _Pair:
    d: int
    a: int

    def __post_init__(self) -> None:
        if not isinstance(self.a, int) or self.d % 7:
            raise ValueError("bad pair")
        if self.a < 0:
            object.__setattr__(self, "a", -self.a)


def _kernel() -> int:
    """Fixed pure-Python work of the kinds k3fm does: small-integer
    arithmetic and a dict in a tight loop, then validated frozen
    dataclasses, 3x3 tuple products by generator expressions, gcd, isqrt
    and str conversions."""
    acc = 0
    seen = {}
    for i in range(1500):
        a = (i * 7919) % 1009
        b = divmod(a * a + i, 97)
        seen[a] = b
        acc += len(seen) + b[0] - b[1]
        acc ^= hash((a, b, acc)) & 0xFF
    for i in range(1, 75):
        p = _Pair(30030, -i)
        m = ((p.a, i * i, 1), (i % 7, math.gcd(i, 2310), 2), (1, 0, i % 5))
        m = tuple(tuple(sum(m[r][k] * m[k][c] for k in range(3)) for c in range(3))
                  for r in range(3))
        acc += m[1][1] % 1009 + math.isqrt(i * 1000) + len(str(m[0][0]))
    return acc


def reference() -> float:
    """Mean of three timings of `_kernel`: the yardstick for host speed."""
    t0 = time.perf_counter()
    for _ in range(3):
        _kernel()
    return (time.perf_counter() - t0) / 3


class Clock:
    """Measured call times and their values scaled to nominal host speed.

    The reference kernel runs before the first call and again after every
    segment of at least SEGMENT_S of measured calls (and on `flush`); each
    call in a segment is scaled by NOMINAL_REF_S over the mean of the
    reference timings at the segment's two ends."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._ref = reference()
        self._open = 0.0

    def add(self, dt: float) -> None:
        self.raw.append(dt)
        self._open += dt
        if self._open >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if len(self.scaled) == len(self.raw):
            return
        ref = reference()
        factor = NOMINAL_REF_S / ((self._ref + ref) / 2)
        self.scaled += [dt * factor for dt in self.raw[len(self.scaled):]]
        self._ref = ref
        self._open = 0.0


def _call(cli, req):
    """One closed-loop request; returns (exit code, stdout, seconds).  Only
    the call itself is timed."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), out, io.StringIO()
    try:
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req.argv))
        except Exception:
            code = "traceback: " + traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), dt


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.items = 0
        self.problems: list[str] = []

    def add(self, req, outcome):
        self.items += req.items
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems


def _final_checks(cli, workloads, workload, first, tally):
    """Untimed checks after the measured calls: the first request gives the
    same bytes again, and the default verify report has the known digest."""
    req, out = first
    if _call(cli, req)[1] != out:
        tally.problems.append(f"{' '.join(req.argv)}: output differs between two runs")
    if workload.verify_default:
        code, out, _ = _call(cli, workloads.Request(("verify",), "", 0, None))
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or digest != workloads.DEFAULT_VERIFY_SHA256:
            tally.problems.append(f"default verify: exit {code}, sha256 {digest}")


def _setup_seconds(args) -> float:
    """Median over fresh interpreters (on this process's CPU) of the time
    from process start until k3fm is imported and the workload's inputs
    exist."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    clock = Clock()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
        clock.add(dt)
        clock.flush()
    return statistics.median(clock.scaled)


def _tail(latencies):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(args, cli, workloads):
    workload = workloads.make(args.workload)
    setup_s = _setup_seconds(args)
    stream = _stream(workload, args.seed, args.seconds)
    tally = Tally()
    clock = Clock()
    rates = []
    first = None
    for chunk in stream:
        start = len(clock.raw)
        for req in chunk:
            code, out, dt = _call(cli, req)
            clock.add(dt)
            first = first or (req, out)
            tally.add(req, workload.check(req, code, out))
        clock.flush()
        rates.append(sum(r.items for r in chunk) / sum(clock.scaled[start:]))
        if sum(clock.raw) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    _final_checks(cli, workloads, workload, first, tally)
    tail, pct = _tail(clock.scaled)
    metrics = {
        "items_per_s": (statistics.median(rates), "items/s"),
        "item_p50_us": (statistics.median(clock.scaled) * 1e6, "us"),
        "item_tail_us": (tail * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "fail_ratio": tally.failed / tally.attempted,
        "item_tail_percentile": pct,
        "requests": len(clock.raw),
        "chunks": len(rates),
        "items": tally.items,
        "timed_s_raw": sum(clock.raw),
        "timed_s_scaled": sum(clock.scaled),
        "item_p50_us_raw": statistics.median(clock.raw) * 1e6,
        "items_per_s_raw": tally.items / sum(clock.raw),
    }
    return tally, metrics, notes


def trace(args, cli, workloads):
    import tracer as tracing

    workload = workloads.make(args.workload)
    stream = _stream(workload, args.seed, args.seconds)
    n_chunks = max(1, round(workload.trace_per_second * args.seconds))
    requests = [req for chunk in itertools.islice(stream, n_chunks) for req in chunk]

    untraced, traced = [], []
    plain_clock, traced_clock = Clock(), Clock()
    for req in requests:
        untraced.append(_call(cli, req))
        plain_clock.add(untraced[-1][2])
    plain_clock.flush()
    tr = tracing.Tracer(workloads.VERIFY_TOLERANCE)
    tr.install()
    try:
        for i, req in enumerate(requests):
            tr.request_id = i
            traced.append(_call(cli, req))
            traced_clock.add(traced[-1][2])
        traced_clock.flush()
    finally:
        tr.uninstall()

    tally = Tally()
    left = tracing.find_wrappers()
    if left:
        tally.problems.append(f"tracer left wrappers in place: {left}")
    for req, (code, out, _), (_, plain, _) in zip(requests, traced, untraced):
        tally.add(req, workload.check(req, code, out))
        if out != plain:
            tally.problems.append(f"{' '.join(req.argv)}: output changes under tracing")
    _final_checks(cli, workloads, workload, (requests[0], untraced[0][1]), tally)

    untraced_s = sum(plain_clock.scaled)
    traced_s = sum(traced_clock.scaled)
    metrics = tr.metrics(tally.items, untraced_s, traced_s)
    spans = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    spans.parent.mkdir(exist_ok=True)
    tr.write_spans(spans)
    notes = {
        "fail_ratio": tally.failed / tally.attempted,
        "requests": len(requests),
        "items": tally.items,
        "spans": len(tr.name),
        "spans_file": os.path.relpath(spans, ROOT),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }
    return tally, metrics, notes


def _commit() -> str:
    """HEAD of ./.git if this tree is a git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    cli = _import_cli()
    import workloads

    if args.setup_probe:
        _stream(workloads.make(args.workload), args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }
    # Stay on the current CPU, with the set-up probes, so the reference
    # kernel sees the same core as the calls it scales.
    stat = Path("/proc/self/stat").read_text()
    os.sched_setaffinity(0, {int(stat[stat.rindex(")") + 2:].split()[36])})
    run = trace if args.trace else measure
    tally, metrics, notes = run(args, cli, workloads)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=env, notes=notes, problems=tally.problems[:50])
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'item_tail_us':44s} is p{notes['item_tail_percentile']:.2f} "
              f"of {notes['requests']} requests")
    print(f"{'fail_ratio':44s} {notes['fail_ratio']:14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print("problem: " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
