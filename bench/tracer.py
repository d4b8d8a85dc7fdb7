"""Spans around k3fm's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function in every `k3fm.*` module
that holds it (and `ALElement.__post_init__` on the class) with a wrapper
that records one span per call: name, start, end, parent span and request
id.  Spans stay in flat in-memory arrays until `write_spans`.  `uninstall`
puts every original back.  Self time is a span's duration minus the
durations of its direct children (calls are strictly nested: one thread).
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

from k3fm.modgroup import ALElement
from workloads import exact_divisors, prime_powers

# (layer, function) pairs; "ALElement" stands for ALElement.__post_init__.
TRACED = (
    ("arith", "factorize"),
    ("arith", "exact_divisor_values"),
    ("modgroup", "ALElement"),
    ("modgroup", "al_mul"),
    ("modgroup", "random_gamma0"),
    ("modgroup", "random_al"),
    ("modgroup", "fricke_coset_count"),
    ("modgroup", "al_from_json"),
    ("lattice", "is_isometry"),
    ("lattice", "is_orientation_preserving"),
    ("lattice", "discriminant_unit"),
    ("lattice", "isometry_from_json"),
    ("corr", "represent"),
    ("corr", "descend"),
    ("corr", "check_sample"),
    ("corr", "verify_correspondence"),
    ("fmcalc", "partner_census"),
    ("fmcalc", "induced_transform"),
    ("halfplane", "mobius"),
    ("halfplane", "induced_action"),
    ("halfplane", "equivariance_defect"),
    ("halfplane", "charge_product_defect"),
    ("cli", "main"),
    ("cli", "run_verify"),
)

_RAISED = object()


def _k3fm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "k3fm" or name.startswith("k3fm."))]


def find_wrappers() -> list[str]:
    """Names in k3fm that still hold a tracer wrapper; empty after uninstall."""
    found = [f"{m.__name__}.{attr}" for m in _k3fm_modules()
             for attr, value in vars(m).items() if hasattr(value, "__k3fm_span__")]
    if hasattr(ALElement.__post_init__, "__k3fm_span__"):
        found.append("ALElement.__post_init__")
    return found


class Tracer:
    def __init__(self, tolerance: float) -> None:
        self.names = [f"{layer}.{fn}" for layer, fn in TRACED]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.tolerance = tolerance
        self.request_id = -1
        self.name = array("h")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = [0] * len(self.names)
        self.descends: list[tuple[int, int]] = []  # (d, level found or 0)
        self.check_failed = 0
        self.over_tol = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _observer(self, key: str):
        if key == "corr.descend":
            return lambda args, out: self.descends.append(
                (args[0].d, 0 if out is _RAISED else out.s))
        if key == "corr.check_sample":
            def seen(args, out):
                self.check_failed += out is not _RAISED and bool(out)
            return seen
        if key == "halfplane.charge_product_defect":
            def seen(args, out):
                self.over_tol += out is not _RAISED and out > self.tolerance
            return seen
        return None

    def _wrap(self, idx: int, fn, observe):
        name, parent, request = self.name, self.parent, self.request
        start, end, raised, stack = self.start, self.end, self.raised, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1])
            request.append(tracer.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            out = _RAISED
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException:
                raised[idx] += 1
                raise
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
                if observe is not None:
                    observe(args, out)

        wrapper.__k3fm_span__ = True
        return wrapper

    def install(self) -> None:
        modules = _k3fm_modules()
        for idx, (layer, fn) in enumerate(TRACED):
            key = self.names[idx]
            observe = self._observer(key)
            if fn == "ALElement":
                original = ALElement.__post_init__
                self._patch(ALElement, "__post_init__", original,
                            self._wrap(idx, original, observe))
                continue
            original = getattr(sys.modules[f"k3fm.{layer}"], fn)
            wrapper = self._wrap(idx, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- metrics

    def metrics(self, items: int, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        self_time = [0.0] * k
        for i in range(n):
            j = self.name[i]
            dur = self.end[i] - self.start[i]
            calls[j] += 1
            total[j] += dur
            self_time[j] += dur - child[i]

        def get(key, stat):
            j = self.index[key]
            if stat == "calls":
                return calls[j], "count"
            if stat == "self_us":
                return (self_time[j] / calls[j] * 1e6 if calls[j] else 0.0), "us/call"
            if stat == "raised":
                return self.raised[j], "count"
            raise KeyError(stat)

        out: dict[str, tuple[float, str]] = {}
        for key, stats in (
            ("arith.factorize", ("calls", "self_us")),
            ("arith.exact_divisor_values", ("calls", "self_us")),
            ("modgroup.ALElement", ("calls", "self_us")),
            ("modgroup.al_mul", ("calls", "self_us")),
            ("modgroup.random_gamma0", ("self_us",)),
            ("modgroup.random_al", ("self_us",)),
            ("modgroup.fricke_coset_count", ("self_us",)),
            ("modgroup.al_from_json", ("self_us",)),
            ("lattice.is_isometry", ("calls", "self_us")),
            ("lattice.is_orientation_preserving", ("self_us",)),
            ("lattice.discriminant_unit", ("self_us", "raised")),
            ("lattice.isometry_from_json", ("self_us",)),
            ("corr.represent", ("self_us",)),
            ("corr.descend", ("calls", "self_us", "raised")),
            ("corr.check_sample", ("self_us",)),
            ("fmcalc.partner_census", ("calls", "self_us")),
            ("fmcalc.induced_transform", ("self_us",)),
            ("halfplane.mobius", ("self_us",)),
            ("halfplane.induced_action", ("self_us",)),
            ("halfplane.equivariance_defect", ("self_us",)),
            ("halfplane.charge_product_defect", ("self_us",)),
        ):
            for stat in stats:
                out[f"{key}.{stat}"] = get(key, stat)

        fz = self.index["arith.factorize"]
        out["arith.factorize.per_item"] = (calls[fz] / items if items else 0.0, "calls/item")
        divisors: dict[int, list[int]] = {}
        candidates = 0
        for d, s in self.descends:
            # Levels `descend` tries, scanning exact divisors in ascending
            # order: up to the one found, or all 2^omega when it finds none.
            if d not in divisors:
                divisors[d] = exact_divisors(prime_powers(d))
            candidates += divisors[d].index(s) + 1 if s else len(divisors[d])
        out["corr.descend.hit_ratio"] = (
            len(self.descends) / candidates if candidates else 0.0, "ratio")
        out["corr.check_sample.failed"] = (self.check_failed, "count")
        out["corr.verify_correspondence.total_s"] = (
            total[self.index["corr.verify_correspondence"]], "s")
        out["halfplane.charge_product_defect.over_tol"] = (self.over_tol, "count")
        out["cli.self_s"] = (self_time[self.index["cli.main"]]
                             + self_time[self.index["cli.run_verify"]], "s")
        corr_s, analytic_s = self._verify_stages()
        out["cli.verify.correspondence_s"] = (corr_s, "s")
        out["cli.verify.analytic_s"] = (analytic_s, "s")
        out["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
        return out

    def _verify_stages(self) -> tuple[float, float]:
        """Correspondence and analytic stage times inside `run_verify`.

        A level starts with its `verify_correspondence` child span; its
        analytic stage runs from the end of the level's last direct
        `descend` child (the transforms stage classifies each transform's
        image) to the end of the level's last child span."""
        rv = self.index["cli.run_verify"]
        vc = self.index["corr.verify_correspondence"]
        ds = self.index["corr.descend"]
        corr = analytic = 0.0
        level: dict[int, list] = {}  # run_verify span -> [last descend end, last child end]
        for i in range(len(self.name)):
            p = self.parent[i]
            if p < 0 or self.name[p] != rv:
                continue
            j = self.name[i]
            if j == vc:
                corr += self.end[i] - self.start[i]
                analytic += _analytic(level.get(p))
                level[p] = [None, self.end[i]]
            elif p in level:
                if j == ds:
                    level[p][0] = self.end[i]
                level[p][1] = self.end[i]
        return corr, analytic + sum(_analytic(v) for v in level.values())

    # -------------------------------------------------------------- output

    def write_spans(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                         f"{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.3f}\t"
                         f"{(self.end[i] - t0) * 1e6:.3f}\n")


def _analytic(state) -> float:
    if state is None or state[0] is None:
        return 0.0
    return state[1] - state[0]
