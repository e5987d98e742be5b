"""Per-layer tracing of isoreduce, from outside the package.

Public callables are replaced by timing wrappers through attribute
substitution on their modules and classes; every call inside the package
already goes through one of these attributes. Layer calls become spans
(name, start, end, parent) kept in memory; the far more numerous exactnum
operations are only counted and timed, since a span per arithmetic
operation would cost more memory than the run itself.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# (module attribute path, span name); a span's module is the part before the dot.
LAYER_SPANS = [
    ("isored.reduce", "isored.reduce"),
    ("isored.invert_over_field", "isored.invert"),
    ("hierarchy.sequential_reduce", "hierarchy.sequential_reduce"),
    ("hierarchy.row_degree", "hierarchy.row_degree"),
    ("spectra.verify_spectrum", "spectra.verify"),
    ("spectra.sym_eigenvalues", "spectra.eig"),
    ("netmat.parse_incidence_csv", "netmat.load"),
    ("netmat.load_incidence", "netmat.load"),
    ("netmat.bipartite_adjacency", "netmat.build"),
    ("netmat.project_rows", "netmat.build"),
    ("netmat.project_cols", "netmat.build"),
    ("dynamics.chronological_order", "dynamics.call"),
    ("dynamics.group_attendance", "dynamics.call"),
    ("dynamics.series_stats", "dynamics.call"),
    ("dynamics.classify_activity", "dynamics.call"),
    ("dynamics.level_mean_attendance", "dynamics.call"),
]

# (owner path, attribute, family). A call nested in a call of its own family
# (a subtraction adding the negation) is neither counted nor timed again.
EXACT_OPS = [
    ("exactnum.RatFun", "__add__", "add"),
    ("exactnum.RatFun", "__sub__", "add"),
    ("exactnum.RatFun", "__mul__", "mul"),
    ("exactnum.RatFun", "__truediv__", "div"),
    ("exactnum.RatFun", "__call__", "eval"),
    ("exactnum", "poly_gcd", "gcd"),
    ("netmat.RfMatrix", "__init__", "rfmatrix"),
]

KEEP_RESULTS = {"isored.reduce", "hierarchy.sequential_reduce", "spectra.verify"}

# Self times that partition the traced total cli.main_s.
SELF_PARTS = (
    "cli.self_s", "netmat.load_s", "netmat.build_s", "isored.reduce_self_s", "isored.invert_s",
    "hierarchy.self_s", "spectra.verify_self_s", "spectra.eig_s", "dynamics.total_s",
)


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Spans and operation counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.results: dict[str, list] = defaultdict(list)
        self.op_calls: dict[str, int] = defaultdict(int)
        self.op_seconds: dict[str, float] = defaultdict(float)
        self.gcd_trivial = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn):
        spans, stack, results, clock = self.spans, self._stack, self.results, time.perf_counter
        keep = name in KEEP_RESULTS

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep:
                results[name].append(out)
            return out

        return wrapper

    def op(self, family: str, fn):
        depth, calls, seconds, clock = self._depth, self.op_calls, self.op_seconds, time.perf_counter
        is_gcd = family == "gcd"

        def wrapper(*args, **kwargs):
            if depth[family]:
                return fn(*args, **kwargs)
            depth[family] = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[family] += clock() - start
                depth[family] = 0
            calls[family] += 1
            if is_gcd and out.degree == 0:
                self.gcd_trivial += 1
            return out

        return wrapper

    @contextmanager
    def installed(self, package):
        """Substitute the wrappers into the package; restore on exit."""
        saved = []
        try:
            for path, name in LAYER_SPANS:
                owner_path, attr = path.rsplit(".", 1)
                owner = _resolve(package, owner_path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.span(name, getattr(owner, attr)))
            for owner_path, attr, family in EXACT_OPS:
                owner = _resolve(package, owner_path)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.op(family, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive and self seconds and call counts per span name.

        A span's self time is its duration minus its child spans' durations,
        so self times over all spans sum to the root spans' durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for k, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[k]
            count[name] += 1
        return total, own, count


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs), default=0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by `<module>.<name>`.

    spectra.wrong_verdicts needs the reference checks and is left at 0 here.

    Layer times: each span's self time counts once, so the SELF_PARTS sum
    to the traced total `cli.main_s`; a run that breaks this raises.
    """
    total, own, count = tracer.self_times()
    reduced = [r.reduced for r in tracer.results["isored.reduce"]]
    entries = [v for m in reduced for row in m.entries for v in row]
    reports = tracer.results["spectra.verify"]
    checks = [c for r in reports for c in r.checks if not c.excluded]
    margins = []
    for r in reports:
        worst = max((c.residual for c in r.checks if not c.excluded), default=0.0)
        if math.isnan(worst) or worst >= math.inf:
            margins.append(-400.0)
        elif worst > 0:
            margins.append(max(-400.0, min(400.0, math.log10(r.tolerance / worst))))
        else:
            margins.append(400.0)
    calls, secs = tracer.op_calls, tracer.op_seconds
    metrics = {
        "exactnum.add_calls": calls["add"],
        "exactnum.add_s": secs["add"],
        "exactnum.mul_calls": calls["mul"],
        "exactnum.mul_s": secs["mul"],
        "exactnum.div_calls": calls["div"],
        "exactnum.gcd_calls": calls["gcd"],
        "exactnum.gcd_s": secs["gcd"],
        "exactnum.gcd_trivial_share": tracer.gcd_trivial / calls["gcd"] if calls["gcd"] else 0.0,
        "exactnum.eval_calls": calls["eval"],
        "exactnum.eval_s": secs["eval"],
        "exactnum.max_den_degree": max((v.den.degree for v in entries), default=0),
        "exactnum.max_coeff_bits": max(
            (max(_coeff_bits(v.num), _coeff_bits(v.den)) for v in entries), default=0
        ),
        "isored.reduce_calls": count["isored.reduce"],
        "isored.reduce_s": total["isored.reduce"],
        "isored.reduce_self_s": own["isored.reduce"],
        "isored.invert_s": total["isored.invert"],
        "isored.removed_nodes": sum(len(r.removed) for r in tracer.results["isored.reduce"]),
        "isored.nnz_out": sum(1 for v in entries if not v.is_zero),
        "hierarchy.stages": sum(h.step_count for h in tracer.results["hierarchy.sequential_reduce"]),
        "hierarchy.total_s": total["hierarchy.sequential_reduce"],
        "hierarchy.self_s": own["hierarchy.sequential_reduce"] + own["hierarchy.row_degree"],
        "spectra.verify_s": total["spectra.verify"],
        "spectra.verify_self_s": own["spectra.verify"],
        "spectra.eig_s": total["spectra.eig"],
        "spectra.checks": len(checks),
        "spectra.excluded": sum(1 for r in reports for c in r.checks if c.excluded),
        "spectra.wrong_verdicts": 0,
        "spectra.worst_margin_log10": min(margins) if margins else 0.0,
        "netmat.load_s": own["netmat.load"],
        "netmat.build_s": own["netmat.build"],
        "netmat.rfmatrix_builds": calls["rfmatrix"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "dynamics.total_s": own["dynamics.call"],
    }
    parts = sum(metrics[name] for name in SELF_PARTS)
    if abs(parts - metrics["cli.main_s"]) > 1e-6 * max(1.0, metrics["cli.main_s"]):
        raise RuntimeError(f"self times sum to {parts}, traced total is {metrics['cli.main_s']}")
    return metrics


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(s[name] for s in samples) for name in samples[0]}
