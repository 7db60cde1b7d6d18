"""Spans around logtan's layer boundaries, recorded from outside the program.

``install(tracer)`` replaces the module-level names through which one layer
calls the next (for example ``closed_forms.poly_derivative_at`` and
``projection.inner_product``) with wrappers that record a span, and wraps
``FunctionSpec.value`` to count and time integrand samples per kind.  Every
alias of a wrapped function in the ``logtan`` modules is replaced, so calls
through ``from .core import ...`` imports are seen too.  ``uninstall``
restores the originals; untraced runs never install anything.

Spans are kept in memory as ``(id, parent, op, name, start, end)`` tuples and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; layers run one call at a time, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import logtan.cli  # noqa: F401  (its imported aliases must exist before install)
import logtan.verify  # noqa: F401
from logtan import closed_forms, constants, core, projection, quadrature, series, verify

# (module, attribute, span name).  Missing attributes are skipped, so the
# benchmark keeps working when a later version drops an internal helper.
TRACED = [
    (closed_forms, "exact_L", "closed_forms.exact_L"),
    (core, "poly_derivative_at", "core.poly_derivative_at"),
    (core, "format_zeta_expr", "core.format_zeta_expr"),
    (constants, "eval_zeta_expr", "constants.eval_zeta_expr"),
    (constants, "_eval_zeta_expr_guarded", "constants.guarded"),
    (constants, "zeta_int", "constants.zeta_int"),
    (quadrature, "integrate_logtan", "quadrature.integrate_logtan"),
    (quadrature, "integrate_plain", "quadrature.integrate_plain"),
    (quadrature, "inner_product", "quadrature.inner_product"),
    (projection, "expand", "projection.expand"),
    (projection, "approx_L", "projection.approx_L"),
    (series, "smooth_L_series", "series.smooth_L_series"),
    (series, "exp_integral_series", "series.exp_integral_series"),
    (verify, "run_suite", "verify.run_suite"),
]
QUADRATURE_SPANS = {"quadrature.integrate_logtan", "quadrature.integrate_plain",
                    "quadrature.inner_product"}
SAMPLE_KINDS = ("polynomial", "monomial", "sqrt", "exp2z", "cos2z", "sinh_shift",
                "logtan_power", "logsine_x")
# lru caches whose hit ratios are reported: (label, module, attribute).
CACHES = [
    ("core.lru", core, "shifted_legendre"),
    ("core.lru", core, "euler_poly"),
    ("projection.legendre_spec", projection, "_legendre_spec"),
]
ROOT_SPAN = "op"


def _cache_counts() -> dict[str, list[int]]:
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for label, module, attr in CACHES:
        fn = getattr(module, attr, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            counts[label][0] += info.hits
            counts[label][1] += info.misses
    return dict(counts)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.on = False
        self.op = None
        self.spans: list[tuple] = []
        self.samples: dict[str, int] = defaultdict(int)
        self.sample_s: dict[str, float] = defaultdict(float)
        self.levels: list[int] = []
        self._stack: list[int] = []
        self._next = 1
        self._cache_start = _cache_counts()

    def _run(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, t0, t1))

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            result = tracer._run(name, fn, args, kwargs)
            if name in QUADRATURE_SPANS:
                tracer.levels.append(result.levels_used)
            return result

        return wrapper

    def run_op(self, op, fn, *args):
        """Run one benchmark operation under a root span."""
        self.op, self.on = op, True
        try:
            return self._run(ROOT_SPAN, fn, args, {})
        finally:
            self.on = False

    def record(self) -> dict:
        end = _cache_counts()
        caches = {label: [end[label][0] - self._cache_start.get(label, [0, 0])[0],
                          end[label][1] - self._cache_start.get(label, [0, 0])[1]]
                  for label in end}
        return {"spans": list(self.spans), "samples": dict(self.samples),
                "sample_s": dict(self.sample_s), "levels": list(self.levels),
                "caches": caches}


def _logtan_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "logtan" or name.startswith("logtan."))]


def install(tracer: Tracer) -> list:
    """Wrap every traced name; returns what ``uninstall`` needs to restore."""
    restore = []
    modules = _logtan_modules()
    for module, attr, name in TRACED:
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    restore.append((m, key, original))

    spec = quadrature.FunctionSpec
    original_value = spec.value

    def value(self, x, dist_top=None):
        if not tracer.on:
            return original_value(self, x, dist_top)
        t0 = perf_counter()
        v = original_value(self, x, dist_top)
        tracer.sample_s[self.kind] += perf_counter() - t0
        tracer.samples[self.kind] += 1
        return v

    spec.value = value
    restore.append((spec, "value", original_value))
    return restore


def uninstall(restore: list) -> None:
    for owner, key, original in reversed(restore):
        setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Aggregation


def merge(records: list[dict]) -> dict:
    """Combine the records of several processes; span keys become (op, id)."""
    out = {"spans": [], "samples": defaultdict(int), "sample_s": defaultdict(float),
           "levels": [], "caches": defaultdict(lambda: [0, 0])}
    for rec in records:
        out["spans"].extend(rec["spans"])
        out["levels"].extend(rec["levels"])
        for kind, n in rec["samples"].items():
            out["samples"][kind] += n
        for kind, s in rec["sample_s"].items():
            out["sample_s"][kind] += s
        for label, (hits, misses) in rec["caches"].items():
            out["caches"][label][0] += hits
            out["caches"][label][1] += misses
    return out


def _span_times(spans) -> tuple[dict, dict, dict]:
    """Per name: calls, busy seconds (outermost spans only) and self seconds."""
    by_key = {(s[2], s[0]): s for s in spans}
    child_s: dict = defaultdict(float)
    for sid, parent, op, name, t0, t1 in spans:
        if parent:
            child_s[(op, parent)] += t1 - t0
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    for sid, parent, op, name, t0, t1 in spans:
        calls[name] += 1
        up = by_key.get((op, parent))
        while up is not None and up[3] != name:
            up = by_key.get((op, up[1]))
        if up is None:
            busy[name] += t1 - t0
            self_s[name] += t1 - t0 - child_s[(op, sid)]
    return calls, busy, self_s


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(record: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``ops`` operations."""
    calls, busy, self_s = _span_times(record["spans"])
    caches = record["caches"]
    samples = record["samples"]
    levels = record["levels"]
    out = {
        "core.poly_derivative_at.calls": calls["core.poly_derivative_at"],
        "core.poly_derivative_at.busy_s": busy["core.poly_derivative_at"],
        "closed_forms.exact_L.busy_s": busy["closed_forms.exact_L"],
        "closed_forms.exact_L.self_s": self_s["closed_forms.exact_L"],
        "core.lru.hit_ratio": _ratio(caches.get("core.lru", [0, 0])[0],
                                     sum(caches.get("core.lru", [0, 0]))),
        "core.format_zeta_expr.busy_s": busy["core.format_zeta_expr"],
        "constants.eval_zeta_expr.calls": calls["constants.eval_zeta_expr"],
        "constants.eval_zeta_expr.busy_s": busy["constants.eval_zeta_expr"],
        "constants.guarded.calls": calls["constants.guarded"],
        "constants.guarded_ratio": _ratio(calls["constants.guarded"],
                                          calls["constants.eval_zeta_expr"]),
        "constants.zeta_int.calls": calls["constants.zeta_int"],
        "quadrature.integrate_logtan.calls": calls["quadrature.integrate_logtan"],
        "quadrature.integrate_logtan.busy_s": busy["quadrature.integrate_logtan"],
        "quadrature.inner_product.calls": calls["quadrature.inner_product"],
        "quadrature.inner_product.busy_s": busy["quadrature.inner_product"],
        "quadrature.samples": sum(samples.values()),
        "quadrature.levels_mean": statistics.fmean(levels) if levels else 0.0,
        "quadrature.converged_ratio": _ratio(
            sum(1 for lv in levels if lv < quadrature.DEFAULT_MAX_LEVELS), len(levels)),
        "projection.expand.busy_s": busy["projection.expand"],
        "projection.approx_L.busy_s": busy["projection.approx_L"],
        "projection.self_s": self_s["projection.expand"] + self_s["projection.approx_L"],
        "projection.inner_products_per_op": _ratio(calls["quadrature.inner_product"], ops),
        "projection.legendre_spec.hit_ratio": _ratio(
            caches.get("projection.legendre_spec", [0, 0])[0],
            sum(caches.get("projection.legendre_spec", [0, 0]))),
        "series.smooth_L_series.busy_s": busy["series.smooth_L_series"],
        "series.exp_integral_series.busy_s": busy["series.exp_integral_series"],
        "verify.run_suite.busy_s": busy["verify.run_suite"],
    }
    for kind in SAMPLE_KINDS:
        out[f"quadrature.samples_per_s.{kind}"] = _ratio(samples.get(kind, 0),
                                                         record["sample_s"].get(kind, 0.0))
    return out


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, op, name, t0, t1 in spans:
            fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")
