"""Tests of the benchmark itself: input determinism, the checker, metric coverage.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from logtan import NumericValue, closed_forms  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _search(workload: str, seed: int, match, domain: str = "full",
            decks: int = 200) -> dict | None:
    for k in range(decks):
        for item in inputs.deck(workload, seed, k, domain):
            if match(item):
                return item
    return None


@pytest.mark.parametrize("domain", inputs.DOMAINS)
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_gives_the_same_inputs(workload, domain):
    first = [inputs.deck(workload, 7, k, domain) for k in range(3)]
    again = [inputs.deck(workload, 7, k, domain) for k in range(3)]
    other = [inputs.deck(workload, 8, k, domain) for k in range(3)]
    assert first == again
    assert first != other
    assert json.loads(json.dumps(first)) == first  # plain data only


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_decks_keep_their_composition(workload):
    sizes = {len(inputs.deck(workload, seed, k)) for seed in (1, 2) for k in range(4)}
    assert len(sizes) == 1
    props = inputs.input_properties(workload, inputs.deck(workload, 1, 0)
                                    + inputs.deck(workload, 1, 0))
    assert props["repeat_share"] >= 0.5


def _euler_18(item):
    return item["family"] == "euler" and item["n"] == 18


def _sqrt_at(N):
    return lambda item: item["kind"] == "sqrt" and item["N"] == N


def _exp_overflow(item):
    # exp:Z for Z in 300..1000 overflows like the listed exp:400.
    argv = item["argv"]
    return argv[0] == "quad" and argv[1].startswith("exp:") and float(argv[1][4:]) >= 300


def _b_above_half_pi(item):
    return "1.5707963267948968" in item["argv"]


KNOWN_MISSES = [("exact", _euler_18), ("project", _sqrt_at(8)), ("project", _sqrt_at(10)),
                ("cli", _exp_overflow), ("cli", _b_above_half_pi)]


@pytest.mark.parametrize("workload, match", KNOWN_MISSES)
def test_full_domain_reaches_the_known_misses_and_checked_domain_leaves_them_out(
        workload, match):
    assert _search(workload, 1, match)
    assert _search(workload, 1, match, domain="checked", decks=40) is None


def test_checker_passes_a_right_value_and_flags_a_planted_wrong_one():
    item = {"family": "poly", "var": "x", "degree": 3, "coeffs": ["1", "-2/3", "0", "5/7"]}
    out = ops.exact_op(item)
    assert checks.check("exact", item, out) is None
    wrong = dict(out, numeric=NumericValue(out["numeric"].value * (1 + 1e-9), 0.0))
    assert "closed form vs oracle" in checks.check("exact", item, wrong)


def test_checker_flags_a_planted_traceback():
    item = {"sub": "usage_error", "argv": ["bogus"]}
    clean = {"code": 2, "stdout": "", "stderr": "usage: logtan ...\nerror: invalid choice"}
    assert checks.check("cli", item, clean) is None
    broken = dict(clean, stderr="Traceback (most recent call last):\nValueError: boom")
    assert checks.check("cli", item, broken).startswith("traceback")
    assert checks.check("cli", item, dict(clean, code=0)) is not None


def test_even_euler_18_is_counted_as_failed():
    item = {"family": "euler", "n": 18, "degree": 18}
    assert "closed form vs oracle" in checks.check("exact", item, ops.exact_op(item))


def test_odd_euler_and_legendre_pass_their_cross_checks():
    for item in ({"family": "euler", "n": 5, "degree": 5},
                 {"family": "legendre", "n": 7, "degree": 7}):
        assert checks.check("exact", item, ops.exact_op(item)) is None


def test_sqrt_summation_orders_are_counted_as_failed_at_n8_and_n10():
    f = ops.project_spec({"kind": "sqrt"})
    for N in (8, 10):
        approx = ops.logtan.approx_L(f, N, tol=ops.PROJECTION_TOL).value
        assert "approx_L vs approx_L_direct" in checks.check_approx(f, N, approx)


@pytest.mark.parametrize("argv", [
    ["quad", "exp:400"], ["quad", "x", "--b", "1.5707963267948968"],
    ["quad", "x", "--a", "1.2", "--b", "0.3"], ["quad", "x", "--tol", "nan"],
    ["constants", "digamma", "1e-320"],
])
def test_cli_known_misses_are_counted_as_failed(argv):
    item = {"sub": "usage_error", "argv": argv + ["--format", "json"]}
    out = ops.cli_op(item["argv"], run.child_env(), str(ROOT))
    assert checks.check("cli", item, out) is not None


def test_quad_reference_reads_float_half_pi_as_the_endpoint():
    # The exact value is 0; integrating only up to math.pi / 2 would give -2.3e-15.
    item = {"sub": "quad", "argv": ["quad", "legendre4", "--format", "json"]}
    out = ops.cli_op(item["argv"], run.child_env(), str(ROOT))
    assert checks.check("cli", item, out) is None
    assert abs(checks.quad_reference(item["argv"])) < 1e-25


def test_tail_percentile_and_samples_beyond_it():
    value, beyond = run.tail([float(i) for i in range(1, 101)], 90)
    assert beyond == 10 and math.isclose(value, 90.5, rel_tol=1e-6)
    assert run.tail([float(i) for i in range(1, 101)], 75)[1] == 25
    assert math.isclose(run.quantile([3.0, 1.0, 2.0], 0.5), 2.0)


def test_every_end_to_end_metric_is_emitted():
    state = run.State("exact", 1, "checked", 0.5, [])
    records = [{"latency": 0.1 + 0.01 * i, "failed": None, "item": {}} for i in range(30)]
    values, extra = run.end_to_end(state, records, [0.4, 0.5, 0.6])
    metrics = run.emit(SPEC, "end_to_end", values)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert extra["fail_ratio"] == 0.0


def test_every_per_layer_metric_is_emitted_and_wrappers_are_removed():
    original = closed_forms.poly_derivative_at
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert closed_forms.poly_derivative_at is not original
        item = {"family": "legendre", "n": 5, "degree": 5}
        tracer.run_op(0, ops.exact_op, item)
        tracer.run_op(1, ops.project_op, {"kind": "exp", "terms": 2, "N": 1, "z": 0.3})
    finally:
        tracing.uninstall(restore)
    assert closed_forms.poly_derivative_at is original
    record = tracer.record()
    names = {span[3] for span in record["spans"]}
    assert {"op", "closed_forms.exact_L", "core.poly_derivative_at",
            "projection.expand", "quadrature.inner_product"} <= names
    timed = [{"latency": 1.0, "item": {"sub": "exact"}}]
    values = run.per_layer(record, timed, timed, (0.05, 0.1))
    metrics = run.emit(SPEC, "per_layer", values)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["quadrature.samples"]["value"] > 0
    assert math.isclose(metrics["trace.overhead_ratio"]["value"], 1.0)


def test_self_time_subtracts_direct_children():
    spans = [(1, 0, 0, "op", 0.0, 10.0), (2, 1, 0, "a", 1.0, 5.0), (3, 2, 0, "b", 2.0, 3.0),
             (4, 2, 0, "a", 3.0, 4.0)]
    calls, busy, self_s = tracing._span_times(spans)
    assert calls["a"] == 2 and busy["a"] == 4.0
    assert self_s["a"] == 4.0 - 2.0 and self_s["op"] == 6.0
