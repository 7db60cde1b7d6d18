"""Reference checks, run after an operation's timing stops.

Each check returns ``None`` when the output agrees with an independent
reference, or a one-line reason when it does not.  A reason makes the
operation count as failed; it never stops the run.

Tolerances are the error bounds the program itself reports, plus a few units
in the last place of the larger magnitude (never less than 1.0), so a result
whose reported bound is too small for its actual error is counted as a miss.
"""

from __future__ import annotations

import json
import math

import mpmath

import logtan
from logtan import core
from ops import PROJECTION_TOL, SERIES_TERMS, project_spec

ULPS = 8
REFERENCE_DPS = 30
# zeta(3) bounds every zeta(2k+1) factor of the derivative series.
ZETA3_CEIL = 1.21


def few_ulps(*values: float) -> float:
    return ULPS * math.ulp(max([1.0] + [abs(v) for v in values]))


def json_rounding(value: float) -> float:
    """Half a unit in the 15th significant digit, the precision of the CLI's JSON."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 14)


def _within(got: float, want: float, bound: float, what: str) -> str | None:
    if abs(got - want) <= bound:
        return None
    return f"{what}: got {got!r}, reference {want!r}, |diff| {abs(got - want):.3e} > {bound:.3e}"


# ---------------------------------------------------------------------------
# exact


def check_exact(item: dict, out: dict) -> str | None:
    numeric, oracle = out["numeric"], out["oracle"]
    reason = _within(numeric.value, oracle.value,
                     numeric.err_bound + oracle.est_error + few_ulps(numeric.value, oracle.value),
                     "closed form vs oracle")
    if reason:
        return reason
    if logtan.parse_zeta_expr(out["text"]) != out["value"]:
        return f"rendered closed form does not parse back: {out['text'][:80]!r}"
    n = item.get("n")
    if item["family"] == "legendre" and logtan.legendre_L_coeff(n) != out["value"]:
        return f"legendre_L_coeff({n}) != exact_L(shifted_legendre({n}))"
    if item["family"] == "euler" and n % 2 == 1:
        if logtan.euler_integral((n + 1) // 2, "odd") != out["value"]:
            return f"euler_integral({(n + 1) // 2}, 'odd') != exact_L(euler_poly_scaled({n}))"
    return None


# ---------------------------------------------------------------------------
# project

_LEGENDRE_L: dict[int, float] = {}


def _legendre_L(index: int) -> float:
    if index not in _LEGENDRE_L:
        _LEGENDRE_L[index] = logtan.eval_zeta_expr(logtan.legendre_L_coeff(index)).value
    return _LEGENDRE_L[index]


def summation_bound(N: int, direct: float) -> float:
    """How far two summation orders of the same N inner products may differ.

    Each inner product carries up to ``PROJECTION_TOL`` of error, which reaches
    the result through ``sum_j (4j-1) |L(P~_{2j-1})|``.
    """
    spread = math.fsum((4 * j - 1) * abs(_legendre_L(2 * j - 1)) for j in range(1, N + 1))
    return spread * PROJECTION_TOL + few_ulps(direct)


def check_approx(f, N: int, approx: float) -> str | None:
    direct = logtan.approx_L_direct(f, N, tol=PROJECTION_TOL)
    return _within(approx, direct, summation_bound(N, direct),
                   f"approx_L vs approx_L_direct at N={N}")


def check_sqrt_coeffs(coeffs) -> str | None:
    rationals = logtan.sqrt_legendre_rationals(len(coeffs) - 1)
    root = math.sqrt(math.pi / 2)
    for n, (c, r) in enumerate(zip(coeffs, rationals)):
        want = (2 * n + 1) * float(r) * root
        reason = _within(c, want, (2 * n + 1) * PROJECTION_TOL + few_ulps(c, want),
                         f"sqrt coefficient {n}")
        if reason:
            return reason
    return None


def series_bound(z: float, oracle, value: float) -> float:
    """Oracle bound plus roundoff and tail of the derivative series at ``|z| < 1``.

    Every term is at most ``1.21 |z|^(2k-1) (1 + e^(pi |z|))`` for exp, cos and
    sinh, so the terms sum to at most ``scale`` below.
    """
    a = abs(z)
    scale = ZETA3_CEIL * (1.0 + math.exp(math.pi * a)) * a / (1.0 - a * a)
    tail = scale * a ** (2 * SERIES_TERMS)
    return oracle.est_error + ULPS * 2.2e-16 * scale + few_ulps(value, oracle.value) + tail


def check_project(item: dict, out: dict) -> str | None:
    reason = check_approx(out["spec"], item["N"], out["approx"])
    if reason is None and item["kind"] == "sqrt":
        reason = check_sqrt_coeffs(out["coeffs"])
    oracle = out["oracle"]
    for key in ("series", "exp_series"):
        if reason is None and key in out:
            reason = _within(out[key], oracle.value, series_bound(item["z"], oracle, out[key]),
                             f"{key} vs oracle")
    return reason


# ---------------------------------------------------------------------------
# cli


def _mp_poly(poly) -> list:
    return [sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**j
                for j, q in c.terms.items()) for c in poly.coeffs]


def _mp_integrand(token: str):
    """The catalog integrand as an mpmath function, built independently of logtan."""
    token = token.lower()
    if token.startswith(("exp:", "cos:", "sinh:")):
        kind, raw = token.split(":")
        z = mpmath.mpf(float(raw))
        return {"exp": lambda x: mpmath.exp(2 * z * x),
                "cos": lambda x: mpmath.cos(2 * z * x),
                "sinh": lambda x: mpmath.sinh(z * (2 * x - mpmath.pi / 2))}[kind]
    named = {
        "sqrt": mpmath.sqrt,
        "logtan": lambda x: mpmath.log(mpmath.tan(x)),
        "logtan2": lambda x: mpmath.log(mpmath.tan(x)) ** 2,
        "logsine": lambda x: x * mpmath.log(mpmath.sin(x)),
    }
    if token in named:
        return named[token]
    if token.startswith("legendre"):
        coeffs = _mp_poly(core.shifted_legendre(int(token[8:])))
    elif token.startswith("euler"):
        coeffs = _mp_poly(core.euler_poly_scaled(int(token[5:])))
    else:
        n = int(token[1:] or 1)
        return lambda x: x**n
    return lambda x: mpmath.polyval(coeffs[::-1], x)


def quad_reference(argv: list[str]) -> float:
    """High-precision integral of a ``quad`` request by mpmath's own quadrature."""
    token = argv[1]
    opts = {argv[i]: argv[i + 1] for i in range(2, len(argv) - 1)}
    a = float(opts.get("--a", 0.0))
    b = float(opts.get("--b", math.pi / 2))
    with mpmath.workdps(REFERENCE_DPS):
        f = _mp_integrand(token)
        if "--plain" in argv:
            g = f
        else:
            def g(x):
                return f(x) * mpmath.log(mpmath.tan(x))
        # The program measures distances to the log-tan singularity from
        # ``math.pi / 2``, so that endpoint stands for pi/2 itself.
        lo = mpmath.mpf(a)
        hi = mpmath.pi / 2 if b == math.pi / 2 else mpmath.mpf(b)
        points = [lo, mpmath.pi / 4, hi] if lo < mpmath.pi / 4 < hi else [lo, hi]
        return float(mpmath.quad(g, points))


def constants_reference(argv: list[str]) -> float:
    with mpmath.workdps(REFERENCE_DPS):
        if argv[1] == "zeta":
            return float(mpmath.zeta(int(argv[2])))
        if argv[1] == "digamma":
            return float(mpmath.digamma(float(argv[2])))
        return float(mpmath.catalan)


def cli_project_reference(argv: list[str], payload: dict) -> str | None:
    token, terms = argv[1], int(argv[3])
    item = {"kind": token.split(":")[0]}
    if ":" in token:
        item["z"] = float(token.split(":")[1])
    f = project_spec(item)
    reason = check_approx(f, max(1, (terms + 1) // 2), payload["numeric"]["value"])
    if reason is None and item["kind"] == "sqrt":
        reason = check_sqrt_coeffs(payload["inputs"]["coefficients"])
    return reason


def check_cli(item: dict, out: dict) -> str | None:
    code, stderr = out["code"], out["stderr"]
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"traceback (exit {code}): {last[:120]}"
    sub, argv = item["sub"], item["argv"]
    if sub == "usage_error":
        return None if code == 2 else f"malformed request exited {code}, expected 2"
    if code != 0:
        return f"exit {code}: {stderr.strip()[:120]}"
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    numeric = payload.get("numeric")
    if sub == "exact":
        oracle = payload["oracle"]
        bound = numeric["err_bound"] + oracle["est_error"] + few_ulps(numeric["value"],
                                                                      oracle["value"])
        if not payload["delta"] <= bound:
            return f"exact delta {payload['delta']:.3e} > bound {bound:.3e}"
        return None
    if sub == "project":
        return cli_project_reference(argv, payload)
    if sub == "quad":
        value = numeric["value"]
        return _within(value, quad_reference(argv),
                       numeric["err_bound"] + few_ulps(value) + json_rounding(value),
                       "quad vs mpmath")
    if sub == "constants":
        value = numeric["value"]
        return _within(value, constants_reference(argv),
                       numeric["err_bound"] + few_ulps(value) + json_rounding(value),
                       "constant vs mpmath")
    failed = [row["name"] for row in payload["checks"] if not row["pass"]]
    return f"verify rows failed: {failed}" if failed else None


CHECKS = {"exact": check_exact, "project": check_project, "cli": check_cli}


def check(workload: str, item: dict, out: dict) -> str | None:
    return CHECKS[workload](item, out)

