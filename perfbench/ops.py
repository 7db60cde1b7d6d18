"""The operations a workload times, through logtan's public API or its CLI.

Each in-process operation mirrors what the matching CLI subcommand computes,
without the argument parsing and rendering.  Calls go through module
attributes looked up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import logtan
from logtan import core, quadrature, series

# Tolerances of the CLI defaults: ``--tol 1e-10`` for the oracle and
# ``min(tol, 1e-12)`` for the projections.
ORACLE_TOL = 1e-10
PROJECTION_TOL = 1e-12
# Terms of the derivative series; with |z| <= 0.9 the omitted tail is < 1e-20.
SERIES_TERMS = 240

CLI_TIMEOUT_S = 120


def build_polynomial(item: dict):
    family = item["family"]
    if family == "legendre":
        return logtan.shifted_legendre(item["n"])
    if family == "euler":
        return logtan.euler_poly_scaled(item["n"])
    poly = logtan.Polynomial.from_rationals([Fraction(c) for c in item["coeffs"]])
    if item["var"] == "scaled":
        poly = poly.compose_affine(core.PiExpr.pi_power(-1, 2), 0)
    return poly


def exact_op(item: dict) -> dict:
    """What ``logtan exact`` computes: closed form, its text, its value, the oracle."""
    poly = build_polynomial(item)
    value = logtan.exact_L(poly)
    text = logtan.format_zeta_expr(value)
    numeric = logtan.eval_zeta_expr(value)
    oracle = logtan.integrate_logtan(quadrature.FunctionSpec.polynomial(poly), tol=ORACLE_TOL)
    return {"value": value, "text": text, "numeric": numeric, "oracle": oracle}


def project_spec(item: dict):
    kind = item["kind"]
    spec = quadrature.FunctionSpec
    if kind == "sqrt":
        return spec.sqrt()
    if kind == "logsine":
        return spec.logsine_x()
    if kind == "logtan":
        return spec.logtan_power(1)
    return {"exp": spec.exp2z, "cos": spec.cos2z, "sinh": spec.sinh_shift}[kind](item["z"])


def project_op(item: dict) -> dict:
    """What ``logtan project`` computes, plus the series routes for smooth kinds."""
    f = project_spec(item)
    out = {
        "spec": f,
        "coeffs": logtan.expand(f, item["terms"], tol=PROJECTION_TOL).coeffs,
        "approx": logtan.approx_L(f, item["N"], tol=PROJECTION_TOL).value,
        "oracle": logtan.integrate_logtan(f, tol=ORACLE_TOL),
    }
    if "z" in item:
        out["series"] = series.smooth_L_series(f, SERIES_TERMS)
        if item["kind"] == "exp":
            out["exp_series"] = series.exp_integral_series(item["z"], SERIES_TERMS)
    return out


def cli_op(argv: list[str], env: dict, cwd: str, shim: list[str] | None = None) -> dict:
    """One request to ``python -m logtan.cli``, or to the tracing shim when given."""
    command = [sys.executable, *(shim or ["-m", "logtan.cli"]), *argv]
    proc = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, check=False)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
