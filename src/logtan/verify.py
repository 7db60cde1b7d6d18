"""Built-in verification suites: exact identities vs. the quadrature oracle.

Each check compares an exact or series value against an independent route
and reports a pass/fail row.  The CLI ``verify`` command renders these rows;
the test suite reuses them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import closed_forms as cf
from . import constants as cn
from . import projection as pj
from . import series as sr
from .core import (
    QUARTER_PI,
    PiExpr,
    Polynomial,
    euler_poly_scaled,
    format_zeta_expr,
    shifted_legendre,
)
from .quadrature import FunctionSpec, integrate_logtan, integrate_plain

SUITES = ("exact", "series", "constants")


class CheckRow(NamedTuple):
    name: str
    expected: str
    got: str
    tolerance: float
    passed: bool


def _num_row(name: str, expected: float, got: float, tol: float) -> CheckRow:
    return CheckRow(name, f"{expected:.15g}", f"{got:.15g}", tol, abs(expected - got) <= tol)


def _bool_row(name: str, ok: bool) -> CheckRow:
    return CheckRow(name, "true", "true" if ok else "false", 0.0, ok)


def _suite_exact(tol: float) -> list[CheckRow]:
    rows = []
    x = Polynomial.x()
    rendered = format_zeta_expr(cf.exact_L(x))
    rows.append(CheckRow("L(x)=7/8 zeta(3)", "7/8 * zeta(3)", rendered,
                         0.0, rendered == "7/8 * zeta(3)"))
    rendered2 = format_zeta_expr(cf.exact_L(Polynomial.monomial(2)))
    rows.append(CheckRow("L(x^2)=7/16 pi zeta(3)", "7/16 * pi * zeta(3)", rendered2,
                         0.0, rendered2 == "7/16 * pi * zeta(3)"))
    oracle = integrate_logtan(FunctionSpec.monomial(1), tol=tol).value
    rows.append(_num_row("numeric L(x) vs oracle",
                         oracle, cn.eval_zeta_expr(cf.exact_L(x)).value, 1e-9))
    rows.append(_bool_row(
        "moment(n) = L(x^n) structurally, n<=8",
        all(cf.moment(n).value == cf.exact_L(Polynomial.monomial(n)) for n in range(1, 9)),
    ))
    rows.append(_bool_row(
        "odd Euler integrals match, n<=4",
        all(cf.euler_integral(n, "odd") == cf.exact_L(euler_poly_scaled(2 * n - 1))
            for n in range(1, 5)),
    ))
    rows.append(_bool_row(
        "even Euler integrals vanish, n<=4",
        all((not cf.euler_integral(n, "even"))
            and (not cf.exact_L(euler_poly_scaled(2 * n))) for n in range(1, 5)),
    ))
    rows.append(_bool_row(
        "Legendre coefficient formula matches, index<=7",
        all(cf.legendre_L_coeff(i) == cf.exact_L(shifted_legendre(i)) for i in range(1, 8)),
    ))
    worst = 0.0
    for k in range(1, 5):
        target = cn.eval_pi_expr(cf.cos_lemma(k)).value
        got = integrate_logtan(FunctionSpec.cos2z(float(k)), tol=tol).value
        worst = max(worst, abs(target - got))
    rows.append(_num_row("cosine integrals k<=4 vs oracle (worst)", 0.0, worst, 1e-9))
    ok = True
    for n in range(1, 6):
        quarter = shifted_legendre(2 * n - 1).definite_integral(PiExpr.zero(), QUARTER_PI)
        exact = (quarter * PiExpr.pi_power(-1, -2)).as_fraction()
        ok = ok and exact == cf.byerly_coeff(n)
    rows.append(_bool_row("quarter-interval coefficients match, n<=5", ok))
    rows.append(CheckRow("L(const) renders 0", "0",
                         format_zeta_expr(cf.exact_L(Polynomial.constant(5))),
                         0.0, format_zeta_expr(cf.exact_L(Polynomial.constant(5))) == "0"))
    return rows


def _suite_series(tol: float) -> list[CheckRow]:
    rows = []
    # Partial sum of the Catalan series at N=10.  The frozen target was
    # recomputed from the exact coefficient formula at high precision and
    # cross-checked by direct quadrature of every factor.
    rows.append(_num_row("catalan_series N=10 = 0.915312751760083",
                         0.915312751760083, pj.catalan_series(10), 1e-11))
    z = 0.5
    rows.append(_num_row(
        "-sin(pi z) S_50(z) = F(z), z=0.5",
        sr.cos_integral_F(z),
        -math.sin(math.pi * z) * sr.partial_sum_S(z, 50).value,
        1e-9,
    ))
    rows.append(_num_row(
        "exp series z=0.3 vs oracle",
        integrate_logtan(FunctionSpec.exp2z(0.3), tol=tol).value,
        sr.exp_integral_series(0.3, 40),
        1e-8,
    ))
    g = cn.catalan().value
    rows.append(_num_row("primitive at pi/4, N=5000, vs -G",
                         -g, sr.bradley_primitive(math.pi / 4, 5000), 1e-5))
    rows.append(_num_row("log tan power series at x=0.5",
                         math.log(math.tan(0.5)), sr.logtan_power_series(0.5, 60), 1e-10))
    rows.append(_num_row("even-zeta series N=40 vs zeta(3)",
                         cn.zeta_int(3).value, sr.euler_zeta3_series(40), 1e-12))
    lhs, rhs = sr.sinh_identity_check(0.4, 40, tol=tol)
    rows.append(_num_row("sinh identity z=0.4", lhs, rhs, 1e-9))
    rows.append(_num_row(
        "derivative series for cos(x) vs F(0.5)",
        sr.cos_integral_F(0.5),
        sr.smooth_L_series(FunctionSpec.cos2z(0.5), 25),
        1e-9,
    ))
    return rows


def _suite_constants(tol: float) -> list[CheckRow]:
    rows = []
    rows.append(_num_row("zeta(2) = pi^2/6", math.pi**2 / 6, cn.zeta_int(2).value, 1e-14))
    ok = all(
        abs(cn.zeta_int(2 * n).value - cn.eval_pi_expr(cn.zeta_even_exact(n)).value)
        <= 1e-14 * cn.zeta_int(2 * n).value
        for n in range(1, 7)
    )
    rows.append(_bool_row("even zeta matches Bernoulli form, n<=6", ok))
    rows.append(_num_row("zeta(3) value", 1.202056903159594285, cn.zeta_int(3).value, 1e-15))
    rows.append(_num_row("psi(1/2) = -gamma - 2 log 2",
                         -cn.EULER_GAMMA - 2 * cn.LOG2, cn.digamma(0.5).value, 1e-13))
    rows.append(_num_row("psi(1) = -gamma", -cn.EULER_GAMMA, cn.digamma(1.0).value, 1e-13))
    rows.append(_num_row("psi(3/2) = -gamma - 2 log 2 + 2",
                         -cn.EULER_GAMMA - 2 * cn.LOG2 + 2.0, cn.digamma(1.5).value, 1e-13))
    g = cn.catalan().value
    rows.append(_num_row("catalan value", 0.915965594177219015, g, 1e-14))
    oracle = integrate_logtan(FunctionSpec.monomial(0), 0.0, math.pi / 4, tol=tol).value
    rows.append(_num_row("G = -integral_0^{pi/4} log tan", g, -oracle, 1e-10))
    rows.append(_bool_row("zeta(15) - 1 < 1e-4", cn.zeta_int(15).value - 1.0 < 1e-4))
    rows.append(_num_row("digamma(1) + gamma = 0",
                         0.0, cn.digamma(1.0).value + cn.EULER_GAMMA, 1e-13))
    rows.append(_num_row(
        "x log sin oracle = 7/16 zeta(3) - pi^2/8 log 2",
        7.0 / 16.0 * cn.zeta_int(3).value - math.pi**2 / 8 * cn.LOG2,
        integrate_plain(FunctionSpec.logsine_x(), tol=tol).value,
        1e-9,
    ))
    return rows


def run_suite(suite: str, tol: float = 1e-12) -> list[CheckRow]:
    """Run one suite ("exact", "series", "constants") or "all"."""
    if suite == "all":
        rows = []
        for name in SUITES:
            rows.extend(run_suite(name, tol))
        return rows
    if suite == "exact":
        return _suite_exact(tol)
    if suite == "series":
        return _suite_series(tol)
    if suite == "constants":
        return _suite_constants(tol)
    raise ValueError(f"unknown suite {suite!r}; choose from all, exact, series, constants")
