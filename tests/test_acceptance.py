"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 6 and 7 check targets that follow from the defining formulas:

* criterion 6: Catalan's constant ``G = -integral_0^{pi/4} log tan x dx``
  expands over the odd shifted-Legendre coefficients of ``log tan`` as
  ``G = sum_n (4n-1) b_n L(P~_{2n-1})`` with
  ``b_n = -(2/pi) integral_0^{pi/4} P~_{2n-1}``.  The partial sum at N=10 is
  0.915312751760083..., and ``G`` minus it is 6.528424e-4.  Two independent
  computations give these digits: 40-digit mpmath quadrature of every
  factor (``b_n`` and ``L(P~_{2n-1})`` alike), and the exact-rational
  coefficient table summed in k-order with mpmath zeta at 50 digits.
* criterion 7: Parseval's identity for the expansion of ``log tan`` reads
  ``sum_n (4n-1) L(P~_{2n-1})**2 = (pi/2)**4``.  Near its endpoints ``log tan``
  behaves like ``log x - log(pi/2 - x)``, whose Legendre coefficients are
  known in closed form, and the rest is analytic; so the defect after N
  terms is ``(pi**2/4) [psi'(N+1/2) - psi'(N+1)]`` up to terms that decay
  like ``(3+sqrt 8)**(-2N)``, which is below ``pi**2/(8 N**2)``.  40-digit
  mpmath quadrature of every ``L(P~_{2n-1})`` agrees with this tail to
  3e-15 at N=8 and to 1e-33 at N=20.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from logtan.closed_forms import cos_lemma, exact_L, moment
from logtan.constants import catalan, eval_pi_expr, eval_zeta_expr, zeta_int
from logtan.core import Polynomial, euler_poly_scaled, format_zeta_expr
from logtan.projection import (
    approx_L,
    catalan_series,
    parseval_defect,
    sqrt_approx_L_exact,
)
from logtan.quadrature import FunctionSpec, inner_product, integrate_logtan
from logtan.series import (
    cos_integral_F,
    euler_zeta3_series,
    exp_integral_series,
    partial_sum_S,
    sinh_identity_check,
)
from logtan.closed_forms import euler_integral
from logtan.quadrature import integrate_plain
from logtan.core import shifted_legendre


def _report(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status}  {detail}")
    return ok


def test_criterion_01_exact_moments():
    start = time.perf_counter()
    first = format_zeta_expr(exact_L(Polynomial.x()))
    second = format_zeta_expr(exact_L(Polynomial.monomial(2)))
    render_ok = first == "7/8 * zeta(3)" and second == "7/16 * pi * zeta(3)"
    numeric_ok = True
    for poly, spec in ((Polynomial.x(), FunctionSpec.monomial(1)),
                       (Polynomial.monomial(2), FunctionSpec.monomial(2))):
        numeric = eval_zeta_expr(exact_L(poly)).value
        oracle = integrate_logtan(spec, tol=1e-11).value
        numeric_ok = numeric_ok and abs(numeric - oracle) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = render_ok and numeric_ok and elapsed < 1.0
    assert _report(1, ok, f"renders {first!r}, {second!r}; oracle match; {elapsed:.3f}s")


def test_criterion_02_log_squared_norm():
    start = time.perf_counter()
    got = inner_product(FunctionSpec.logtan_power(1), FunctionSpec.logtan_power(1),
                        tol=1e-12).value
    elapsed = time.perf_counter() - start
    ok = abs(got - math.pi**2 / 4) <= 1e-10 and elapsed < 1.0
    assert _report(2, ok, f"(2/pi) int log^2 tan = {got:.15f} vs pi^2/4; {elapsed:.3f}s")


def test_criterion_03_cosine_lemma():
    start = time.perf_counter()
    worst = 0.0
    for k in range(1, 9):
        oracle = integrate_logtan(FunctionSpec.cos2z(float(k)), tol=1e-11).value
        target = eval_pi_expr(cos_lemma(k)).value
        worst = max(worst, abs(oracle - target))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(3, ok, f"k=1..8 worst deviation {worst:.2e}; {elapsed:.2f}s")


def test_criterion_04_triple_consistency():
    euler_ok = all(
        euler_integral(n, "odd") == exact_L(euler_poly_scaled(2 * n - 1))
        for n in range(1, 6)
    )
    moment_ok = all(
        moment(n) == exact_L(Polynomial.monomial(n)) for n in range(1, 13)
    )
    ok = euler_ok and moment_ok
    assert _report(4, ok, f"Euler n=1..5 {euler_ok}; moments n=1..12 {moment_ok}")


def test_criterion_05_sqrt_worked_example():
    rationals, value = sqrt_approx_L_exact(3)
    rational_ok = rationals == {
        1: Fraction(42, 13),
        2: Fraction(-1581, 13),
        3: Fraction(13335, 13),
    }
    value_ok = abs(value - 0.688084888082269488) <= 1e-12
    oracle = integrate_logtan(FunctionSpec.sqrt(), tol=1e-11).value
    oracle_ok = abs(oracle - 0.689247) <= 5e-6
    ok = rational_ok and value_ok and oracle_ok
    assert _report(
        5, ok,
        f"rationals {rational_ok}; value {value!r}; oracle {oracle:.6f}",
    )


def test_criterion_06_catalan_series_digits():
    got = catalan_series(10)
    gap = catalan().value - got
    digits_ok = abs(got - 0.915312751760083) <= 1e-11
    gap_ok = abs(gap - 6.528424e-4) <= 1e-7
    ok = digits_ok and gap_ok
    _report(
        6, ok,
        f"catalan_series(10) = {got!r} (reference 0.915312751760083), "
        f"G - sum = {gap:.6e} (reference 6.528424e-4); references from "
        "mpmath quadrature of every factor and the exact c_{N,k} table",
    )
    assert digits_ok, (
        f"catalan_series(10) = {got!r}; the N=10 partial sum of "
        "sum (4n-1) b_n L(P~_{2n-1}) is 0.915312751760083"
    )
    assert gap_ok, f"G - catalan_series(10) = {gap:.6e}; expected 6.528424e-4"


def test_criterion_07_parseval():
    values = [parseval_defect(n) for n in range(1, 31)]
    positive = all(v > 0.0 for v in values)
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    with mpmath.workdps(30):
        tail = float(mpmath.pi**2 / 4 * (mpmath.psi(1, 30.5) - mpmath.psi(1, 31)))
    tail_ok = abs(values[-1] - tail) <= 1e-12
    rate_ok = all(n * n * v < math.pi**2 / 8 for n, v in enumerate(values, 1))
    ok = positive and decreasing and tail_ok and rate_ok
    _report(
        7, ok,
        f"positive {positive}; strictly decreasing {decreasing}; "
        f"defect(30) = {values[-1]:.12e} vs trigamma tail "
        f"(pi^2/4)[psi'(30.5) - psi'(31)] = {tail:.12e}; "
        f"N^2 defect(N) < pi^2/8 for N=1..30 {rate_ok}",
    )
    assert positive and decreasing
    assert tail_ok, (
        f"parseval_defect(30) = {values[-1]!r}; the trigamma tail gives {tail!r}"
    )
    assert rate_ok, "N^2 * parseval_defect(N) reaches pi^2/8 for some N <= 30"


def test_criterion_08_digamma_identity():
    worst_oracle = 0.0
    worst_series = 0.0
    for z in (0.1, 0.25, 0.5, 0.75):
        closed = cos_integral_F(z)
        oracle = integrate_logtan(FunctionSpec.cos2z(z), tol=1e-11).value
        series = -math.sin(math.pi * z) * partial_sum_S(z, 50).value
        worst_oracle = max(worst_oracle, abs(closed - oracle))
        worst_series = max(worst_series, abs(series - closed))
    ok = worst_oracle <= 1e-9 and worst_series <= 1e-9
    assert _report(
        8, ok, f"oracle gap {worst_oracle:.2e}; series gap {worst_series:.2e}"
    )


def test_criterion_09_exp_sinh_identities():
    worst = 0.0
    for z in (0.2, -0.2, 0.5, -0.5):
        oracle = integrate_logtan(FunctionSpec.exp2z(z), tol=1e-11).value
        worst = max(worst, abs(exp_integral_series(z, 40) - oracle))
        lhs, rhs = sinh_identity_check(z, 40, tol=1e-11)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    assert _report(9, ok, f"worst deviation over z in {{+-0.2, +-0.5}}: {worst:.2e}")


def test_criterion_10_bounds():
    catalog = [
        FunctionSpec.monomial(0),
        FunctionSpec.monomial(1),
        FunctionSpec.monomial(3),
        FunctionSpec.polynomial(shifted_legendre(3)),
        FunctionSpec.polynomial(euler_poly_scaled(3)),
        FunctionSpec.sqrt(),
        FunctionSpec.exp2z(0.3),
        FunctionSpec.cos2z(0.5),
        FunctionSpec.sinh_shift(0.4),
        FunctionSpec.logtan_power(1),
        FunctionSpec.logtan_power(2),
        FunctionSpec.logsine_x(),
    ]
    g = catalan().value
    grid = [1e-9 + k * (math.pi / 2 - 2e-9) / 2000 for k in range(2001)]
    ok = True
    for f in catalog:
        value = abs(integrate_logtan(f, tol=1e-10).value)
        norm = math.sqrt(inner_product(f, f, tol=1e-10).value)
        ok = ok and value <= math.pi**2 / 4 * norm + 1e-8
        if f.kind != "logtan_power":  # unbounded near the endpoints
            sup = max(abs(f.value(x)) for x in grid)
            ok = ok and value <= 2.0 * g * sup + 1e-8
    assert _report(10, ok, f"Cauchy-Schwarz and sup-norm bounds over {len(catalog)} integrands")


def test_criterion_11_euler_cross_checks():
    oracle = integrate_plain(FunctionSpec.logsine_x(), tol=1e-11).value
    target = 7.0 / 16.0 * zeta_int(3).value - math.pi**2 / 8 * math.log(2)
    logsine_ok = abs(oracle - target) <= 1e-9
    series_ok = abs(euler_zeta3_series(40) - zeta_int(3).value) <= 1e-12
    ok = logsine_ok and series_ok
    assert _report(
        11, ok,
        f"x log sin oracle gap {abs(oracle - target):.2e}; "
        f"even-zeta series gap {abs(euler_zeta3_series(40) - zeta_int(3).value):.2e}",
    )


def test_criterion_12_randomized_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20260811)
    worst = 0.0
    for _ in range(50):
        degree = rng.randint(0, 10)
        coeffs = []
        for _ in range(degree + 1):
            den = rng.randint(1, 7)
            num = rng.randint(-5 * den, 5 * den)
            coeffs.append(Fraction(num, den))
        poly = Polynomial.from_rationals(coeffs)
        exact = eval_zeta_expr(exact_L(poly)).value
        oracle = integrate_logtan(FunctionSpec.polynomial(poly), tol=1e-10).value
        worst = max(worst, abs(exact - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    assert _report(12, ok, f"50 random polynomials, worst gap {worst:.2e}; {elapsed:.1f}s")
