"""Shifted-Legendre expansion machinery.

Expansion coefficients are computed numerically through the quadrature
module for every integrand, polynomials included; exact polynomial
integration exists only as a test oracle.  The square-root integrand also
gets an exact-rational route here because its inner products against the
basis reduce to rationals times ``sqrt(pi/2)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from .closed_forms import byerly_coeff, legendre_L_coeff
from .constants import eval_zeta_expr, zeta_int
from .core import ZetaExpr, shifted_legendre
from .quadrature import HALF_PI, FunctionSpec, inner_product


def legendre_values(x: float, n_max: int) -> list[float]:
    """Basis values of degrees ``0..n_max`` at ``x`` via the stable recurrence."""
    u = 4.0 * x / math.pi - 1.0
    vals = [1.0]
    if n_max >= 1:
        vals.append(u)
    for n in range(1, n_max):
        vals.append(((2 * n + 1) * u * vals[n] - n * vals[n - 1]) / (n + 1))
    return vals


class LegendreCoeffs(NamedTuple):
    """Truncated expansion coefficients ``c_n = (2n+1) <f, P~_n>``."""

    coeffs: tuple[float, ...]

    def evaluate(self, x: float) -> float:
        """Value of the truncated expansion at ``x``."""
        vals = legendre_values(x, len(self.coeffs) - 1)
        return math.fsum(c * v for c, v in zip(self.coeffs, vals))


def expand(f: FunctionSpec, N: int, tol: float = 1e-12) -> LegendreCoeffs:
    """Expansion coefficients of ``f`` through degree ``N``."""
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    coeffs = tuple(
        (2 * n + 1) * inner_product(f, FunctionSpec.polynomial(shifted_legendre(n)), tol).value
        for n in range(N + 1)
    )
    return LegendreCoeffs(coeffs)


class ApproxL(NamedTuple):
    """Truncated zeta-series value of the log-tan integral of ``f``.

    ``value = sum_k c_table[(N,k)] * (-1)^(k-1) pi^-(2k-1) (1-2^-(2k+1)) zeta(2k+1)``.
    """

    c_table: dict[tuple[int, int], float]
    value: float


def _odd_inner_products(f: FunctionSpec, N: int, tol: float) -> dict[int, float]:
    return {
        j: inner_product(f, FunctionSpec.polynomial(shifted_legendre(2 * j - 1)), tol).value
        for j in range(1, N + 1)
    }


def approx_L(f: FunctionSpec, N: int, tol: float = 1e-13) -> ApproxL:
    """Approximate the log-tan integral of ``f`` from N odd-degree projections.

    The table entry ``(N, k)`` is
    ``2 sum_{j=k}^{N} (4j-1) <f, P~_{2j-1}> (2j+2k-2)! / ((2k-1)! (2j-2k)!)``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    inner = _odd_inner_products(f, N, tol)
    c_table: dict[tuple[int, int], float] = {}
    for k in range(1, N + 1):
        c_table[(N, k)] = 2.0 * math.fsum(
            (4 * j - 1)
            * inner[j]
            * float(Fraction(factorial(2 * j + 2 * k - 2),
                             factorial(2 * k - 1) * factorial(2 * j - 2 * k)))
            for j in range(k, N + 1)
        )
    value = math.fsum(
        c_table[(N, k)]
        * (-1) ** (k - 1)
        * math.pi ** (1 - 2 * k)
        * (1.0 - 2.0 ** -(2 * k + 1))
        * zeta_int(2 * k + 1).value
        for k in range(1, N + 1)
    )
    return ApproxL(c_table, value)


def approx_L_direct(f: FunctionSpec, N: int, tol: float = 1e-13) -> float:
    """Same truncation summed in projection order: ``sum_j (4j-1) <f,P~_{2j-1}> L(P~_{2j-1})``.

    Agrees with :func:`approx_L` up to roundoff; kept as the independent
    summation order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    inner = _odd_inner_products(f, N, tol)
    return math.fsum(
        (4 * j - 1) * inner[j] * _legendre_L_value(2 * j - 1)
        for j in range(1, N + 1)
    )


@lru_cache(maxsize=None)
def _legendre_L_value(index: int) -> float:
    return eval_zeta_expr(legendre_L_coeff(index)).value


def parseval_defect(N: int) -> float:
    """``(pi/2)**4`` minus the first N squared odd-coefficient terms.

    Positive and strictly decreasing in N; tends to 0 as the expansion of
    ``log tan`` completes.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    partial = math.fsum(
        (4 * n - 1) * _legendre_L_value(2 * n - 1) ** 2 for n in range(1, N + 1)
    )
    return HALF_PI**4 - partial


def catalan_series(N: int) -> float:
    """Partial sum of the Legendre-coefficient series for Catalan's constant.

    ``sum_{n=1}^{N} (4n-1) * byerly_coeff(n) * L(P~_{2n-1})``, accumulated
    exactly and evaluated once.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    total = ZetaExpr()
    for n in range(1, N + 1):
        scale = (4 * n - 1) * byerly_coeff(n)
        total = total + legendre_L_coeff(2 * n - 1) * scale
    return eval_zeta_expr(total).value


def default_sample_grid() -> list[float]:
    """41 equispaced interior points on ``[0.2, pi/2 - 0.2]``."""
    lo, hi = 0.2, HALF_PI - 0.2
    step = (hi - lo) / 40
    return [lo + i * step for i in range(41)]


def logtan_expansion_value(x: float, N: int) -> float:
    """N-term odd-degree expansion of ``log tan`` at ``x``."""
    vals = legendre_values(x, 2 * N - 1)
    return (2.0 / math.pi) * math.fsum(
        (4 * n - 1) * _legendre_L_value(2 * n - 1) * vals[2 * n - 1]
        for n in range(1, N + 1)
    )


def logtan_reconstruction_error(N: int, sample_points: list[float] | None = None) -> float:
    """Max deviation of the N-term expansion from ``log tan`` on the grid.

    Sample points must stay inside the open interval and away from the
    endpoints, where ``log tan`` diverges; the default grid is 41 equispaced
    points on ``[0.2, pi/2 - 0.2]``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    points = default_sample_grid() if sample_points is None else list(sample_points)
    worst = 0.0
    for x in points:
        if not 0.0 < x < HALF_PI:
            raise ValueError(f"sample point outside the open interval: {x}")
        err = abs(math.log(math.tan(x)) - logtan_expansion_value(x, N))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Exact route for the square-root integrand.  With P~_n written through its
# explicit coefficients, <sqrt(x), x**k> = (pi/2)**k sqrt(pi/2) * 2/(2k+3),
# so every inner product is a rational multiple of sqrt(pi/2).


def sqrt_legendre_rationals(n_max: int) -> list[Fraction]:
    """Rationals ``r_n`` with ``<sqrt, P~_n> = r_n * sqrt(pi/2)``, n = 0..n_max."""
    out = []
    for n in range(n_max + 1):
        out.append(
            sum(
                Fraction((-1) ** (n + k) * comb(n, k) * comb(n + k, k) * 2, 2 * k + 3)
                for k in range(n + 1)
            )
        )
    return out


def sqrt_approx_L_exact(N: int) -> tuple[dict[int, Fraction], float]:
    """Exact-rational truncation of the sqrt integrand's zeta series.

    Returns ``(rationals, value)`` where ``rationals[k]`` multiplies
    ``zeta(2k+1) / (pi**(2k-2) * sqrt(2 pi))`` and ``value`` is the float
    total.  For N = 3 the rationals are 42/13, -1581/13, 13335/13.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rats = sqrt_legendre_rationals(2 * N - 1)
    total = ZetaExpr()
    for j in range(1, N + 1):
        scale = (4 * j - 1) * rats[2 * j - 1]
        total = total + legendre_L_coeff(2 * j - 1) * scale
    coefficients = {
        (m - 1) // 2: total.coefficient(m).coefficient(1 - (m - 1))
        for m in total.arguments()
    }
    value = eval_zeta_expr(total).value * math.sqrt(HALF_PI)
    return coefficients, value
