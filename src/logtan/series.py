"""Series identities tied to the log-tangent integral.

Covers the Fourier primitive of ``log tan``, the power series of ``log tan``
itself, parameterized exponential/hyperbolic/cosine integrals with their
digamma closed form, and the classic even-zeta series for ``zeta(3)``.
Truncation orders are always explicit arguments; nothing stops adaptively.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .closed_forms import exact_L
from .constants import digamma, eval_zeta_expr, zeta_int
from .core import Polynomial, ZetaExpr
from .quadrature import HALF_PI, FunctionSpec


def bradley_primitive(x: float, N: int) -> float:
    """Partial sum of ``integral_0^x log tan``: ``-sum_{n=0}^{N} sin(2(2n+1)x)/(2n+1)^2``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return -math.fsum(
        math.sin(2 * (2 * n + 1) * x) / (2 * n + 1) ** 2 for n in range(N + 1)
    )


def logtan_power_series(x: float, K: int) -> float:
    """``log tan x`` from its power series about 0.

    ``log x + 2 sum_{k=1}^{K} (2^(2k-1) - 1)/k * zeta(2k) * (x/pi)^(2k)``;
    the tail is geometric in ``(2x/pi)^2``.
    """
    if not 0.0 < x < HALF_PI:
        raise ValueError("x must lie in (0, pi/2)")
    if K < 1:
        raise ValueError("K must be >= 1")
    r = (2.0 * x / math.pi) ** 2
    q = (x / math.pi) ** 2
    rp = 1.0
    qp = 1.0
    terms = []
    for k in range(1, K + 1):
        rp *= r
        qp *= q
        terms.append((0.5 * rp - qp) * zeta_int(2 * k).value / k)
    return math.log(x) + 2.0 * math.fsum(terms)


def _require_unit_disc(z: float) -> float:
    z = float(z)
    if not abs(z) < 1.0:
        raise ValueError("need |z| < 1")
    return z


def _odd_zeta_tail_sum(z: float, N: int, alternating: bool) -> float:
    terms = []
    zp = z
    z2 = z * z
    for n in range(1, N + 1):
        coeff = (1.0 - 2.0 ** -(2 * n + 1)) * zeta_int(2 * n + 1).value
        if alternating:
            coeff *= (-1) ** (n - 1)
        terms.append(coeff * zp)
        zp *= z2
    return math.fsum(terms)


def exp_integral_series(z: float, N: int) -> float:
    """Series value of ``integral_0^{pi/2} e^{2zx} log tan`` for ``|z| < 1``.

    ``(e^{pi z} + 1) sum_{n>=1} (-1)^(n-1) (1 - 2^-(2n+1)) zeta(2n+1) z^(2n-1)``.
    """
    z = _require_unit_disc(z)
    if N < 1:
        raise ValueError("N must be >= 1")
    return (math.exp(math.pi * z) + 1.0) * _odd_zeta_tail_sum(z, N, alternating=True)


def sinh_identity_check(z: float, N: int, tol: float = 1e-12) -> tuple[float, float]:
    """Both sides of the hyperbolic-sine identity, (quadrature, series).

    lhs is ``integral sinh(2xz - pi z/2) log tan``; rhs is
    ``2 cosh(pi z/2)`` times the alternating odd-zeta series.
    """
    from .quadrature import integrate_logtan

    z = _require_unit_disc(z)
    if N < 1:
        raise ValueError("N must be >= 1")
    lhs = integrate_logtan(FunctionSpec.sinh_shift(z), tol=tol).value
    rhs = 2.0 * math.cosh(HALF_PI * z) * _odd_zeta_tail_sum(z, N, alternating=True)
    return lhs, rhs


def cos_integral_F(z: float) -> float:
    """Closed form of ``integral_0^{pi/2} cos(2xz) log tan`` for ``|z| < 1``.

    ``sin(pi z)/(4z) * [psi((1+z)/2) + psi((1-z)/2) - 2 psi(1/2)]``; the
    removable singularity at z = 0 returns the limit 0.
    """
    z = float(z)
    if z == 0.0:
        return 0.0
    if not abs(z) < 1.0:
        raise ValueError("need |z| < 1")
    psi_half = digamma(0.5).value
    bracket = (
        digamma((1.0 + z) / 2.0).value
        + digamma((1.0 - z) / 2.0).value
        - 2.0 * psi_half
    )
    return math.sin(math.pi * z) / (4.0 * z) * bracket


class SeriesPartialSum(NamedTuple):
    """A truncated series value; the last term is a truncation heuristic."""

    N: int
    value: float
    last_term: float


def partial_sum_S(z: float, N: int) -> SeriesPartialSum:
    """``S_N(z) = sum_{n=1}^{N} (1 - 2^-(2n+1)) zeta(2n+1) z^(2n-1)``.

    Satisfies ``-sin(pi z) S_N(z) -> cos_integral_F(z)`` as N grows.
    """
    z = _require_unit_disc(z)
    if N < 1:
        raise ValueError("N must be >= 1")
    value = _odd_zeta_tail_sum(z, N, alternating=False)
    last = (1.0 - 2.0 ** -(2 * N + 1)) * zeta_int(2 * N + 1).value * z ** (2 * N - 1)
    return SeriesPartialSum(N, value, last)


def smooth_L_series(f: FunctionSpec, K: int, z: float = 1.0) -> float:
    """Derivative series for the log-tan integral of a smooth integrand.

    With ``z = 1`` this is
    ``sum_{k=1}^{K} (-1)^(k-1) 2^(1-2k) [f^(2k-1)(0) + f^(2k-1)(pi/2)]
    (1 - 2^-(2k+1)) zeta(2k+1)``; for ``|z| <= 1`` the integrand is ``f(zx)``
    and the bracket is taken at ``0`` and ``pi z/2`` with an extra
    ``z^(2k-1)``.  Polynomial and monomial input goes through ``exact_L``:
    the value is ``exact_L(P(qx))`` with ``q = Fraction(z)``, cut to its
    ``zeta(m)`` terms with ``m <= 2K+1`` and evaluated once, because the
    terms are large and alternate.  Other kinds without
    ``FunctionSpec.derivative`` raise.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not abs(z) <= 1.0:
        raise ValueError("need |z| <= 1")
    poly = Polynomial.monomial(f.param) if f.kind == "monomial" else f.param
    if isinstance(poly, Polynomial):
        closed = exact_L(poly.compose_affine(Fraction(z), 0)).terms
        kept = ZetaExpr({m: c for m, c in closed.items() if m <= 2 * K + 1})
        return eval_zeta_expr(kept).value
    if isinstance(f.param, float) and not abs(f.param) < 1.0:
        raise ValueError("parameterized integrands need |parameter| < 1")
    terms = []
    for k in range(1, K + 1):
        order = 2 * k - 1
        bracket = f.derivative(order, 0.0) + f.derivative(order, HALF_PI * z)
        terms.append(
            (-1) ** (k - 1)
            * 2.0 ** (1 - 2 * k)
            * bracket
            * (1.0 - 2.0 ** -(2 * k + 1))
            * zeta_int(2 * k + 1).value
            * z**order
        )
    return math.fsum(terms)


def euler_zeta3_series(N: int) -> float:
    """Even-zeta series for Apery's constant.

    ``(pi^2/7) * (1 - 2 sum_{n=1}^{N} zeta(2n) / (2^(2n) (2n+1) (n+1)))``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    inner = math.fsum(
        zeta_int(2 * n).value / (2 ** (2 * n) * (2 * n + 1) * (n + 1))
        for n in range(1, N + 1)
    )
    return math.pi**2 / 7.0 * (1.0 - 2.0 * inner)
