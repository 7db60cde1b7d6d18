"""Floating-point evaluation: zeta values, Catalan's constant, digamma.

Also numerically evaluates the exact expression types.  Results are native
doubles with an a-priori truncation bound attached; ill-conditioned exact
expressions (alternating sums with huge factorial terms) are re-evaluated
with guard digits internally so the returned double is fully accurate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import PiExpr, ZetaExpr, bernoulli

EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399
LOG2 = 0.6931471805599453094172321214581765680755001343602

_LOG10_PI = 0.49714987269413385435


class NumericValue(NamedTuple):
    """A double-precision value with a nonnegative error bound."""

    value: float
    err_bound: float

    def __float__(self) -> float:
        return self.value


_ZETA_MEMO: dict[int, NumericValue] = {}
_S_UNDERFLOW = 1100  # 2.0 ** -1100 == 0.0


def zeta_int(s: int) -> NumericValue:
    """``zeta(s)`` for integer ``s >= 2`` to near machine precision.

    Direct summation plus Euler-Maclaurin tail corrections; the reported
    bound is the first omitted correction term.
    """
    if not isinstance(s, int):
        raise TypeError("zeta_int takes an integer argument")
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    hit = _ZETA_MEMO.get(s)
    if hit is None:
        # From s = _S_UNDERFLOW on, every term but 1 underflows to 0.0, so the
        # result no longer depends on s; s may not even convert to a float.
        hit = _zeta_euler_maclaurin(min(s, _S_UNDERFLOW))
        _ZETA_MEMO[s] = hit
    return hit


def _zeta_euler_maclaurin(s: int, n_direct: int = 64, n_corr: int = 8) -> NumericValue:
    parts = [float(k) ** -s for k in range(1, n_direct)]
    big_n = float(n_direct)
    parts.append(big_n ** (1 - s) / (s - 1))
    parts.append(0.5 * big_n**-s)
    for j in range(1, n_corr + 1):
        parts.append(_em_correction(s, j, big_n))
    value = math.fsum(parts)
    bound = abs(_em_correction(s, n_corr + 1, big_n)) + 4e-16 * abs(value)
    return NumericValue(value, bound)


def _em_correction(s: int, j: int, big_n: float) -> float:
    scale = big_n ** (-s - 2 * j + 1)
    if scale == 0.0:
        return 0.0
    rising = 1.0
    for i in range(2 * j - 1):
        rising *= s + i
    return float(bernoulli(2 * j)) / math.factorial(2 * j) * rising * scale


def zeta_even_exact(n: int) -> PiExpr:
    """Exact ``zeta(2n)`` as a rational multiple of ``pi**(2n)``.

    ``zeta(2n) = (-1)^(n-1) 2^(2n) B_{2n} / (2 (2n)!) * pi^(2n)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = Fraction((-1) ** (n - 1) * 2 ** (2 * n), 2 * math.factorial(2 * n)) * bernoulli(2 * n)
    return PiExpr({2 * n: q})


def catalan() -> NumericValue:
    """Catalan's constant ``sum_k (-1)^k / (2k+1)^2`` by series acceleration.

    Uses the Cohen-Villegas-Zagier transformation of the alternating series;
    each extra term cuts the error by a factor ``3 + sqrt(8)``.
    """
    n = 40
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c / (2 * k + 1) ** 2
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    value = s / d
    return NumericValue(value, 3.0 / (3.0 + math.sqrt(8.0)) ** n + 4e-16 * abs(value))


# B_{2j} / (2j) for j = 1..7, the asymptotic-series coefficients.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_DIGAMMA_SWITCH = 18.0


def digamma(x: float) -> NumericValue:
    """Digamma ``psi(x)`` for ``x > 0``.

    Upward recurrence ``psi(x+1) = psi(x) + 1/x`` to a large argument, then
    the Bernoulli asymptotic series.
    """
    x = float(x)
    if not x > 0 or math.isinf(x) or math.isnan(x):
        raise ValueError("digamma requires finite x > 0")
    acc = 0.0
    while x < _DIGAMMA_SWITCH:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        tail = (tail + c) * inv2
    value = acc + math.log(x) - 0.5 * inv - tail
    return NumericValue(value, 1e-15 * (1.0 + abs(value)))


def eval_pi_expr(p: PiExpr) -> NumericValue:
    """Numeric value of a PiExpr, with linear error propagation."""
    terms = [float(q) * math.pi**j for j, q in sorted(p.terms.items())]
    if not terms:
        return NumericValue(0.0, 0.0)
    value = math.fsum(terms)
    return NumericValue(value, 4e-16 * math.fsum(abs(t) for t in terms))


def eval_zeta_expr(e: ZetaExpr) -> NumericValue:
    """Numeric value of a ZetaExpr.

    Fast path: double-precision terms from :func:`zeta_int` summed exactly.
    When cancellation between large terms would contaminate the double
    result, the sum is redone with enough guard digits and rounded once.
    """
    if not e:
        return NumericValue(0.0, 0.0)
    try:
        terms = []
        zeta_err = 0.0
        for m in e.arguments():
            z = zeta_int(m)
            coeff = e.coefficient(m)
            for j, q in sorted(coeff.terms.items()):
                weight = float(q) * math.pi**j
                terms.append(weight * z.value)
                zeta_err += abs(weight) * z.err_bound
        value = math.fsum(terms)
        err = 4e-16 * math.fsum(abs(t) for t in terms) + zeta_err
        if err <= 1e-13 * max(1.0, abs(value)):
            return NumericValue(value, err)
    except OverflowError:
        pass
    return _eval_zeta_expr_guarded(e)


def _log10_fraction(q: Fraction) -> float:
    return (abs(q.numerator).bit_length() - q.denominator.bit_length()) * 0.30103


def _eval_zeta_expr_guarded(e: ZetaExpr) -> NumericValue:
    import mpmath  # deferred: only this rare path needs it, and it is slow to import

    magnitude = 0.0
    for m, coeff in e.terms.items():
        for j, q in coeff.terms.items():
            magnitude = max(magnitude, _log10_fraction(q) + j * _LOG10_PI)
    dps = 40 + max(0, int(magnitude) + 1)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for m in e.arguments():
            zm = mpmath.zeta(m)
            coeff = e.coefficient(m)
            for j, q in sorted(coeff.terms.items()):
                total += mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**j * zm
        value = float(total)
    err = 10.0 ** (magnitude - dps + 8) + 4e-16 * abs(value)
    return NumericValue(value, err)
