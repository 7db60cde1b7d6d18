"""Floating-point evaluation: zeta values, Catalan's constant, digamma.

Results are native doubles with an error bound attached.  Every exact value
(zeta(s), Catalan's constant, a PiExpr or a ZetaExpr) is summed in integer
interval arithmetic, from P. Borwein's alternating series and Machin's
formula for pi, and correctly rounded, so its bound is half an ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import PiExpr, ZetaExpr, bernoulli

EULER_GAMMA = 0.5772156649015328606065120900824024310421593359399
LOG2 = 0.6931471805599453094172321214581765680755001343602


class NumericValue(NamedTuple):
    """A double-precision value with a nonnegative error bound."""

    value: float
    err_bound: float

    def __float__(self) -> float:
        return self.value


_ZETA_MEMO: dict[int, NumericValue] = {}


def zeta_int(s: int) -> NumericValue:
    """``zeta(s)`` for integer ``s >= 2``, correctly rounded to a double.

    The certified fixed-point value of :func:`_zeta_fixed`, rounded by
    :func:`_correctly_rounded`; the bound is half an ulp of the value.
    """
    if not isinstance(s, int):
        raise TypeError("zeta_int takes an integer argument")
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    hit = _ZETA_MEMO.get(s)
    if hit is None:
        hit = _correctly_rounded(lambda bits: (*_zeta_fixed(s, bits), 1 << bits), 64)
        _ZETA_MEMO[s] = hit
    return hit


def _correctly_rounded(interval: Callable[[int], tuple[int, int, int]], bits: int) -> NumericValue:
    """The correctly rounded double of a value enclosed by ``interval(bits)``.

    ``interval(bits)`` gives ``(mid, rad, scale)``, the value lying in
    ``(mid -+ rad) / scale``; bits double until both ends round alike (Ziv's
    test).  The bound is half an ulp, or the least double where that is less.
    """
    while True:
        mid, rad, scale = interval(bits)
        value = _to_float(mid - rad, scale)
        if value == _to_float(mid + rad, scale):
            return NumericValue(value, max(0.5 * math.ulp(value), math.ulp(0.0)))
        bits *= 2


# Fixed point: an integer z with error bound err stands for the interval
# (z - err, z + err) / 2**bits.  Caches: Borwein's d_k per term count, zeta
# per (s, bits) and pi per bits.
_BORWEIN_D: dict[int, list[int]] = {}
_ZETA_FIXED: dict[tuple[int, int], tuple[int, int]] = {}
_PI_FIXED: dict[int, tuple[int, int]] = {}
_LOG2_BORWEIN = math.log2(3.0 + math.sqrt(8.0))
_LOG2_PI = math.log2(math.pi)


def _borwein_d(n: int) -> list[int]:
    """``d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)`` for k = 0..n."""
    hit = _BORWEIN_D.get(n)
    if hit is None:
        term = 1  # the i = 0 summand
        hit = [1]
        for i in range(1, n + 1):
            term = term * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * (2 * i))
            hit.append(hit[-1] + term)
        _BORWEIN_D[n] = hit
    return hit


def _alternating_fixed(s: int, bits: int, step: int) -> tuple[int, int]:
    """``sum_k (-1)^k / (step*k + 1)**s * 2**bits`` within 3, by Borwein's series.

    Step 1 gives ``eta(s) = (1 - 2**(1-s)) zeta(s)``, step 2 Dirichlet's
    ``beta(s)``.  For terms ``a_k`` that are moments of a positive measure of
    mass 1 on [0, 1], as both are, ``sum_{k<n} (-1)^k (d_n - d_k) a_k / d_n``
    errs by at most ``3 / (3 + sqrt 8)^n`` (P. Borwein 2000, Alg. 2); n makes
    that one unit.  The floored terms before the division by d_n, the dropped
    tail of the alternating, decreasing sum and the last floor add under one each.
    """
    n = int((bits + 2) / _LOG2_BORWEIN) + 2
    d = _borwein_d(n)
    d_n = d[n]
    total = 0
    for k in range(n):
        term = ((d_n - d[k]) << bits) // (step * k + 1) ** s
        if not term:
            break
        total += -term if k & 1 else term
    return total // d_n, 3


def _zeta_fixed(s: int, bits: int) -> tuple[int, int]:
    """``zeta(s) * 2**bits`` within 7: eta(s) within 3, times ``2**(s-1) / (2**(s-1) - 1) <= 2``."""
    if s > bits + 1:
        # zeta(s) - 1 <= 3 * 2**-s < 2**-bits; 2**s is never built.
        return 1 << bits, 1
    key = (s, bits)
    hit = _ZETA_FIXED.get(key)
    if hit is None:
        eta, _ = _alternating_fixed(s, bits, 1)
        half = 1 << (s - 1)
        hit = (eta * half // (half - 1), 7)
        _ZETA_FIXED[key] = hit
    return hit


def _arctan_inv(x: int, bits: int) -> tuple[int, int]:
    """``atan(1/x) * 2**bits`` by its Taylor series, with its error bound."""
    power = (1 << bits) // x  # floor(2**bits / x**(2k+1)), one floor each
    total = 0
    k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    # One unit per floored term, one for the alternating, decreasing tail.
    return total, k + 1


def _pi_fixed(bits: int) -> tuple[int, int]:
    """``pi * 2**bits`` with its error bound, by Machin's formula in integers.

    ``pi = 16 atan(1/5) - 4 atan(1/239)``, summed with 20 guard bits.
    """
    hit = _PI_FIXED.get(bits)
    if hit is None:
        a, err_a = _arctan_inv(5, bits + 20)
        b, err_b = _arctan_inv(239, bits + 20)
        err = 16 * err_a + 4 * err_b
        hit = ((16 * a - 4 * b) >> 20, -(-err >> 20) + 1)
        _PI_FIXED[bits] = hit
    return hit


def zeta_even_exact(n: int) -> PiExpr:
    """Exact ``zeta(2n)`` as a rational multiple of ``pi**(2n)``.

    ``zeta(2n) = (-1)^(n-1) 2^(2n) B_{2n} / (2 (2n)!) * pi^(2n)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q = Fraction((-1) ** (n - 1) * 2 ** (2 * n), 2 * math.factorial(2 * n)) * bernoulli(2 * n)
    return PiExpr({2 * n: q})


def catalan() -> NumericValue:
    """Catalan's constant ``beta(2) = sum_k (-1)^k / (2k+1)^2``, correctly rounded."""
    return _correctly_rounded(lambda bits: (*_alternating_fixed(2, bits, 2), 1 << bits), 64)


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

    The bound counts each rounding to first order in ``u = 2**-53`` (Higham,
    ch. 4), for n steps, ``S = sum 1/x_k`` and the final ``X >= 18``.  ``x += 1``
    rounds only across 1, 2, 4, 8 and 16, so the x_k are within 5u: 5u S in the
    terms and under 5.2u (< 1.8u log X) in psi(X).  The terms round (u S), the
    n - 1 subtractions add (n - 1) u S, ``log X`` 2u log X, the last three
    additions 3u times the magnitudes, and the tail (< ``1/(12 X^2)``) 30u of
    itself: under ``u ((n + 8) S + 7 log X + 6/X)``, with S read from the
    rounded sum (one more n).  The series cut after B_14 errs by less than its
    next term, ``|B_16| / (16 X^16) < 0.45 X^-16``.
    """
    x = float(x)
    if not x > 0 or math.isinf(x) or math.isnan(x):
        raise ValueError("digamma requires finite x > 0")
    acc = 0.0
    steps = 0
    while x < _DIGAMMA_SWITCH:
        acc -= 1.0 / x
        x += 1.0
        steps += 1
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        tail = (tail + c) * inv2
    log_x = math.log(x)
    value = acc + log_x - 0.5 * inv - tail
    err = 2.0**-53 * ((steps + 9) * -acc + 7.0 * log_x + 6.0 * inv) + 0.45 * inv**16
    return NumericValue(value, err)


def eval_pi_expr(p: PiExpr) -> NumericValue:
    """Numeric value of a PiExpr, correctly rounded: :func:`_interval_sum` of one row, factor 1."""
    if not p:
        return NumericValue(0.0, 0.0)
    return _interval_sum([(None, p.terms)])


def eval_zeta_expr(e: ZetaExpr) -> NumericValue:
    """Numeric value of a ZetaExpr, correctly rounded, by :func:`_eval_zeta_expr_guarded`."""
    if not e:
        return NumericValue(0.0, 0.0)
    return _eval_zeta_expr_guarded(e)


def _eval_zeta_expr_guarded(e: ZetaExpr) -> NumericValue:
    """:func:`_interval_sum` of a nonzero ZetaExpr, one row per zeta(m)."""
    return _interval_sum([(m, e.coefficient(m).terms) for m in e.arguments()])


def _interval_sum(rows: list[tuple[int | None, dict[int, Fraction]]]) -> NumericValue:
    """``sum_rows factor * sum_j q_j pi**j`` in integer intervals, correctly rounded.

    A row ``(m, {j: q_j})`` has the factor zeta(m) from :func:`_zeta_fixed`, or
    1 for m None; pi is :func:`_pi_fixed`.  The rationals share one
    denominator, so only the zeta and pi intervals widen the sum.
    """
    rows = [(m, sorted(terms.items())) for m, terms in rows]
    den = math.lcm(*(q.denominator for _, row in rows for _, q in row))
    rows = [(m, [(j, q.numerator * (den // q.denominator)) for j, q in row]) for m, row in rows]
    exps = [j for _, row in rows for j, _ in row]
    # Bits of the largest coefficient times pi**j, j >= 0 (a start only; the
    # interval decides).  A negative power keeps its absolute error, so it
    # gets no credit.
    magnitude = max(abs(c).bit_length() + math.ceil(max(j, 0) * _LOG2_PI) for _, row in rows
                    for j, c in row) - den.bit_length()

    def interval(bits: int) -> tuple[int, int, int]:
        powers = _pi_powers(bits, min(exps), max(exps))
        mid = rad = 0
        for m, row in rows:
            c = sum(n * powers[j][0] for j, n in row)
            c_rad = sum(abs(n) * powers[j][1] for j, n in row)
            z, z_rad = (1 << bits, 0) if m is None else _zeta_fixed(m, bits)
            mid += c * z
            rad += abs(c) * z_rad + c_rad * (z + z_rad)
        return mid, rad, den << (2 * bits)

    return _correctly_rounded(interval, 128 + -(-max(0, magnitude) // 64) * 64)


def _pi_powers(bits: int, low: int, high: int) -> dict[int, tuple[int, int]]:
    """Fixed-point ``pi**j`` with error bounds for j = min(low, 0)..max(high, 0)."""
    pi = _pi_fixed(bits)
    # 1/x is 1-Lipschitz for x >= 1; one more unit for the floor.
    inverse = ((1 << (2 * bits)) // pi[0], pi[1] + 1)
    powers = {0: (1 << bits, 0)}
    for j in range(1, high + 1):
        powers[j] = _mul_fixed(powers[j - 1], pi, bits)
    for j in range(-1, low - 1, -1):
        powers[j] = _mul_fixed(powers[j + 1], inverse, bits)
    return powers


def _mul_fixed(x: tuple[int, int], y: tuple[int, int], bits: int) -> tuple[int, int]:
    (a, a_rad), (b, b_rad) = x, y
    rad = abs(a) * b_rad + abs(b) * a_rad + a_rad * b_rad
    return (a * b) >> bits, -(-rad >> bits) + 1


def _to_float(numerator: int, denominator: int) -> float:
    """The correctly rounded double of a ratio of integers, infinite beyond range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.copysign(math.inf, numerator)
