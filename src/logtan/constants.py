"""Floating-point evaluation: zeta values, Catalan's constant, digamma.

Also numerically evaluates the exact expression types.  Results are native
doubles with an a-priori truncation bound attached.  Zeta values come from
P. Borwein's series in integer fixed point, correctly rounded; ill-conditioned
exact expressions (alternating sums with huge factorial terms) are summed in
integer interval arithmetic, so the returned double is fully accurate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

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

    The certified fixed-point value of :func:`_zeta_fixed` at 64 bits, with
    the precision doubled until both ends of its interval round to the same
    double (Ziv's test).  The reported bound is ``4e-16 * value``.
    """
    if not isinstance(s, int):
        raise TypeError("zeta_int takes an integer argument")
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    hit = _ZETA_MEMO.get(s)
    if hit is None:
        bits = 64
        while True:
            z, err = _zeta_fixed(s, bits)
            value = (z - err) / (1 << bits)
            if value == (z + err) / (1 << bits):
                break
            bits *= 2
        hit = NumericValue(value, 4e-16 * value)
        _ZETA_MEMO[s] = hit
    return hit


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


def _zeta_fixed(s: int, bits: int) -> tuple[int, int]:
    """``zeta(s) * 2**bits`` within 7, by P. Borwein's alternating series.

    With n terms, ``(1 - 2**(1-s)) zeta(s) = sum_{k<n} (-1)^k (d_n - d_k)
    / (d_n (k+1)^s)`` up to ``3 / (3 + sqrt 8)^n`` (Borwein 2000, Alg. 2);
    n is chosen so that this is at most one unit.  Each floored term errs by
    less than one unit before the division by d_n, the dropped tail of the
    alternating, decreasing sum by less than one; so the eta value errs by
    less than 3 units and zeta, after the factor ``2**(s-1) / (2**(s-1) - 1)
    <= 2`` and one more floor, by less than 7.
    """
    if s > bits + 1:
        # zeta(s) - 1 <= 3 * 2**-s < 2**-bits; 2**s is never built.
        return 1 << bits, 1
    key = (s, bits)
    hit = _ZETA_FIXED.get(key)
    if hit is None:
        n = int((bits + 2) / _LOG2_BORWEIN) + 2
        d = _borwein_d(n)
        d_n = d[n]
        total = 0
        for k in range(n):
            term = ((d_n - d[k]) << bits) // (k + 1) ** s
            if not term:
                break
            total += -term if k & 1 else term
        half = 1 << (s - 1)
        hit = (total // d_n * half // (half - 1), 7)
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
    result, the sum is redone in integer interval arithmetic and rounded once.
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


def _eval_zeta_expr_guarded(e: ZetaExpr) -> NumericValue:
    """The ZetaExpr summed in integer interval arithmetic and rounded once.

    zeta(m) comes from :func:`_zeta_fixed` and pi from :func:`_pi_fixed`; the
    rationals share one denominator, so the sum itself is exact.  The
    precision is doubled until both ends of the interval round to the same
    double.  The bound is ``4e-16 * |value|`` plus the interval's half-width.
    """
    rows = [(m, sorted(e.coefficient(m).terms.items())) for m in e.arguments()]
    den = math.lcm(*(q.denominator for _, row in rows for _, q in row))
    rows = [(m, [(j, q.numerator * (den // q.denominator)) for j, q in row]) for m, row in rows]
    exps = [j for _, row in rows for j, _ in row]
    # Bits of the largest coefficient times pi**j, j >= 0 (a start only; the
    # interval decides).  A negative power keeps its absolute error, so it
    # gets no credit.
    magnitude = max(abs(c).bit_length() + math.ceil(max(j, 0) * _LOG2_PI) for _, row in rows
                    for j, c in row) - den.bit_length()
    bits = 128 + -(-max(0, magnitude) // 64) * 64
    while True:
        powers = _pi_powers(bits, min(exps), max(exps))
        mid = rad = 0
        for m, row in rows:
            c = sum(n * powers[j][0] for j, n in row)
            c_rad = sum(abs(n) * powers[j][1] for j, n in row)
            z, z_rad = _zeta_fixed(m, bits)
            mid += c * z
            rad += abs(c) * z_rad + c_rad * (z + z_rad)
        scale = den << (2 * bits)
        value = _to_float(mid - rad, scale)
        if value == _to_float(mid + rad, scale):
            return NumericValue(value, 4e-16 * abs(value) + rad / scale)
        bits *= 2


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
