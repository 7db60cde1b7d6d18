"""Exact values of log-tangent integrals with polynomial-type integrands.

Everything funnels through the derivative formula implemented by
:func:`exact_L`; the moment, Euler-polynomial, and Legendre-coefficient
routines below are independent re-derivations kept as separate code paths so
they can be cross-checked against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .core import (
    HALF_PI,
    PiExpr,
    Polynomial,
    ZetaExpr,
    poly_derivative_at,
)

_ZERO_POINT = PiExpr.zero()


def exact_L(P: Polynomial) -> ZetaExpr:
    """Exact value of ``integral_0^{pi/2} P(x) log(tan x) dx``.

    For ``P`` of degree ``m`` the value is::

        sum_{k=1}^{floor((m+1)/2)} (-1)^(k-1) / 2^(2k-1)
            * [P^(2k-1)(pi/2) + P^(2k-1)(0)]
            * (1 - 2^-(2k+1)) * zeta(2k+1)

    Constant polynomials give the zero expression (the weight is odd about
    ``pi/4``).
    """
    terms: dict[int, PiExpr] = {}
    for k in range(1, (P.degree + 1) // 2 + 1):
        order = 2 * k - 1
        bracket = poly_derivative_at(P, order, HALF_PI) + poly_derivative_at(
            P, order, _ZERO_POINT
        )
        scale = Fraction((-1) ** (k - 1), 2 ** (2 * k - 1)) * (
            1 - Fraction(1, 2 ** (2 * k + 1))
        )
        term = bracket * scale
        if term:
            terms[2 * k + 1] = term
    return ZetaExpr(terms)


def moment(n: int) -> ZetaExpr:
    """Closed form of ``integral_0^{pi/2} x**n log(tan x) dx`` for ``n >= 1``.

    Odd ``n`` contributes a pure ``zeta(n+2)`` term with sign
    ``(-1)^floor((n-1)/2)``; every ``n`` contributes the floor-indexed sum
    over ``zeta(2k+1)`` with pi powers ``n - 2k + 1``.  Must agree with
    ``exact_L(x**n)`` structurally.
    """
    if n < 1:
        raise ValueError("moment degree must be >= 1")
    terms: dict[int, PiExpr] = {}
    if n % 2 == 1:
        q = Fraction((-1) ** ((n - 1) // 2) * factorial(n), 2 ** (n - 1)) * (
            1 - Fraction(1, 2 ** (n + 2))
        )
        terms[n + 2] = PiExpr({0: q})
    lead = Fraction(factorial(n), 2**n)
    for k in range(1, n // 2 + 1):
        q = lead * Fraction((-1) ** (k - 1), factorial(n - 2 * k + 1)) * (
            1 - Fraction(1, 2 ** (2 * k + 1))
        )
        m = 2 * k + 1
        extra = PiExpr({n - 2 * k + 1: q})
        terms[m] = terms[m] + extra if m in terms else extra
    return ZetaExpr(terms)


def euler_integral(n: int, parity: str) -> ZetaExpr:
    """Value of the scaled Euler polynomial integral of index ``2n`` or ``2n-1``.

    ``parity="even"`` is the integral of ``E_{2n}(2x/pi) log tan``, which is 0
    by the reflection symmetry ``E_n(1-x) = (-1)^n E_n(x)``.  ``parity="odd"``
    gives ``(-1)^(n-1) (2n-1)! pi^-(2n-1) (2 - 2^-2n) zeta(2n+1)``.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if parity == "even":
        return ZetaExpr()
    if parity != "odd":
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    q = Fraction((-1) ** (n - 1) * factorial(2 * n - 1)) * (2 - Fraction(1, 2 ** (2 * n)))
    return ZetaExpr({2 * n + 1: PiExpr({1 - 2 * n: q})})


def euler_integral_half(n: int) -> ZetaExpr:
    """The same odd-index integrand taken over ``[0, pi/4]`` only."""
    if n < 1:
        raise ValueError("index must be >= 1")
    q = Fraction((-1) ** (n - 1) * factorial(2 * n - 1)) * (
        1 - Fraction(1, 2 ** (2 * n + 1))
    )
    return ZetaExpr({2 * n + 1: PiExpr({1 - 2 * n: q})})


def euler_translated(n: int, parity: str, y) -> ZetaExpr:
    """Integral of the translated scaled Euler polynomial ``E(2x/pi + y)``.

    ``parity`` selects index ``2n`` ("even") or ``2n-1`` ("odd"); ``y`` must
    be an exact rational.  At ``y = 0`` the even case vanishes and the odd
    case reduces to :func:`euler_integral`.

    Expanding ``E_m(u + y)`` through the binomial translation identity and
    integrating termwise gives, for either parity,
    ``2 * m! * sum_{k=1}^{n} (-1)^(k-1) pi^-(2k-1) (1 - 2^-(2k+1))
    zeta(2k+1) y^e / e!`` with ``e = 2n-2k+1`` (even) or ``2n-2k`` (odd);
    the leading 2 is forced by the ``y = 0`` reduction.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    y = Fraction(y)
    if parity == "even":
        fact = factorial(2 * n)
        exponent = lambda k: 2 * n - 2 * k + 1  # noqa: E731
    elif parity == "odd":
        fact = factorial(2 * n - 1)
        exponent = lambda k: 2 * n - 2 * k  # noqa: E731
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    terms: dict[int, PiExpr] = {}
    for k in range(1, n + 1):
        e = exponent(k)
        q = 2 * fact * Fraction((-1) ** (k - 1), factorial(e)) * (
            1 - Fraction(1, 2 ** (2 * k + 1))
        ) * y**e
        if q:
            terms[2 * k + 1] = PiExpr({1 - 2 * k: q})
    return ZetaExpr(terms)


def cos_lemma(k: int) -> PiExpr:
    """``integral_0^{pi/2} cos(2kx) log(tan x) dx``: 0 for even k, -pi/(2k) odd."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 0:
        return PiExpr()
    return PiExpr({1: Fraction(-1, 2 * k)})


def legendre_L_coeff(index: int) -> ZetaExpr:
    """Exact log-tan integral of the shifted Legendre element of this degree.

    Even degrees integrate to zero.  For odd degree ``2n-1``::

        2 sum_{k=1}^{n} (-1)^(k-1) pi^-(2k-1)
            * (2(n+k-1))! / ((2k-1)! (2(n-k))!)
            * (1 - 2^-(2k+1)) * zeta(2k+1)

    Must equal ``exact_L(shifted_legendre(index))`` structurally.
    """
    if index < 1:
        raise ValueError("index must be >= 1")
    if index % 2 == 0:
        return ZetaExpr()
    n = (index + 1) // 2
    terms: dict[int, PiExpr] = {}
    for k in range(1, n + 1):
        q = Fraction(
            2 * (-1) ** (k - 1) * factorial(2 * (n + k - 1)),
            factorial(2 * k - 1) * factorial(2 * (n - k)),
        ) * (1 - Fraction(1, 2 ** (2 * k + 1)))
        terms[2 * k + 1] = PiExpr({1 - 2 * k: q})
    return ZetaExpr(terms)


def byerly_coeff(n: int) -> Fraction:
    """Quarter-interval integral ``-(2/pi) integral_0^{pi/4} P~_{2n-1}``.

    Byerly's closed form: ``(-1)^(n-1) C(2n-2, n-1) / (2^(2n) n)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction((-1) ** (n - 1) * comb(2 * n - 2, n - 1), 2 ** (2 * n) * n)
