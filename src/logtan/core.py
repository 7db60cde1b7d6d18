"""Exact scalar and polynomial arithmetic for log-tangent integral values.

The scalar tower is ``Fraction`` -> :class:`PiExpr` (finite rational
combinations of integer powers of pi) -> :class:`ZetaExpr` (PiExpr
coefficients attached to ``zeta(m)`` for odd ``m >= 3``).  Polynomials carry
PiExpr coefficients so substitutions such as ``x -> 2x/pi`` and evaluation at
``x = pi/2`` stay exact.  Everything here is immutable after construction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

# pi to 60 significant digits, as an exact fraction.  Used where polynomial
# coefficients containing powers of pi must be folded into a single rational
# for cancellation-free Horner evaluation.
PI_FRACTION = Fraction(
    314159265358979323846264338327950288419716939937510582097494,
    10**59,
)

# Fraction bits of the fixed-point table that Polynomial.evaluate_float runs
# Horner over: coefficient k is stored as the integer round(c_k * 2**F).
_FIXED_BITS = 256
_FIXED_ONE = 1 << _FIXED_BITS


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class PiExpr:
    """Finite sum ``sum_j q_j * pi**j`` with rational ``q_j``, integer ``j``.

    Exponents may be negative (``2/pi`` is ``PiExpr({-1: 2})``).  Zero
    coefficients are never stored; the empty expression is zero.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                q = _as_fraction(coeff)
                if q:
                    clean[int(exp)] = q
        self._terms = clean

    @classmethod
    def zero(cls) -> "PiExpr":
        return cls()

    @classmethod
    def from_rational(cls, q: RationalLike) -> "PiExpr":
        return cls({0: q})

    @classmethod
    def pi_power(cls, exponent: int, coeff: RationalLike = 1) -> "PiExpr":
        return cls({exponent: coeff})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def coefficient(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    def is_rational(self) -> bool:
        return all(j == 0 for j in self._terms)

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; error if any pi power remains."""
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return self._terms.get(0, Fraction(0))

    def to_fraction(self) -> Fraction:
        """Collapse to a single Fraction with ``PI_FRACTION`` standing in for pi."""
        total = Fraction(0)
        for j, q in self._terms.items():
            total += q * PI_FRACTION**j
        return total

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        other = _coerce_pi(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for j, q in other._terms.items():
            merged[j] = merged.get(j, Fraction(0)) + q
        return PiExpr(merged)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_pi(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_pi(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "PiExpr":
        return PiExpr({j: -q for j, q in self._terms.items()})

    def __mul__(self, other):
        other = _coerce_pi(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for j1, q1 in self._terms.items():
            for j2, q2 in other._terms.items():
                j = j1 + j2
                out[j] = out.get(j, Fraction(0)) + q1 * q2
        return PiExpr(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if not q:
                raise ZeroDivisionError("division of PiExpr by zero")
            return PiExpr({j: c / q for j, c in self._terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = PiExpr.from_rational(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = _coerce_pi(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"PiExpr({format_pi_expr(self)!r})"


def _coerce_pi(value):
    if isinstance(value, PiExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return PiExpr({0: value})
    return NotImplemented


PI = PiExpr.pi_power(1)
HALF_PI = PiExpr.pi_power(1, Fraction(1, 2))
QUARTER_PI = PiExpr.pi_power(1, Fraction(1, 4))


class Polynomial:
    """Dense polynomial in ``x``; coefficient ``k`` multiplies ``x**k``.

    Coefficients are :class:`PiExpr` values, so both pi-free polynomials and
    scaled families like the shifted Legendre basis live in one type.
    """

    __slots__ = ("_coeffs", "_fixed", "_folded")

    def __init__(self, coeffs: Iterable):
        cs = [c if isinstance(c, PiExpr) else PiExpr({0: c}) for c in coeffs]
        if not cs:
            cs = [PiExpr()]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)
        self._fixed = None
        self._folded = None

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([])

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([c])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @classmethod
    def monomial(cls, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * n + [1])

    @classmethod
    def from_rationals(cls, coeffs: Iterable[RationalLike]) -> "Polynomial":
        return cls([PiExpr({0: c}) for c in coeffs])

    @property
    def coeffs(self) -> tuple[PiExpr, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return len(self._coeffs) == 1 and not self._coeffs[0]

    def coeff(self, k: int) -> PiExpr:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return PiExpr()

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = [PiExpr() for _ in range(len(self._coeffs) + len(other._coeffs) - 1)]
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        scalar = _coerce_pi(other)
        if scalar is NotImplemented:
            return NotImplemented
        return Polynomial([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = Polynomial([k * c for k, c in enumerate(p._coeffs)][1:])
        return p

    def antiderivative(self) -> "Polynomial":
        return Polynomial([PiExpr()] + [c / (k + 1) for k, c in enumerate(self._coeffs)])

    def evaluate(self, point) -> PiExpr:
        """Exact Horner evaluation at a PiExpr (or rational) point."""
        pt = _coerce_pi(point)
        if pt is NotImplemented:
            raise TypeError(f"cannot evaluate at {point!r}")
        acc = PiExpr()
        for c in reversed(self._coeffs):
            acc = acc * pt + c
        return acc

    def evaluate_float(self, x: float) -> float:
        """Value at a float, rounded once from the exact value of the
        polynomial with its coefficients folded with ``PI_FRACTION``.

        Fast path: with ``c_v`` the lowest nonzero coefficient, a finite float
        ``x = m / 2**s`` runs through integer Horner over ``c_v .. c_n``
        rounded to units of ``2**-256``, ``acc = (acc*m >> s) + C_k``.  Each
        step errs by at most 1 unit for the floor and 1/2 for the coefficient,
        so ``sum_k c_k x**(k-v)`` lies within ``1.5 * (n-v+1) * 2**(e*(n-v))``
        units of ``acc`` for ``|x| < 2**e`` (Higham, ch. 5); that bound ``B``
        is an integer.  As ``x**v = m**v / 2**(s*v)`` exactly, the value lies
        between ``(acc -+ B) * m**v / 2**(256 + s*v)``.  When both ends round
        to the same double with the same sign, so does everything between
        them, and that double is returned (Ziv's rounding test); factoring out
        ``x**v`` keeps the test decisive at tiny ``x`` when ``P(0) = 0``.
        Fallback: otherwise, and for any other input, exact rational Horner
        decides.  The result, or the exception, is therefore bit for bit that
        of ``float(sum(c.to_fraction() * Fraction(x)**k))``.  The fixed-point
        table is built on first use and the rational one on first fallback;
        both are kept on the polynomial.
        """
        if self._fixed is None:
            folded = [c.to_fraction() for c in self._coeffs]
            v = next((k for k, c in enumerate(folded) if c), 0)
            self._fixed = v, tuple(round(c * _FIXED_ONE) for c in reversed(folded[v:]))
        v, table = self._fixed
        if isinstance(x, float) and math.isfinite(x):
            m, d = x.as_integer_ratio()
            s = d.bit_length() - 1
            acc = 0
            for c in table:
                acc = ((acc * m) >> s) + c
            n = len(table) - 1
            e = max(abs(m).bit_length() - s, 0)
            bound = ((3 * n + 5) // 2) << (e * n)
            lo, hi, unit = acc - bound, acc + bound, _FIXED_ONE
            if v:
                scale = m**v
                lo, hi, unit = lo * scale, hi * scale, unit << (s * v)
            try:
                lo, hi = lo / unit, hi / unit
                if lo == hi and (lo or math.copysign(1.0, lo) == math.copysign(1.0, hi)):
                    return lo
            except OverflowError:
                pass
        return self._evaluate_exact(x)

    def _evaluate_exact(self, x) -> float:
        if self._folded is None:
            self._folded = tuple(c.to_fraction() for c in reversed(self._coeffs))
        acc = Fraction(0)
        xf = Fraction(x)
        for c in self._folded:
            acc = acc * xf + c
        return float(acc)

    def compose_affine(self, a, b) -> "Polynomial":
        """The polynomial ``P(a*x + b)`` for exact scalars ``a``, ``b``."""
        inner = Polynomial([b, a])
        acc = Polynomial.zero()
        for c in reversed(self._coeffs):
            acc = acc * inner + Polynomial.constant(c)
        return acc

    def definite_integral(self, lo, hi) -> PiExpr:
        anti = self.antiderivative()
        return anti.evaluate(hi) - anti.evaluate(lo)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[format_pi_expr(c) for c in self._coeffs]})"


class ZetaExpr:
    """Finite sum ``sum_m c_m(pi) * zeta(m)`` over odd integers ``m >= 3``.

    Coefficients are :class:`PiExpr`; equality is structural on fully reduced
    terms.  The empty expression is the exact zero.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, object] | None = None):
        clean: dict[int, PiExpr] = {}
        if terms:
            for m, coeff in terms.items():
                p = _coerce_pi(coeff)
                if p is NotImplemented:
                    raise TypeError(f"bad coefficient for zeta({m}): {coeff!r}")
                if not p:
                    continue
                m = int(m)
                if m < 3 or m % 2 == 0:
                    raise ValueError(f"zeta argument must be odd and >= 3, got {m}")
                clean[m] = p
        self._terms = clean

    @classmethod
    def zero(cls) -> "ZetaExpr":
        return cls()

    @classmethod
    def single(cls, m: int, coeff) -> "ZetaExpr":
        return cls({m: coeff})

    @property
    def terms(self) -> dict[int, PiExpr]:
        return dict(self._terms)

    def coefficient(self, m: int) -> PiExpr:
        return self._terms.get(m, PiExpr())

    def arguments(self) -> list[int]:
        return sorted(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        merged = dict(self._terms)
        for m, p in other._terms.items():
            merged[m] = merged.get(m, PiExpr()) + p
        return ZetaExpr(merged)

    def __sub__(self, other):
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ZetaExpr":
        return ZetaExpr({m: -p for m, p in self._terms.items()})

    def __mul__(self, scalar):
        s = _coerce_pi(scalar)
        if s is NotImplemented:
            return NotImplemented
        return ZetaExpr({m: p * s for m, p in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"ZetaExpr({format_zeta_expr(self)!r})"


# ---------------------------------------------------------------------------
# Bernoulli numbers and the Euler / shifted Legendre polynomial families.

_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Bernoulli number ``B_n`` (convention ``B_1 = -1/2``), exactly.

    Built from the convolution recurrence
    ``sum_{k=0}^{n} C(n+1, k) B_k = 0`` with a memoized table.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _BERNOULLI[k]
        _BERNOULLI.append(-acc / (m + 1))
    return _BERNOULLI[n]


def bernoulli_table(n_max: int) -> list[Fraction]:
    """The numbers ``B_0 .. B_n_max`` as a list."""
    bernoulli(n_max)
    return _BERNOULLI[: n_max + 1]


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Polynomial:
    """Euler polynomial ``E_n(x)`` with exact rational coefficients.

    From the Bernoulli numbers,
    ``E_n(x) = 2/(n+1) sum_{k=1}^{n+1} C(n+1, k) (1 - 2^k) B_k x^(n+1-k)``,
    that is ``2/(n+1) [B_{n+1}(x) - 2^(n+1) B_{n+1}(x/2)]``.
    """
    if n < 0:
        raise ValueError("Euler polynomial index must be >= 0")
    B = bernoulli_table(n + 1)
    return Polynomial.from_rationals(
        Fraction(2 * comb(n + 1, k) * (1 - 2**k), n + 1) * B[k] for k in range(n + 1, 0, -1)
    )


_TWO_OVER_PI = PiExpr.pi_power(-1, 2)


@lru_cache(maxsize=None)
def euler_poly_scaled(n: int) -> Polynomial:
    """``E_n(2x/pi)`` as a polynomial in ``x``; degree-k coefficient carries pi**-k."""
    return euler_poly(n).compose_affine(_TWO_OVER_PI, 0)


@lru_cache(maxsize=None)
def shifted_legendre(n: int) -> Polynomial:
    """Shifted Legendre polynomial on ``[0, pi/2]``, explicit form.

    ``(-1)**n * sum_k C(n, k) C(n+k, k) (-2/pi)**k x**k``; orthogonal under
    ``<f, g> = (2/pi) integral_0^{pi/2} f g`` with norm ``1/(2n+1)``.
    """
    if n < 0:
        raise ValueError("Legendre index must be >= 0")
    coeffs = []
    for k in range(n + 1):
        q = Fraction((-1) ** (n + k) * comb(n, k) * comb(n + k, k) * 2**k)
        coeffs.append(PiExpr({-k: q}))
    return Polynomial(coeffs)


def shifted_legendre_rodrigues(n: int) -> Polynomial:
    """Same basis element built from the Rodrigues derivative form.

    Kept as an independent construction so the explicit form can be checked
    against ``(-1)**n / n! * (2/pi)**n * d^n/dx^n [x**n (pi/2 - x)**n]``.
    """
    if n < 0:
        raise ValueError("Legendre index must be >= 0")
    w = Polynomial([PiExpr(), HALF_PI, PiExpr({0: -1})])  # x*(pi/2 - x)
    p = (w**n).derivative(n)
    scale = PiExpr({-n: Fraction((-1) ** n * 2**n, factorial(n))})
    return p * scale


def shifted_legendre_deriv_at_zero(n: int, m: int) -> PiExpr:
    """The m-th derivative of the degree-n shifted Legendre polynomial at 0.

    Equals ``(-1)**(n+m) (2/pi)**m (n+m)! / (m! (n-m)!)``.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    q = Fraction((-1) ** (n + m) * 2**m * factorial(n + m), factorial(m) * factorial(n - m))
    return PiExpr({-m: q})


def poly_derivative_at(P: Polynomial, order: int, point) -> PiExpr:
    """Exact value of the order-th derivative of ``P`` at an exact point."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order > P.degree:
        return PiExpr()
    return P.derivative(order).evaluate(point)


# ---------------------------------------------------------------------------
# Rendering and parsing of exact expressions.
#
# Grammar: terms joined by " + " / " - "; each term is
# "[p/q][ * pi[^j]][ * zeta(m)]" with unit factors omitted.  Rendered strings
# parse back to structurally equal values.

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_PI_RE = re.compile(r"^pi(?:\^(-?\d+))?$")
_ZETA_RE = re.compile(r"^zeta\((\d+)\)$")
_SPLIT_RE = re.compile(r" ([+-]) ")


def _render_term(q: Fraction, j: int, m: int | None) -> str:
    factors = []
    aq = abs(q)
    if aq != 1 or (j == 0 and m is None):
        factors.append(str(aq))
    if j != 0:
        factors.append("pi" if j == 1 else f"pi^{j}")
    if m is not None:
        factors.append(f"zeta({m})")
    return " * ".join(factors)


def _format_terms(terms: list[tuple[Fraction, int, int | None]]) -> str:
    if not terms:
        return "0"
    pieces = []
    for i, (q, j, m) in enumerate(terms):
        body = _render_term(q, j, m)
        if i == 0:
            pieces.append("-" + body if q < 0 else body)
        else:
            pieces.append((" - " if q < 0 else " + ") + body)
    return "".join(pieces)


def format_pi_expr(p: PiExpr) -> str:
    return _format_terms([(p.coefficient(j), j, None) for j in sorted(p.terms)])


def format_zeta_expr(z: ZetaExpr) -> str:
    terms = []
    for m in z.arguments():
        coeff = z.coefficient(m)
        for j in sorted(coeff.terms):
            terms.append((coeff.coefficient(j), j, m))
    return _format_terms(terms)


def _parse_terms(text: str) -> list[tuple[int, str]]:
    s = text.strip()
    if not s:
        raise ValueError("empty expression")
    chunks = _SPLIT_RE.split(s)
    first = chunks[0].strip()
    sign = 1
    if first.startswith("-"):
        sign = -1
        first = first[1:].strip()
    entries = [(sign, first)]
    for op, term in zip(chunks[1::2], chunks[2::2]):
        entries.append((1 if op == "+" else -1, term.strip()))
    return entries


def _parse_factors(term: str) -> tuple[Fraction, int, int | None]:
    q = Fraction(1)
    j = 0
    m: int | None = None
    for factor in term.split(" * "):
        factor = factor.strip()
        if _RATIONAL_RE.match(factor):
            q *= Fraction(factor)
        elif pm := _PI_RE.match(factor):
            j += int(pm.group(1)) if pm.group(1) else 1
        elif zm := _ZETA_RE.match(factor):
            if m is not None:
                raise ValueError(f"repeated zeta factor in {term!r}")
            m = int(zm.group(1))
        else:
            raise ValueError(f"unrecognized factor {factor!r} in term {term!r}")
    return q, j, m


def parse_pi_expr(text: str) -> PiExpr:
    """Inverse of :func:`format_pi_expr`."""
    if text.strip() == "0":
        return PiExpr()
    total = PiExpr()
    for sign, term in _parse_terms(text):
        q, j, m = _parse_factors(term)
        if m is not None:
            raise ValueError(f"unexpected zeta factor in {term!r}")
        total = total + PiExpr({j: sign * q})
    return total


def parse_zeta_expr(text: str) -> ZetaExpr:
    """Inverse of :func:`format_zeta_expr`."""
    if text.strip() == "0":
        return ZetaExpr()
    total = ZetaExpr()
    for sign, term in _parse_terms(text):
        q, j, m = _parse_factors(term)
        if m is None:
            raise ValueError(f"term {term!r} lacks a zeta factor")
        total = total + ZetaExpr({m: PiExpr({j: sign * q})})
    return total
