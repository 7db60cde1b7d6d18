"""Singularity-aware numeric quadrature for log-tangent integrals.

This is the independent numeric oracle for the closed forms elsewhere in the
package.  Integration uses tanh-sinh (double-exponential) node clustering on
each side of a split at ``pi/4``, which absorbs the logarithmic endpoint
singularities of ``log tan`` without any special-casing.  Nodes never touch
the interval endpoints; points near ``pi/2`` are represented through their
distance to the endpoint so the weight stays accurate there.

Integrands form one catalog, the ``CATALOG`` table, so adding an integrand
means adding one entry.  ``HALF_PI`` is the package's one float ``pi/2``.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple

from .core import Polynomial, euler_poly_scaled, shifted_legendre

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

DEFAULT_MAX_LEVELS = 12

_T_MAX = 6.1


class QuadratureError(ArithmeticError):
    """Raised when an integrand sample is not finite."""


class QuadratureResult(NamedTuple):
    """Integral estimate; est_error is the difference of the last two levels.

    ``converged`` is False when the levels ran out before the tolerance test
    passed, so ``est_error`` may exceed the tolerance asked for.
    """

    value: float
    est_error: float
    levels_used: int
    converged: bool


class FunctionSpec:
    """A named integrand from the fixed catalog, evaluable on ``(0, pi/2)``.

    Kinds are the keys of ``CATALOG``.  Construct through the classmethods,
    or from a CLI token with :meth:`parse`.  ``value(x, dist_top)`` evaluates
    at ``x``; ``dist_top`` is the distance to ``pi/2``, used to keep
    ``log tan`` accurate near that endpoint.
    """

    __slots__ = ("kind", "param", "_entry")

    def __init__(self, kind: str, param=None):
        self.kind = kind
        self.param = param
        self._entry = CATALOG[kind]

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        """The integrand a token from ``CATALOG_HELP`` names; ``ValueError`` if none."""
        token = text.strip().lower()
        for entry in CATALOG.values():
            if m := re.fullmatch(entry.token, token):
                return entry.parse(m)
        raise ValueError(f"unknown function {text!r}; catalog: {CATALOG_HELP}")

    @classmethod
    def polynomial(cls, poly: Polynomial) -> "FunctionSpec":
        if not isinstance(poly, Polynomial):
            raise TypeError("polynomial spec needs a Polynomial")
        return cls("polynomial", poly)

    @classmethod
    def monomial(cls, n: int) -> "FunctionSpec":
        if not isinstance(n, int) or n < 0:
            raise ValueError("monomial degree must be an integer >= 0")
        return cls("monomial", n)

    @classmethod
    def sqrt(cls) -> "FunctionSpec":
        return cls("sqrt")

    @classmethod
    def exp2z(cls, z: float) -> "FunctionSpec":
        return cls("exp2z", _finite(z))

    @classmethod
    def cos2z(cls, z: float) -> "FunctionSpec":
        return cls("cos2z", _finite(z))

    @classmethod
    def sinh_shift(cls, z: float) -> "FunctionSpec":
        return cls("sinh_shift", _finite(z))

    @classmethod
    def logtan_power(cls, p: int) -> "FunctionSpec":
        if p not in (1, 2):
            raise ValueError("logtan power must be 1 or 2")
        return cls("logtan_power", p)

    @classmethod
    def logsine_x(cls) -> "FunctionSpec":
        return cls("logsine_x")

    def value(self, x: float, dist_top: float | None = None) -> float:
        return self._entry.value(self.param, x, dist_top)

    def derivative(self, order: int, t: float) -> float:
        """The order-th derivative at ``t``; ``ValueError`` for kinds without one."""
        if self._entry.derivative is None:
            raise ValueError(f"integrand kind {self.kind!r} has no derivative")
        return self._entry.derivative(self.param, order, t)

    def describe(self) -> str:
        return self._entry.describe(self.param)

    def __repr__(self) -> str:
        return f"FunctionSpec({self.describe()})"


def _finite(z: float) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("parameter must be finite")
    return z


def _logtan_power(p: int, x: float, dist_top: float | None) -> float:
    lt = _log_tan(x, HALF_PI - x if dist_top is None else dist_top)
    return lt if p == 1 else lt * lt


class CatalogEntry(NamedTuple):
    """One integrand kind: ``parse`` builds its spec from a full match of the
    lower-cased CLI ``token``; ``value``, ``describe`` and ``derivative`` take
    the spec's ``param`` first.  Kinds without derivatives leave it None.
    """

    token: str
    help: str
    parse: Callable[[re.Match], FunctionSpec]
    value: Callable[..., float]
    describe: Callable[..., str]
    derivative: Callable[..., float] | None = None


# Float derivatives for smooth_L_series; it sums polynomials exactly through exact_L.
CATALOG: dict[str, CatalogEntry] = {
    "monomial": CatalogEntry(
        token=r"x(\d*)", help="x, x2, x3, ... (monomials)",
        parse=lambda m: FunctionSpec.monomial(int(m[1] or 1)),
        value=lambda n, x, dist_top: x**n,
        describe=lambda n: {0: "1", 1: "x"}.get(n, f"x^{n}"),
    ),
    "sqrt": CatalogEntry(
        token="sqrt", help="sqrt", parse=lambda m: FunctionSpec.sqrt(),
        value=lambda _, x, dist_top: math.sqrt(x), describe=lambda _: "sqrt(x)",
    ),
    "polynomial": CatalogEntry(
        token=r"(legendre|euler)(\d+)", help="legendreN; eulerN (scaled Euler polynomial)",
        parse=lambda m: FunctionSpec.polynomial(
            (shifted_legendre if m[1] == "legendre" else euler_poly_scaled)(int(m[2]))),
        value=lambda poly, x, dist_top: poly.evaluate_float(x),
        describe=lambda poly: f"polynomial(degree={poly.degree})",
    ),
    "logtan_power": CatalogEntry(
        token="logtan(2?)", help="logtan; logtan2",
        parse=lambda m: FunctionSpec.logtan_power(2 if m[1] else 1),
        value=_logtan_power,
        describe=lambda p: "log(tan x)" if p == 1 else "log(tan x)^2",
    ),
    "logsine_x": CatalogEntry(
        token="logsine", help="logsine", parse=lambda m: FunctionSpec.logsine_x(),
        value=lambda _, x, dist_top: x * math.log(math.sin(x)),
        describe=lambda _: "x*log(sin x)",
    ),
    "exp2z": CatalogEntry(
        token="exp[:=](.+)", help="exp:Z",
        parse=lambda m: FunctionSpec.exp2z(float(m[1])),
        value=lambda c, x, dist_top: math.exp(2.0 * c * x),
        describe=lambda c: f"exp(2*{c}*x)",
        derivative=lambda c, order, t: (2.0 * c) ** order * math.exp(2.0 * c * t),
    ),
    "cos2z": CatalogEntry(
        token="cos[:=](.+)", help="cos:Z",
        parse=lambda m: FunctionSpec.cos2z(float(m[1])),
        value=lambda c, x, dist_top: math.cos(2.0 * c * x),
        describe=lambda c: f"cos(2*{c}*x)",
        derivative=lambda c, order, t: (
            (2.0 * c) ** order * math.cos(2.0 * c * t + order * HALF_PI)),
    ),
    "sinh_shift": CatalogEntry(
        token="sinh[:=](.+)", help="sinh:Z for a finite real parameter Z",
        parse=lambda m: FunctionSpec.sinh_shift(float(m[1])),
        value=lambda c, x, dist_top: math.sinh(c * (2.0 * x - HALF_PI)),
        describe=lambda c: f"sinh({c}*(2x - pi/2))",
        # odd derivatives go through cosh
        derivative=lambda c, order, t: (2.0 * c) ** order * (
            math.cosh if order % 2 else math.sinh)(c * (2.0 * t - HALF_PI)),
    ),
}

CATALOG_HELP = "; ".join(entry.help for entry in CATALOG.values())


def _log_tan(x: float, dist_top: float) -> float:
    # For x past the midpoint, log tan x = -log tan(pi/2 - x); evaluating at
    # the exact distance avoids the precision loss of tan near pi/2.
    if x <= 0.8:
        return math.log(math.tan(x))
    return -math.log(math.tan(dist_top))


# ---------------------------------------------------------------------------
# tanh-sinh node tables, shared across all integrals.
#
# For t > 0 let y = (pi/2) sinh t.  Stored per node: the endpoint gap
# d = 1 - tanh y (so the node pair sits at a + half*d and b - half*d) and the
# weight w = (pi/2) cosh t / cosh^2 y.  Both via exp(-2y) to dodge overflow.

_NODE_CACHE: dict[int, tuple[tuple[float, float], ...]] = {}


def _level_nodes(level: int) -> tuple[tuple[float, float], ...]:
    nodes = _NODE_CACHE.get(level)
    if nodes is not None:
        return nodes
    if level == 0:
        ts = [float(k) for k in range(1, int(_T_MAX) + 1)]
    else:
        h = 2.0**-level
        ts = []
        t = h
        while t < _T_MAX:
            ts.append(t)
            t += 2.0 * h
    out = []
    for t in ts:
        y = HALF_PI * math.sinh(t)
        e2 = math.exp(-2.0 * y)
        d = 2.0 * e2 / (1.0 + e2)
        w = HALF_PI * math.cosh(t) * 4.0 * e2 / ((1.0 + e2) * (1.0 + e2))
        if d == 0.0 or w == 0.0:
            continue
        out.append((d, w))
    _NODE_CACHE[level] = tuple(out)
    return _NODE_CACHE[level]


def _tanh_sinh(g, a: float, b: float, tol: float, max_levels: int):
    """Integrate ``g(x, dist_top)`` over (a, b); returns (value, est, levels, converged)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    top_a = HALF_PI - a
    top_b = HALF_PI - b

    def sample(x: float, dist_top: float) -> float:
        try:
            v = g(x, dist_top)
        except OverflowError:
            raise QuadratureError(f"integrand overflow at x={x!r}") from None
        if not math.isfinite(v):
            raise QuadratureError(f"integrand sample not finite at x={x!r}")
        return v

    parts = [HALF_PI * sample(mid, HALF_PI - mid)]
    for d, w in _level_nodes(0):
        delta = half * d
        parts.append(
            w * (sample(a + delta, top_a - delta) + sample(b - delta, top_b + delta))
        )
    raw = math.fsum(parts)  # plain sum of weighted samples, all levels so far
    value = half * raw
    est = math.inf
    levels = 1
    h = 1.0
    for level in range(1, max_levels):
        h *= 0.5
        parts = []
        for d, w in _level_nodes(level):
            delta = half * d
            parts.append(
                w * (sample(a + delta, top_a - delta) + sample(b - delta, top_b + delta))
            )
        raw += math.fsum(parts)
        new_value = half * h * raw
        est = abs(new_value - value)
        value = new_value
        levels = level + 1
        if est <= tol or est <= 5e-16 * abs(value):
            return value, est, levels, True
    return value, est, levels, False


def _check_inputs(a: float, b: float, tol: float) -> None:
    if not (0.0 <= a < b <= HALF_PI + 1e-15):
        raise ValueError(f"need 0 <= a < b <= pi/2, got a={a}, b={b}")
    if tol < 1e-13:
        raise ValueError("tol must be >= 1e-13")


def _integrate_split(g, a: float, b: float, tol: float, max_levels: int) -> QuadratureResult:
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    if a < QUARTER_PI < b:
        spans = [(a, QUARTER_PI), (QUARTER_PI, b)]
    else:
        spans = [(a, b)]
    total = 0.0
    est = 0.0
    levels = 0
    converged = True
    piece_tol = tol / len(spans)
    for lo, hi in spans:
        v, e, lv, ok = _tanh_sinh(g, lo, hi, piece_tol, max_levels)
        total += v
        est += e
        levels = max(levels, lv)
        converged = converged and ok
    return QuadratureResult(total, est, levels, converged)


def integrate_logtan(
    f: FunctionSpec,
    a: float = 0.0,
    b: float = HALF_PI,
    tol: float = 1e-10,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> QuadratureResult:
    """``integral_a^b f(x) log(tan x) dx`` with the log-tan weight built in."""
    _check_inputs(a, b, tol)

    def g(x: float, dist_top: float) -> float:
        return f.value(x, dist_top) * _log_tan(x, dist_top)

    return _integrate_split(g, a, b, tol, max_levels)


def integrate_plain(
    f: FunctionSpec,
    a: float = 0.0,
    b: float = HALF_PI,
    tol: float = 1e-10,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> QuadratureResult:
    """``integral_a^b f(x) dx`` on the same node scheme."""
    _check_inputs(a, b, tol)
    return _integrate_split(f.value, a, b, tol, max_levels)


def inner_product(
    f: FunctionSpec,
    g: FunctionSpec,
    tol: float = 1e-12,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> QuadratureResult:
    """``(2/pi) integral_0^{pi/2} f(x) g(x) dx``."""
    _check_inputs(0.0, HALF_PI, tol)

    def product(x: float, dist_top: float) -> float:
        return f.value(x, dist_top) * g.value(x, dist_top)

    res = _integrate_split(product, 0.0, HALF_PI, tol * HALF_PI, max_levels)
    scale = 2.0 / math.pi
    return res._replace(value=res.value * scale, est_error=res.est_error * scale)
