"""The tanh-sinh oracle: closed-form targets, interval algebra, failure modes."""

import math
import os
import subprocess
import sys

import pytest

from logtan.closed_forms import exact_L
from logtan.constants import catalan, eval_zeta_expr
from logtan.core import Polynomial, euler_poly_scaled, shifted_legendre
from logtan.cli import CATALOG_HELP
from logtan.quadrature import (
    CATALOG,
    FunctionSpec,
    QuadratureError,
    QuadratureResult,
    inner_product,
    integrate_logtan,
    integrate_plain,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
ZETA3 = 1.2020569031595942854


class TestIntegrateLogtan:
    def test_linear_moment(self):
        res = integrate_logtan(FunctionSpec.monomial(1), tol=1e-12)
        assert abs(res.value - 7 / 8 * ZETA3) <= 1e-11
        assert res.levels_used <= 12

    def test_log_squared_norm(self):
        res = integrate_logtan(FunctionSpec.logtan_power(1), tol=1e-12)
        assert abs(res.value - math.pi**3 / 8) <= 1e-10

    def test_catalan_quarter(self):
        res = integrate_logtan(FunctionSpec.polynomial(Polynomial.constant(1)),
                               0.0, QUARTER_PI, tol=1e-12)
        assert abs(res.value + catalan().value) <= 1e-10

    def test_sqrt_value(self):
        res = integrate_logtan(FunctionSpec.sqrt(), tol=1e-12)
        assert abs(res.value - 0.689247) <= 5e-6

    def test_antisymmetry(self):
        res = integrate_logtan(FunctionSpec.monomial(0), tol=1e-10)
        assert abs(res.value) <= 1e-10

    def test_additivity(self):
        f = FunctionSpec.monomial(2)
        left = integrate_logtan(f, 0.0, QUARTER_PI, tol=1e-11)
        right = integrate_logtan(f, QUARTER_PI, HALF_PI, tol=1e-11)
        whole = integrate_logtan(f, 0.0, HALF_PI, tol=1e-11)
        assert abs(left.value + right.value - whole.value) <= 2e-11

    @pytest.mark.parametrize(
        "poly",
        [
            Polynomial.x(),
            Polynomial.monomial(2),
            Polynomial.monomial(3),
            Polynomial.monomial(4),
            euler_poly_scaled(1),
            euler_poly_scaled(3),
            shifted_legendre(1),
            shifted_legendre(3),
            shifted_legendre(5),
        ],
    )
    def test_oracle_matches_closed_forms(self, poly):
        oracle = integrate_logtan(FunctionSpec.polynomial(poly), tol=1e-11).value
        exact = eval_zeta_expr(exact_L(poly)).value
        assert abs(oracle - exact) <= 1e-9

    def test_interval_validation(self):
        f = FunctionSpec.monomial(1)
        with pytest.raises(ValueError):
            integrate_logtan(f, -0.1, 1.0)
        with pytest.raises(ValueError):
            integrate_logtan(f, 1.0, 0.5)
        with pytest.raises(ValueError):
            integrate_logtan(f, 0.0, HALF_PI, tol=1e-14)

    def test_nonfinite_sample_raises(self):
        # exp with a large parameter overflows the double range mid-interval
        f = FunctionSpec.exp2z(300.0)
        with pytest.raises(QuadratureError):
            integrate_logtan(f, tol=1e-10)

    # Bits of the oracle on two basis polynomials, recorded before the
    # fixed-point sampling of polynomials; any change to the sampled
    # arithmetic changes them.
    @pytest.mark.parametrize("n, expected", [
        (9, QuadratureResult(0.034906572543494746, 2.185751579730777e-16, 5, True)),
        (24, QuadratureResult(-4.605690828718423e-16, 5.637851296924623e-17, 6, True)),
    ])
    def test_pinned_bits_of_legendre_basis(self, n, expected):
        assert integrate_logtan(FunctionSpec.polynomial(shifted_legendre(n))) == expected


class TestIntegratePlain:
    def test_constant(self):
        res = integrate_plain(FunctionSpec.monomial(0), tol=1e-12)
        assert abs(res.value - HALF_PI) <= 1e-12

    def test_legendre_quarter(self):
        res = integrate_plain(FunctionSpec.polynomial(shifted_legendre(1)),
                              0.0, QUARTER_PI, tol=1e-12)
        assert abs(res.value + math.pi / 8) <= 1e-12

    def test_x_log_sin(self):
        res = integrate_plain(FunctionSpec.logsine_x(), tol=1e-12)
        target = 7 / 16 * ZETA3 - math.pi**2 / 8 * math.log(2)
        assert abs(res.value - target) <= 1e-9


class TestInnerProduct:
    def test_unit_norm(self):
        res = inner_product(FunctionSpec.polynomial(shifted_legendre(0)),
                            FunctionSpec.polynomial(shifted_legendre(0)))
        assert abs(res.value - 1.0) <= 1e-12

    def test_cross_orthogonality(self):
        res = inner_product(FunctionSpec.polynomial(shifted_legendre(1)),
                            FunctionSpec.polynomial(shifted_legendre(2)))
        assert abs(res.value) <= 1e-12

    def test_sqrt_against_constant(self):
        res = inner_product(FunctionSpec.sqrt(), FunctionSpec.polynomial(shifted_legendre(0)))
        assert abs(res.value - math.sqrt(2 * math.pi) / 3) <= 1e-12

    @pytest.mark.parametrize("n", range(9))
    def test_orthogonality_matrix(self, n):
        for m in range(n, 9):
            got = inner_product(FunctionSpec.polynomial(shifted_legendre(n)),
                                FunctionSpec.polynomial(shifted_legendre(m)),
                                tol=1e-12).value
            expected = 1.0 / (2 * n + 1) if n == m else 0.0
            assert abs(got - expected) <= 1e-12

    def test_log_tan_norm(self):
        res = inner_product(FunctionSpec.logtan_power(1), FunctionSpec.logtan_power(1))
        assert abs(res.value - math.pi**2 / 4) <= 1e-10


class TestFunctionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec.monomial(-1)
        with pytest.raises(ValueError):
            FunctionSpec.logtan_power(3)
        with pytest.raises(ValueError):
            FunctionSpec.exp2z(float("inf"))
        with pytest.raises(TypeError):
            FunctionSpec.polynomial([1, 2])

    def test_values(self):
        assert FunctionSpec.monomial(0).value(0.3) == 1.0
        assert abs(FunctionSpec.sqrt().value(0.25) - 0.5) < 1e-15
        assert abs(FunctionSpec.exp2z(0.5).value(1.0) - math.e) < 1e-15
        assert abs(FunctionSpec.cos2z(1.0).value(QUARTER_PI)) < 1e-15
        assert FunctionSpec.sinh_shift(0.7).value(QUARTER_PI) == 0.0
        lt = FunctionSpec.logtan_power(1).value(QUARTER_PI)
        assert abs(lt) < 1e-15

    def test_logtan_near_top(self):
        # evaluating through the distance to pi/2 keeps full precision
        d = 1e-12
        val = FunctionSpec.logtan_power(1).value(HALF_PI - d, d)
        assert abs(val - (-math.log(d))) < 1e-9

    def test_describe(self):
        assert FunctionSpec.monomial(2).describe() == "x^2"
        assert FunctionSpec.sqrt().describe() == "sqrt(x)"

    # One CLI token per catalog entry: (token, its name in CATALOG_HELP, describe()).
    SAMPLE_TOKENS = {
        "monomial": ("x3", "x3", "x^3"),
        "sqrt": ("sqrt", "sqrt", "sqrt(x)"),
        "polynomial": ("legendre3", "legendreN", "polynomial(degree=3)"),
        "logtan_power": ("logtan2", "logtan2", "log(tan x)^2"),
        "logsine_x": ("logsine", "logsine", "x*log(sin x)"),
        "exp2z": ("exp:0.3", "exp:Z", "exp(2*0.3*x)"),
        "cos2z": ("cos:0.5", "cos:Z", "cos(2*0.5*x)"),
        "sinh_shift": ("sinh:0.4", "sinh:Z", "sinh(0.4*(2x - pi/2))"),
    }

    @pytest.mark.parametrize("kind", sorted(CATALOG))
    def test_catalog_entry(self, kind):
        token, help_name, description = self.SAMPLE_TOKENS[kind]
        assert help_name in CATALOG_HELP
        f = FunctionSpec.parse(token)
        assert f.kind == kind
        assert f.describe() == description
        points = (0.1, 0.7, 1.2, 1.5)
        assert all(math.isfinite(f.value(t)) for t in points)
        if CATALOG[kind].derivative is None:
            with pytest.raises(ValueError):
                f.derivative(1, 0.7)
            return
        h = 1e-5
        for t in points:
            assert f.derivative(0, t) == f.value(t)
            central = (f.value(t + h) - f.value(t - h)) / (2 * h)
            assert math.isclose(f.derivative(1, t), central, rel_tol=1e-6, abs_tol=1e-9)


class TestEnvOverride:
    def test_max_levels_variable_changes_nothing(self):
        code = (
            "from logtan.quadrature import FunctionSpec, integrate_logtan;"
            "r = integrate_logtan(FunctionSpec.sqrt(), tol=1e-13);"
            "print(r.levels_used, r.value.hex())"
        )
        env = {k: v for k, v in os.environ.items() if k != "LOGTAN_MAX_LEVELS"}
        unset, set_to_3 = (
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=e)
            for e in (env, dict(env, LOGTAN_MAX_LEVELS="3"))
        )
        assert unset.returncode == set_to_3.returncode == 0
        assert set_to_3.stdout == unset.stdout

    def test_explicit_max_levels_argument(self):
        res = integrate_logtan(FunctionSpec.sqrt(), tol=1e-13, max_levels=2)
        assert res.levels_used == 2
        assert res.est_error > 0.0
        assert res.converged is False
        assert integrate_logtan(FunctionSpec.sqrt(), tol=1e-13).converged is True

    @pytest.mark.parametrize("integrate", [
        lambda: integrate_logtan(FunctionSpec.sqrt(), max_levels=0),
        lambda: integrate_plain(FunctionSpec.sqrt(), max_levels=0),
        lambda: inner_product(FunctionSpec.sqrt(), FunctionSpec.sqrt(), max_levels=0),
    ], ids=["integrate_logtan", "integrate_plain", "inner_product"])
    def test_zero_max_levels_is_rejected(self, integrate):
        with pytest.raises(ValueError, match="max_levels"):
            integrate()


class TestBounds:
    CATALOG = [
        FunctionSpec.monomial(0),
        FunctionSpec.monomial(1),
        FunctionSpec.monomial(3),
        FunctionSpec.polynomial(shifted_legendre(3)),
        FunctionSpec.sqrt(),
        FunctionSpec.exp2z(0.3),
        FunctionSpec.cos2z(0.5),
        FunctionSpec.sinh_shift(0.4),
        FunctionSpec.logtan_power(1),
        FunctionSpec.logsine_x(),
    ]

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.describe())
    def test_cauchy_schwarz_bound(self, f):
        value = abs(integrate_logtan(f, tol=1e-10).value)
        norm = math.sqrt(inner_product(f, f, tol=1e-10).value)
        assert value <= math.pi**2 / 4 * norm + 1e-8

    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.describe())
    def test_sup_norm_bound(self, f):
        if f.kind == "logtan_power":
            return  # unbounded on the open interval
        grid = [1e-9 + k * (HALF_PI - 2e-9) / 2000 for k in range(2001)]
        sup = max(abs(f.value(x)) for x in grid)
        value = abs(integrate_logtan(f, tol=1e-10).value)
        assert value <= 2.0 * catalan().value * sup + 1e-8
