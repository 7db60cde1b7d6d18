"""Series identities: primitives, parameterized integrals, digamma ties."""

import math
from fractions import Fraction

import mpmath
import pytest

from logtan.closed_forms import cos_lemma, exact_L
from logtan.constants import catalan, eval_pi_expr, eval_zeta_expr, zeta_int
from logtan.core import Polynomial, shifted_legendre
from logtan.quadrature import FunctionSpec, integrate_logtan
from logtan.series import (
    bradley_primitive,
    cos_integral_F,
    euler_zeta3_series,
    exp_integral_series,
    logtan_power_series,
    partial_sum_S,
    sinh_identity_check,
    smooth_L_series,
)

ZETA3 = 1.2020569031595942854


class TestBradleyPrimitive:
    def test_vanishes_at_half_pi(self):
        for n in (1, 10, 500):
            assert abs(bradley_primitive(math.pi / 2, n)) <= 1e-12

    def test_quarter_pi_gives_catalan(self):
        assert abs(bradley_primitive(math.pi / 4, 5000) + catalan().value) <= 1e-5

    @pytest.mark.parametrize("x", [math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 3])
    def test_matches_oracle_primitive(self, x):
        oracle = integrate_logtan(FunctionSpec.monomial(0), 0.0, x, tol=1e-11).value
        assert abs(bradley_primitive(x, 5000) - oracle) <= 1e-5


class TestLogtanPowerSeries:
    def test_zero_at_quarter_pi(self):
        assert abs(logtan_power_series(math.pi / 4, 60)) <= 1e-10

    def test_direct_values(self):
        assert abs(logtan_power_series(0.5, 60) - math.log(math.tan(0.5))) <= 1e-10
        assert abs(logtan_power_series(1.2, 200) - math.log(math.tan(1.2))) <= 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            logtan_power_series(0.0, 10)
        with pytest.raises(ValueError):
            logtan_power_series(math.pi / 2, 10)


class TestExpIntegralSeries:
    def test_zero_parameter(self):
        assert exp_integral_series(0.0, 10) == 0.0

    @pytest.mark.parametrize("z", [0.2, -0.2, 0.5, -0.5, 0.3])
    def test_matches_oracle(self, z):
        oracle = integrate_logtan(FunctionSpec.exp2z(z), tol=1e-11).value
        assert abs(exp_integral_series(z, 40) - oracle) <= 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            exp_integral_series(1.0, 10)


class TestSinhIdentity:
    def test_zero_parameter(self):
        lhs, rhs = sinh_identity_check(0.0, 10)
        assert abs(lhs) <= 1e-12
        assert rhs == 0.0

    @pytest.mark.parametrize("z", [0.2, -0.2, 0.4, 0.5, -0.5])
    def test_sides_agree(self, z):
        lhs, rhs = sinh_identity_check(z, 40, tol=1e-11)
        assert abs(lhs - rhs) <= 1e-8

    def test_slower_near_the_boundary(self):
        # geometric tail in z^2: at z = 0.9 the N-th term is ~0.81^N, so
        # 1e-7 agreement needs N around 100; N=60 only reaches ~1e-5
        lhs, rhs = sinh_identity_check(0.9, 60, tol=1e-11)
        assert abs(lhs - rhs) <= 1e-4
        lhs, rhs = sinh_identity_check(0.9, 150, tol=1e-11)
        assert abs(lhs - rhs) <= 1e-7


class TestCosIntegralF:
    def test_zero_limit(self):
        assert cos_integral_F(0.0) == 0.0

    @pytest.mark.parametrize("z", [0.1, 0.25, 0.5, 0.75])
    def test_matches_oracle(self, z):
        oracle = integrate_logtan(FunctionSpec.cos2z(z), tol=1e-11).value
        assert abs(cos_integral_F(z) - oracle) <= 1e-9

    def test_limit_at_one_matches_cosine_lemma(self):
        target = eval_pi_expr(cos_lemma(1)).value
        assert abs(cos_integral_F(1.0 - 1e-6) - target) <= 1e-4

    def test_small_z_slope(self):
        # F(z)/z -> -(pi) * (7/8) zeta(3) / pi = ... checked through the series
        z = 1e-3
        series_side = -math.sin(math.pi * z) * partial_sum_S(z, 10).value
        assert abs(cos_integral_F(z) - series_side) <= 1e-6 * abs(series_side)

    def test_domain(self):
        with pytest.raises(ValueError):
            cos_integral_F(1.0)


class TestPartialSumS:
    def test_zero(self):
        s = partial_sum_S(0.0, 5)
        assert s.value == 0.0
        assert s.last_term == 0.0

    def test_leading_term_bound(self):
        s = partial_sum_S(0.1, 10)
        lead = (1 - 2.0**-3) * zeta_int(3).value
        tail_cap = (1 - 2.0**-5) * zeta_int(5).value * 0.01 * 1.1
        assert abs(s.value / 0.1 - lead) < tail_cap

    @pytest.mark.parametrize("z", [0.1, 0.25, 0.5, 0.75])
    def test_series_matches_digamma_form(self, z):
        assert abs(-math.sin(math.pi * z) * partial_sum_S(z, 50).value
                   - cos_integral_F(z)) <= 1e-9

    def test_structure(self):
        s = partial_sum_S(0.5, 30)
        assert abs(s.last_term) < 1e-17


class TestSmoothSeries:
    def test_polynomial_reduces_to_closed_form(self):
        for coeffs in ([0, 1], [0, Fraction(1, 2), Fraction(3, 4)], [1, 0, 0, Fraction(-2, 7)]):
            poly = Polynomial.from_rationals(coeffs)
            target = eval_zeta_expr(exact_L(poly)).value
            got = smooth_L_series(FunctionSpec.polynomial(poly), 10)
            assert abs(got - target) <= 1e-12

    def test_polynomial_with_z_below_one_is_summed_exactly(self):
        # The terms are large and alternate; summed in doubles they gave -5.74e4.
        P = shifted_legendre(21)
        target = eval_zeta_expr(exact_L(P.compose_affine(Fraction(0.9), 0))).value
        assert abs(target - 2.3549e-4) <= 1e-8
        assert smooth_L_series(FunctionSpec.polynomial(P), 20, z=0.9) == target

    @pytest.mark.parametrize("n", [7, 11, 21])
    def test_polynomial_at_z_one_is_exact_L(self, n):
        P = shifted_legendre(n)
        got = smooth_L_series(FunctionSpec.polynomial(P), n)
        assert got == eval_zeta_expr(exact_L(P)).value

    # smooth_L_series(shifted_legendre(21), K, z) for K below the 11 terms the
    # degree needs: the kept zeta(m) terms of exact_L(P(zx)), m <= 2K+1, summed
    # in 50-digit mpmath and rounded to a double (checked again below).
    # The K = 1 value at z = 1 is 2^-1 * 2 P'(0) * (7/8) zeta(3) with
    # P'(0) = P'(pi/2) = 924/pi, i.e. 808.5 zeta(3)/pi.
    TRUNCATED_LEGENDRE_21 = {
        (1, 1.0): 309.3536028912012,
        (3, 1.0): 1049230064.969753,
        (7, 1.0): 7.976790410674902e17,
        (1, 0.9): 141.53918836592456,
        (3, 0.9): 310477852.910377,
        (7, 0.9): 1.0984346545011248e17,
    }

    @pytest.mark.parametrize("K, z", sorted(TRUNCATED_LEGENDRE_21))
    def test_polynomial_truncated_below_half_the_degree(self, K, z):
        P = shifted_legendre(21)
        got = smooth_L_series(FunctionSpec.polynomial(P), K, z)
        assert got == self.TRUNCATED_LEGENDRE_21[K, z]
        closed = exact_L(P.compose_affine(Fraction(z), 0)).terms
        with mpmath.workdps(50):
            assert got == float(sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**j
                                    * mpmath.zeta(m) for m, c in closed.items()
                                    if m <= 2 * K + 1 for j, q in c.terms.items()))
        if (K, z) == (1, 1.0):
            assert math.isclose(got, 808.5 * ZETA3 / math.pi, rel_tol=1e-15)

    def test_exp_matches_series_and_oracle(self):
        z = 0.3
        got = smooth_L_series(FunctionSpec.exp2z(z), 25)
        assert abs(got - exp_integral_series(z, 25)) <= 1e-12
        oracle = integrate_logtan(FunctionSpec.exp2z(z), tol=1e-11).value
        assert abs(got - oracle) <= 1e-9

    def test_cos_matches_closed_form(self):
        got = smooth_L_series(FunctionSpec.cos2z(0.5), 25)
        assert abs(got - cos_integral_F(0.5)) <= 1e-9

    def test_sinh_matches_oracle(self):
        z = 0.4
        got = smooth_L_series(FunctionSpec.sinh_shift(z), 25)
        oracle = integrate_logtan(FunctionSpec.sinh_shift(z), tol=1e-11).value
        assert abs(got - oracle) <= 1e-9

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("z", [1.0, 0.5])
    def test_monomial_matches_polynomial(self, n, K, z):
        got = smooth_L_series(FunctionSpec.monomial(n), K, z)
        assert got == smooth_L_series(FunctionSpec.polynomial(Polynomial.monomial(n)), K, z)

    def test_scaled_argument(self):
        # with |z| < 1 the series covers integrand f(z x)
        z = 0.7
        got = smooth_L_series(FunctionSpec.polynomial(Polynomial.x()), 10, z=z)
        scaled = Polynomial.from_rationals([0, Fraction(7, 10)])
        target = eval_zeta_expr(exact_L(scaled)).value
        assert abs(got - target) <= 1e-12

    def test_unsupported_kind(self):
        with pytest.raises(ValueError):
            smooth_L_series(FunctionSpec.sqrt(), 10)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            smooth_L_series(FunctionSpec.exp2z(1.5), 10)


class TestEulerZeta3:
    def test_first_partial_sum(self):
        target = math.pi**2 / 7 * (1 - 2 * zeta_int(2).value / 24)
        assert abs(euler_zeta3_series(1) - target) <= 1e-15

    def test_converges_to_apery(self):
        assert abs(euler_zeta3_series(40) - zeta_int(3).value) <= 1e-12

    def test_monotone_error(self):
        errors = [abs(euler_zeta3_series(n) - ZETA3) for n in (2, 5, 10)]
        assert errors[0] > errors[1] > errors[2]
