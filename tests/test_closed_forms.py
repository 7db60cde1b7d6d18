"""Closed forms against each other and against the quadrature oracle."""

import math
import random
from fractions import Fraction

import pytest

from logtan.closed_forms import (
    byerly_coeff,
    cos_lemma,
    euler_integral,
    euler_integral_half,
    euler_translated,
    exact_L,
    legendre_L_coeff,
    moment,
)
from logtan.constants import eval_pi_expr, eval_zeta_expr
from logtan.core import (
    HALF_PI,
    QUARTER_PI,
    PiExpr,
    Polynomial,
    ZetaExpr,
    euler_poly,
    euler_poly_scaled,
    format_zeta_expr,
    shifted_legendre,
)
from logtan.quadrature import FunctionSpec, integrate_logtan

TWO_OVER_PI = PiExpr.pi_power(-1, 2)


class TestExactL:
    def test_first_two_moments(self):
        assert format_zeta_expr(exact_L(Polynomial.x())) == "7/8 * zeta(3)"
        assert format_zeta_expr(exact_L(Polynomial.monomial(2))) == "7/16 * pi * zeta(3)"

    def test_constant_is_zero(self):
        assert exact_L(Polynomial.constant(1)) == ZetaExpr()
        assert exact_L(Polynomial.constant(Fraction(-7, 3))) == ZetaExpr()
        assert exact_L(Polynomial.zero()) == ZetaExpr()

    def test_cubic(self):
        expected = ZetaExpr({
            3: PiExpr({2: Fraction(21, 64)}),
            5: PiExpr({0: Fraction(-93, 64)}),
        })
        assert exact_L(Polynomial.monomial(3)) == expected

    def test_linearity(self):
        rng = random.Random(4242)
        for _ in range(20):
            p = Polynomial.from_rationals(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))])
            q = Polynomial.from_rationals(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))])
            a = PiExpr({rng.randint(-1, 1): Fraction(rng.randint(-3, 3) or 1)})
            b = PiExpr({0: Fraction(rng.randint(-3, 3) or 2)})
            assert exact_L(a * p + b * q) == a * exact_L(p) + b * exact_L(q)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_symmetric_null_space(self, k):
        # (x(pi/2 - x))^k is symmetric about pi/4, so its integral vanishes
        w = Polynomial([PiExpr(), HALF_PI, PiExpr({0: -1})])
        assert exact_L(w**k) == ZetaExpr()

    def test_oracle_agreement_random_polynomials(self):
        # degree <= 12, small rational coefficients, relative error <= 1e-9
        rng = random.Random(1337)
        for _ in range(10):
            degree = rng.randint(1, 12)
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(degree + 1)]
            poly = Polynomial.from_rationals(coeffs)
            exact = eval_zeta_expr(exact_L(poly)).value
            oracle = integrate_logtan(FunctionSpec.polynomial(poly), tol=1e-11).value
            assert abs(exact - oracle) <= 1e-9 * max(1.0, abs(oracle))


class TestMoment:
    def test_first_moments(self):
        assert moment(1) == ZetaExpr({3: Fraction(7, 8)})
        assert moment(2) == ZetaExpr({3: PiExpr({1: Fraction(7, 16)})})
        assert moment(3) == exact_L(Polynomial.monomial(3))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_derivative_formula(self, n):
        assert moment(n) == exact_L(Polynomial.monomial(n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_term_structure(self, n):
        got = moment(n)
        top = max(got.arguments())
        if n % 2 == 1:
            assert top == n + 2
            sign = got.coefficient(n + 2).coefficient(0)
            assert (sign > 0) == ((n - 1) // 2 % 2 == 0)
        else:
            assert top == n + 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            moment(0)


class TestEulerIntegrals:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_odd_matches_exact_L(self, n):
        assert euler_integral(n, "odd") == exact_L(euler_poly_scaled(2 * n - 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_even_vanishes(self, n):
        assert euler_integral(n, "even") == ZetaExpr()
        assert exact_L(euler_poly_scaled(2 * n)) == ZetaExpr()

    def test_explicit_values(self):
        assert euler_integral(1, "odd") == ZetaExpr({3: PiExpr({-1: Fraction(7, 4)})})
        assert euler_integral(2, "odd") == ZetaExpr({5: PiExpr({-3: Fraction(-186, 16)})})

    def test_half_interval_values(self):
        assert euler_integral_half(1) == ZetaExpr({3: PiExpr({-1: Fraction(7, 8)})})
        assert euler_integral_half(2) == ZetaExpr({5: PiExpr({-3: -6 * Fraction(31, 32)})})

    def test_half_interval_oracle(self):
        # numeric check over [0, pi/4] plus the symmetry split identity
        f = FunctionSpec.polynomial(euler_poly_scaled(1))
        got = integrate_logtan(f, 0.0, math.pi / 4, tol=1e-11).value
        expected = eval_zeta_expr(euler_integral_half(1)).value
        assert abs(got - expected) <= 1e-9

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            euler_integral(1, "both")
        with pytest.raises(ValueError):
            euler_integral(0, "odd")


class TestEulerTranslated:
    def test_y_zero_reduces(self):
        assert euler_translated(1, "even", 0) == ZetaExpr()
        assert euler_translated(1, "odd", 0) == euler_integral(1, "odd")
        assert euler_translated(3, "odd", 0) == euler_integral(3, "odd")

    def test_example_value(self):
        # E_2(2x/pi + 1) = 4x^2/pi^2 + 2x/pi integrates to (7/2) zeta(3)/pi
        expected = ZetaExpr({3: PiExpr({-1: Fraction(7, 2)})})
        assert euler_translated(1, "even", 1) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("y", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2, 3)])
    def test_matches_exact_L_of_translated_polynomial(self, n, y):
        for parity, index in (("even", 2 * n), ("odd", 2 * n - 1)):
            shifted = euler_poly(index).compose_affine(TWO_OVER_PI, y)
            assert euler_translated(n, parity, y) == exact_L(shifted)


class TestCosLemma:
    def test_values(self):
        assert cos_lemma(2) == PiExpr()
        assert cos_lemma(1) == PiExpr({1: Fraction(-1, 2)})
        assert cos_lemma(3) == PiExpr({1: Fraction(-1, 6)})

    @pytest.mark.parametrize("k", range(1, 7))
    def test_oracle(self, k):
        oracle = integrate_logtan(FunctionSpec.cos2z(float(k)), tol=1e-11).value
        assert abs(oracle - eval_pi_expr(cos_lemma(k)).value) <= 1e-9

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cos_lemma(0)


class TestLegendreCoeff:
    def test_even_zero(self):
        assert legendre_L_coeff(2) == ZetaExpr()
        assert legendre_L_coeff(8) == ZetaExpr()

    def test_first_odd(self):
        assert legendre_L_coeff(1) == ZetaExpr({3: PiExpr({-1: Fraction(7, 2)})})

    def test_index_three(self):
        expected = ZetaExpr({
            3: PiExpr({-1: 2 * Fraction(24, 2) * Fraction(7, 8)}),
            5: PiExpr({-3: -2 * Fraction(720, 6) * Fraction(31, 32)}),
        })
        assert legendre_L_coeff(3) == expected

    @pytest.mark.parametrize("index", range(1, 10))
    def test_matches_exact_L(self, index):
        assert legendre_L_coeff(index) == exact_L(shifted_legendre(index))


class TestByerly:
    def test_formula_values(self):
        assert byerly_coeff(1) == Fraction(1, 4)
        assert byerly_coeff(2) == Fraction(-1, 16)
        assert byerly_coeff(3) == Fraction(1, 32)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exact_integration(self, n):
        quarter = shifted_legendre(2 * n - 1).definite_integral(PiExpr.zero(), QUARTER_PI)
        value = (quarter * PiExpr.pi_power(-1, -2)).as_fraction()
        assert value == byerly_coeff(n)
