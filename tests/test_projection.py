"""Legendre projection machinery: expansions, truncated series, Parseval."""

import math
from fractions import Fraction

import pytest

from logtan.closed_forms import exact_L
from logtan.constants import catalan, eval_pi_expr, eval_zeta_expr, zeta_int
from logtan.core import Polynomial, shifted_legendre
from logtan.projection import (
    approx_L,
    approx_L_direct,
    catalan_series,
    default_sample_grid,
    expand,
    legendre_values,
    logtan_expansion_value,
    logtan_reconstruction_error,
    parseval_defect,
    sqrt_approx_L_exact,
    sqrt_legendre_rationals,
)
from logtan.quadrature import FunctionSpec

ZETA3 = 1.2020569031595942854
SQRT_L5 = 0.688084888082269488


class TestLegendreValues:
    def test_matches_exact_polynomials(self):
        for x in (0.21, 0.77, 1.31):
            vals = legendre_values(x, 8)
            for n in range(9):
                exact = shifted_legendre(n).evaluate_float(x)
                assert abs(vals[n] - exact) <= 1e-10 * max(1.0, abs(exact))

    def test_odd_degrees_vanish_at_quarter_pi(self):
        vals = legendre_values(math.pi / 4, 11)
        assert all(vals[n] == 0.0 for n in range(1, 12, 2))


class TestExpand:
    def test_sqrt_coefficients(self):
        # c_n = (2n+1) <sqrt, P~_n>; the inner products are rational
        # multiples of sqrt(pi/2), so the targets are exact
        got = expand(FunctionSpec.sqrt(), 5)
        rationals = sqrt_legendre_rationals(5)
        scale = math.sqrt(math.pi / 2)
        for n in range(6):
            target = (2 * n + 1) * float(rationals[n]) * scale
            assert abs(got.coeffs[n] - target) <= 1e-12

    def test_basis_reproduces_itself(self):
        got = expand(FunctionSpec.polynomial(shifted_legendre(2)), 3)
        for n, c in enumerate(got.coeffs):
            target = 1.0 if n == 2 else 0.0
            assert abs(c - target) <= 1e-12

    def test_monomial_degree_one_exact(self):
        got = expand(FunctionSpec.monomial(1), 1)
        assert abs(got.coeffs[0] - math.pi / 4) <= 1e-13
        assert abs(got.coeffs[1] - math.pi / 4) <= 1e-13
        # the two-term expansion reconstructs x itself
        for x in (0.2, 0.9, 1.4):
            assert abs(got.evaluate(x) - x) <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_polynomial_reconstruction_exact(self, degree):
        poly = Polynomial.from_rationals(
            [Fraction(k + 1, 2 * k + 1) for k in range(degree + 1)])
        got = expand(FunctionSpec.polynomial(poly), degree)
        for x in (0.3, 0.8, 1.2):
            assert abs(got.evaluate(x) - poly.evaluate_float(x)) <= 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_coefficients_match_exact_integration(self, degree):
        # test oracle: exact polynomial integration of f * P~_n over the
        # interval, independent of the quadrature path
        from logtan.core import HALF_PI, PiExpr

        poly = Polynomial.from_rationals(
            [Fraction((-1) ** k * (k + 2), k + 1) for k in range(degree + 1)])
        got = expand(FunctionSpec.polynomial(poly), degree)
        two_over_pi = PiExpr.pi_power(-1, 2)
        for n in range(degree + 1):
            product = poly * shifted_legendre(n)
            exact = eval_pi_expr(product.definite_integral(PiExpr.zero(), HALF_PI)
                                 * two_over_pi * (2 * n + 1)).value
            assert abs(got.coeffs[n] - exact) <= 1e-12

    def test_pinned_bits_of_sqrt_through_degree_19(self):
        # Recorded before the fixed-point sampling of polynomials; the basis
        # is sampled at every node, so any change to that arithmetic shows.
        assert expand(FunctionSpec.sqrt(), 19).coeffs == (
            0.8355427582103335,
            0.5013256549262002,
            -0.11936325117290505,
            0.055702850547355236,
            -0.032553613956247264,
            0.021424173287443723,
            -0.015191686512916016,
            0.011342209387469493,
            -0.008795186928531156,
            0.007021367716051952,
            -0.005735991475129545,
            0.00477453004691459,
            -0.004036438445462343,
            0.00345741830983366,
            -0.0029947769111506287,
            0.0026192562953276633,
            -0.002310256474316528,
            0.002052930609850073,
            -0.0018363577103566653,
            0.0016523587835372072,
        )


class TestApproxL:
    def test_sqrt_paper_truncation(self):
        ap = approx_L(FunctionSpec.sqrt(), 3)
        assert abs(ap.value - SQRT_L5) <= 1e-10
        assert set(ap.c_table) == {(3, 1), (3, 2), (3, 3)}

    def test_polynomial_exact_for_any_truncation(self):
        f = FunctionSpec.polynomial(Polynomial.x())
        target = 7 / 8 * zeta_int(3).value
        for n in (1, 2, 3):
            assert abs(approx_L(f, n).value - target) <= 1e-10

    def test_even_basis_element_gives_zero(self):
        f = FunctionSpec.polynomial(shifted_legendre(2))
        for n in (1, 2, 3):
            assert abs(approx_L(f, n).value) <= 1e-12

    def test_summation_orders_agree(self):
        for f, n in ((FunctionSpec.sqrt(), 3), (FunctionSpec.polynomial(Polynomial.x()), 2),
                     (FunctionSpec.polynomial(shifted_legendre(2)), 2)):
            assert abs(approx_L(f, n).value - approx_L_direct(f, n)) <= 1e-12

    def test_exact_reproduction_of_closed_form(self):
        poly = Polynomial.from_rationals([0, Fraction(1, 2), Fraction(3, 4), Fraction(-2, 5)])
        f = FunctionSpec.polynomial(poly)
        target = eval_zeta_expr(exact_L(poly)).value
        assert abs(approx_L(f, 2).value - target) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            approx_L(FunctionSpec.sqrt(), 0)


class TestSqrtExactRoute:
    def test_rationals(self):
        rats, value = sqrt_approx_L_exact(3)
        assert rats == {1: Fraction(42, 13), 2: Fraction(-1581, 13), 3: Fraction(13335, 13)}
        assert abs(value - SQRT_L5) <= 1e-12

    def test_leading_inner_products(self):
        # <sqrt, P~_n> / sqrt(pi/2) for n = 0..5
        assert sqrt_legendre_rationals(5) == [
            Fraction(2, 3), Fraction(2, 15), Fraction(-2, 105),
            Fraction(2, 315), Fraction(-2, 693), Fraction(2, 1287),
        ]

    def test_recurrence_matches_the_alternating_double_sum(self):
        # <sqrt, P~_n> from the explicit coefficients of P~_n, term by term.
        reference = [
            sum(Fraction((-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k) * 2, 2 * k + 3)
                for k in range(n + 1))
            for n in range(201)
        ]
        assert sqrt_legendre_rationals(200) == reference

    def test_matches_numeric_route(self):
        _, value = sqrt_approx_L_exact(4)
        assert abs(value - approx_L(FunctionSpec.sqrt(), 4).value) <= 1e-10


class TestBessel:
    @pytest.mark.parametrize(
        "f",
        [
            FunctionSpec.sqrt(),
            FunctionSpec.monomial(1),
            FunctionSpec.cos2z(0.5),
            FunctionSpec.logsine_x(),
        ],
        ids=lambda f: f.describe(),
    )
    def test_partial_sums_below_squared_norm(self, f):
        from logtan.quadrature import inner_product

        coeffs = expand(f, 6)
        partial = sum(c * c / (2 * n + 1) for n, c in enumerate(coeffs.coeffs))
        norm_sq = inner_product(f, f, tol=1e-12).value
        assert partial <= norm_sq + 1e-10


class TestParseval:
    def test_first_defect(self):
        assert abs(parseval_defect(1) - 0.7077538239779342) <= 1e-12

    def test_positive_and_decreasing(self):
        values = [parseval_defect(n) for n in range(1, 31)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_partial_sums_bounded(self):
        cap = (math.pi / 2) ** 4 + 1e-10
        for n in (1, 5, 10, 30):
            assert (math.pi / 2) ** 4 - parseval_defect(n) <= cap

    def test_calibrated_defect_30(self):
        # frozen from a 200-digit evaluation of the coefficient formula
        assert abs(parseval_defect(30) - 1.347938423475803e-3) <= 1e-12


class TestCatalanSeries:
    def test_first_term(self):
        target = 3 * 0.25 * eval_zeta_expr_of_index_1()
        assert abs(catalan_series(1) - target) <= 1e-13

    def test_frozen_partial_sum_n10(self):
        # verified two ways: 200-digit evaluation of the exact coefficients,
        # and direct quadrature of every Legendre factor
        assert abs(catalan_series(10) - 0.915312751760083) <= 1e-11

    def test_distance_to_catalan(self):
        assert abs(abs(catalan_series(10) - catalan().value) - 6.528424e-4) <= 1e-9

    def test_oscillating_convergence(self):
        g = catalan().value
        gaps = [abs(catalan_series(n) - g) for n in (5, 10, 20, 40)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def eval_zeta_expr_of_index_1() -> float:
    from logtan.closed_forms import legendre_L_coeff

    return eval_zeta_expr(legendre_L_coeff(1)).value


class TestReconstruction:
    def test_expansion_vanishes_at_quarter_pi(self):
        for n in (1, 4, 10):
            assert logtan_expansion_value(math.pi / 4, n) == 0.0

    def test_error_decreases_with_order(self):
        grid = default_sample_grid()
        assert logtan_reconstruction_error(10, grid) < logtan_reconstruction_error(2, grid)

    def test_default_grid(self):
        grid = default_sample_grid()
        assert len(grid) == 41
        assert abs(grid[0] - 0.2) < 1e-15
        assert abs(grid[-1] - (math.pi / 2 - 0.2)) < 1e-15

    def test_rejects_exterior_points(self):
        with pytest.raises(ValueError):
            logtan_reconstruction_error(2, [-0.1])
