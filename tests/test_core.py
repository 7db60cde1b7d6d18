"""Exact arithmetic layer: scalars, polynomials, and the two polynomial families."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from logtan.constants import eval_pi_expr
from logtan.core import (
    HALF_PI,
    PI,
    QUARTER_PI,
    PiExpr,
    Polynomial,
    ZetaExpr,
    bernoulli,
    bernoulli_table,
    euler_poly,
    euler_poly_scaled,
    format_pi_expr,
    format_zeta_expr,
    parse_pi_expr,
    parse_zeta_expr,
    poly_derivative_at,
    shifted_legendre,
    shifted_legendre_deriv_at_zero,
    shifted_legendre_rodrigues,
)


class TestPiExpr:
    def test_zero_is_falsy_and_empty(self):
        assert not PiExpr()
        assert PiExpr().terms == {}
        assert PiExpr({2: 0}) == PiExpr()

    def test_arithmetic_round_trip(self):
        rng = random.Random(1234)
        for _ in range(50):
            a = PiExpr({rng.randint(-3, 3): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(3)})
            b = PiExpr({rng.randint(-3, 3): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(3)})
            assert (a + b) - b == a
            q = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert (a * q) / q == a

    def test_product_adds_exponents(self):
        two_over_pi = PiExpr.pi_power(-1, 2)
        assert two_over_pi * HALF_PI == PiExpr.from_rational(1)
        assert PI * PI == PiExpr.pi_power(2)

    def test_evaluate(self):
        val = eval_pi_expr(PiExpr({1: Fraction(1, 2), 0: 3})).value
        assert abs(val - (math.pi / 2 + 3)) < 1e-15

    def test_as_fraction_rejects_pi_terms(self):
        assert PiExpr({0: Fraction(3, 4)}).as_fraction() == Fraction(3, 4)
        with pytest.raises(ValueError):
            PI.as_fraction()

    def test_to_fraction_accuracy(self):
        approx = HALF_PI.to_fraction()
        assert abs(float(approx) - math.pi / 2) < 1e-16


class TestPolynomial:
    def test_degree_and_trailing_zeros(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert Polynomial.zero().is_zero()
        assert Polynomial.zero().degree == 0

    def test_mul_add_identity(self):
        p = Polynomial.from_rationals([1, -2, 3])
        q = Polynomial.from_rationals([0, 5])
        assert (p + q) - q == p
        assert p * Polynomial.constant(1) == p

    def test_evaluate_at_half_pi(self):
        p = Polynomial.monomial(3)
        assert p.evaluate(HALF_PI) == PiExpr.pi_power(3, Fraction(1, 8))

    def test_compose_affine(self):
        # (2x/pi) substituted into x^2 gives (4/pi^2) x^2
        p = Polynomial.monomial(2).compose_affine(PiExpr.pi_power(-1, 2), 0)
        assert p.coeff(2) == PiExpr.pi_power(-2, 4)

    def test_derivative_reduces_degree_by_one(self):
        p = Polynomial.from_rationals([5, 0, 1, 7])
        assert p.derivative().degree == p.degree - 1
        assert p.derivative(4).is_zero()

    def test_definite_integral(self):
        p = Polynomial.x()
        assert p.definite_integral(PiExpr.zero(), HALF_PI) == PiExpr.pi_power(2, Fraction(1, 8))

    def test_evaluate_float_matches_exact(self):
        p = Polynomial.from_rationals([1, Fraction(-1, 3), Fraction(2, 7)])
        x = 0.8125
        exact = p.evaluate(Fraction(13, 16)).as_fraction()
        assert abs(p.evaluate_float(x) - float(exact)) < 1e-14

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_evaluate_float_is_rounded_once(self, n):
        # The basis lies in [-1, 1]; a float Horner over its large alternating
        # coefficients loses everything by degree 30.
        with mpmath.workdps(60):
            for x in (0.1, 0.5, math.pi / 4, 1.2, 1.5):
                ref = mpmath.legendre(n, 4 * mpmath.mpf(x) / mpmath.pi - 1)
                assert abs(shifted_legendre(n).evaluate_float(x) - ref) <= 1e-15


def _exact_evaluator(p):
    """``x -> float(sum(c_k.to_fraction() * Fraction(x)**k))``, the exact sum
    taken over one common denominator and rounded once."""
    folded = [c.to_fraction() for c in p.coeffs]
    den = math.lcm(*(c.denominator for c in folded))
    nums = [c.numerator * (den // c.denominator) for c in folded]
    n = len(nums) - 1

    def value(x):
        m, d = Fraction(x).as_integer_ratio()
        num = sum(a * m**k * d ** (n - k) for k, a in enumerate(nums))
        return float(Fraction(num, den * d**n))

    return value


def _sweep_polynomials():
    rng = random.Random(20161)
    polys = [shifted_legendre(n) for n in range(31)]
    polys += [euler_poly_scaled(n) for n in range(25)]
    for i in range(24):
        scaled = i % 2 == 1  # coefficient k carries pi**-k: a polynomial in 2x/pi
        degree = rng.randint(1, 40)
        polys.append(Polynomial([
            PiExpr({-k if scaled else 0: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))})
            for k in range(degree + 1)
        ]))
    return polys + [Polynomial.zero(), Polynomial.constant(Fraction(-5, 3))]


def _sweep_points():
    from logtan.quadrature import _level_nodes

    points = []
    for level in range(5):
        for d, _ in _level_nodes(level)[::7]:
            for a, b in ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2)):
                half = 0.5 * (b - a)
                points += [a + half * d, b - half * d]
    return points + [5e-324, 1e-300, 0.0, -0.0, -1e-300, -0.3, -1.5, 1.0, 3.75,
                     math.pi / 4, math.pi / 2, math.pi / 2 - 1e-15]


class TestEvaluateFloatBits:
    """The fixed-point fast path returns the bits of the exact evaluation."""

    def test_sweep_matches_exact_rational_horner(self):
        points = _sweep_points()
        for p in _sweep_polynomials():
            exact = _exact_evaluator(p)
            for x in points:
                got, ref = p.evaluate_float(x), exact(x)
                assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), (p, x)

    @pytest.mark.parametrize("x", [1e300, -1e300, 1e30, float("inf"), float("nan")])
    def test_huge_and_non_finite_x_match_value_or_exception(self, x):
        for p in (shifted_legendre(0), shifted_legendre(3), euler_poly_scaled(8),
                  Polynomial.from_rationals([Fraction(1, 3), -2])):
            try:
                ref, ref_exc = _exact_evaluator(p)(x), None
            except (OverflowError, ValueError) as exc:
                ref, ref_exc = None, exc
            try:
                got, got_exc = p.evaluate_float(x), None
            except (OverflowError, ValueError) as exc:
                got, got_exc = None, exc
            if ref_exc is None:
                assert got_exc is None and got == ref
            else:
                assert type(got_exc) is type(ref_exc) and str(got_exc) == str(ref_exc)

    @pytest.mark.parametrize("n", [1, 3, 5, 9, 15])
    def test_odd_euler_root_at_quarter_pi(self, n):
        p = euler_poly_scaled(n)
        assert p.evaluate_float(math.pi / 4) == _exact_evaluator(p)(math.pi / 4)

    def test_dyadic_roots_beyond_one_give_exact_zero(self):
        # Floor errors grow like |x|**j past |x| = 1; the bound must follow.
        rng = random.Random(7)
        rest = Polynomial.from_rationals(
            [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(39)])
        p = Polynomial.from_rationals([Fraction(45, 8), Fraction(9, 4), -1]) * rest
        for root in (3.75, -1.5):
            assert _exact_evaluator(p)(root) == 0.0
            assert p.evaluate_float(root) == 0.0

    def test_even_euler_at_tiny_x_takes_the_exact_fallback(self, monkeypatch):
        # E_n(0) = 0 for even n >= 2, so the value at tiny x is far below the
        # fixed-point resolution and the rounding test must fail.
        calls = []
        exact = Polynomial._evaluate_exact
        monkeypatch.setattr(Polynomial, "_evaluate_exact",
                            lambda self, x: calls.append(x) or exact(self, x))
        p = euler_poly_scaled(8)
        for x in (5e-324, 1e-300, 1e-70):
            assert p.evaluate_float(x) == _exact_evaluator(p)(x)
        assert calls == [5e-324, 1e-300, 1e-70]
        calls.clear()
        assert shifted_legendre(24).evaluate_float(0.3) == _exact_evaluator(shifted_legendre(24))(0.3)
        assert calls == []


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(2 * n + 1) == 0 for n in range(1, 15))

    def test_table(self):
        table = bernoulli_table(6)
        assert table == [bernoulli(n) for n in range(7)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestEulerPolynomials:
    def test_first_polynomials(self):
        assert euler_poly(0) == Polynomial.constant(1)
        assert euler_poly(1) == Polynomial.from_rationals([Fraction(-1, 2), 1])
        assert euler_poly(2) == Polynomial.from_rationals([0, -1, 1])

    @pytest.mark.parametrize("n", range(13))
    def test_reflection_symmetry(self, n):
        # E_n(1-x) = (-1)^n E_n(x) at 50 random rational points in [0,1]
        rng = random.Random(987 + n)
        reflected = euler_poly(n).compose_affine(-1, 1)
        expected = euler_poly(n) * Fraction((-1) ** n)
        assert reflected == expected
        for _ in range(50):
            x = Fraction(rng.randint(0, 128), 128)
            assert reflected.evaluate(x) == euler_poly(n).evaluate(1 - x)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_monomial_inversion(self, n):
        # x^n = E_n(x) + (1/2) sum_{k<n} C(n,k) E_k(x)
        acc = euler_poly(n)
        for k in range(n):
            acc = acc + Fraction(math.comb(n, k), 2) * euler_poly(k)
        assert acc == Polynomial.monomial(n)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("y", [Fraction(1), Fraction(1, 2), Fraction(-2, 3)])
    def test_translation(self, n, y):
        # E_n(x+y) = sum_k C(n,k) E_k(x) y^(n-k) as polynomials in x
        lhs = euler_poly(n).compose_affine(1, y)
        rhs = Polynomial.zero()
        for k in range(n + 1):
            rhs = rhs + math.comb(n, k) * y ** (n - k) * euler_poly(k)
        assert lhs == rhs

    def test_scaled_form(self):
        assert euler_poly_scaled(0) == Polynomial.constant(1)
        e1 = euler_poly_scaled(1)
        assert e1.coeff(0) == PiExpr.from_rational(Fraction(-1, 2))
        assert e1.coeff(1) == PiExpr.pi_power(-1, 2)

    def test_scaled_symmetry(self):
        # E_2(2(pi/2 - x)/pi) = E_2(2x/pi)
        e2 = euler_poly_scaled(2)
        assert e2.compose_affine(-1, HALF_PI) == e2


class TestShiftedLegendre:
    def test_first_polynomials(self):
        assert shifted_legendre(0) == Polynomial.constant(1)
        p1 = shifted_legendre(1)
        assert p1.coeff(0) == PiExpr.from_rational(-1)
        assert p1.coeff(1) == PiExpr.pi_power(-1, 4)

    @pytest.mark.parametrize("n", range(7))
    def test_rodrigues_matches_explicit(self, n):
        assert shifted_legendre_rodrigues(n) == shifted_legendre(n)

    @pytest.mark.parametrize("n", range(9))
    def test_reflection(self, n):
        reflected = shifted_legendre(n).compose_affine(-1, HALF_PI)
        assert reflected == Fraction((-1) ** n) * shifted_legendre(n)

    def test_exact_inner_products(self):
        # <P~_1, P~_1> = 1/3 and <P~_0, P~_1> = 0 by exact integration
        two_over_pi = PiExpr.pi_power(-1, 2)
        p1 = shifted_legendre(1)
        sq = (p1 * p1).definite_integral(PiExpr.zero(), HALF_PI) * two_over_pi
        assert sq.as_fraction() == Fraction(1, 3)
        cross = p1.definite_integral(PiExpr.zero(), HALF_PI) * two_over_pi
        assert not cross

    def test_derivative_at_zero_formula(self):
        assert shifted_legendre_deriv_at_zero(1, 0) == PiExpr.from_rational(-1)
        assert shifted_legendre_deriv_at_zero(1, 1) == PiExpr.pi_power(-1, 4)
        assert shifted_legendre_deriv_at_zero(2, 0) == PiExpr.from_rational(1)

    @pytest.mark.parametrize("n", range(7))
    def test_derivative_at_zero_matches_polynomial(self, n):
        for m in range(n + 1):
            direct = poly_derivative_at(shifted_legendre(n), m, PiExpr.zero())
            assert direct == shifted_legendre_deriv_at_zero(n, m)

    def test_derivative_at_zero_domain(self):
        with pytest.raises(ValueError):
            shifted_legendre_deriv_at_zero(2, 3)


class TestPolyDerivativeAt:
    def test_spec_values(self):
        cube = Polynomial.monomial(3)
        assert poly_derivative_at(cube, 1, HALF_PI) == PiExpr.pi_power(2, Fraction(3, 4))
        assert poly_derivative_at(cube, 3, PiExpr.zero()) == PiExpr.from_rational(6)
        assert not poly_derivative_at(cube, 5, PiExpr.zero())


class TestRendering:
    def test_pi_expr_rendering(self):
        assert format_pi_expr(PiExpr()) == "0"
        assert format_pi_expr(PiExpr({1: Fraction(-1, 2)})) == "-1/2 * pi"
        assert format_pi_expr(PiExpr({0: 1})) == "1"
        assert format_pi_expr(PiExpr({-1: Fraction(7, 4)})) == "7/4 * pi^-1"
        assert format_pi_expr(PiExpr({2: 1})) == "pi^2"

    def test_zeta_expr_rendering(self):
        z = ZetaExpr({3: PiExpr({0: Fraction(7, 8)})})
        assert format_zeta_expr(z) == "7/8 * zeta(3)"
        z2 = ZetaExpr({3: PiExpr({1: Fraction(7, 16)})})
        assert format_zeta_expr(z2) == "7/16 * pi * zeta(3)"
        z3 = ZetaExpr({3: PiExpr({2: Fraction(21, 64)}), 5: PiExpr({0: Fraction(-93, 64)})})
        assert format_zeta_expr(z3) == "21/64 * pi^2 * zeta(3) - 93/64 * zeta(5)"
        assert format_zeta_expr(ZetaExpr()) == "0"

    def test_unit_coefficients_omitted(self):
        assert format_zeta_expr(ZetaExpr({3: 1})) == "zeta(3)"
        assert format_zeta_expr(ZetaExpr({3: PiExpr({1: 1})})) == "pi * zeta(3)"
        assert format_zeta_expr(ZetaExpr({3: -1})) == "-zeta(3)"

    def test_round_trip_random(self):
        rng = random.Random(55)
        for _ in range(60):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                m = 2 * rng.randint(1, 6) + 1
                coeff = PiExpr({rng.randint(-4, 4): Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                                for _ in range(rng.randint(1, 2))})
                terms[m] = terms.get(m, PiExpr()) + coeff
            z = ZetaExpr(terms)
            assert parse_zeta_expr(format_zeta_expr(z)) == z

    def test_pi_round_trip(self):
        p = PiExpr({-1: Fraction(7, 4), 2: Fraction(-3, 5), 0: 2})
        assert parse_pi_expr(format_pi_expr(p)) == p

    def test_parser_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_zeta_expr("7/8 * zeta(3) + garbage")
        with pytest.raises(ValueError):
            parse_zeta_expr("7/8 * pi")


class TestZetaExpr:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZetaExpr({4: 1})
        with pytest.raises(ValueError):
            ZetaExpr({1: 1})

    def test_zero_coefficients_dropped(self):
        assert not ZetaExpr({3: PiExpr()})
        assert ZetaExpr({3: 0}) == ZetaExpr()

    def test_linearity_helpers(self):
        a = ZetaExpr({3: Fraction(1, 2)})
        b = ZetaExpr({5: PiExpr({1: 1})})
        combo = a + b * Fraction(2)
        assert combo.coefficient(3) == PiExpr.from_rational(Fraction(1, 2))
        assert combo.coefficient(5) == PiExpr.pi_power(1, 2)
        assert (combo - combo) == ZetaExpr()

    def test_quarter_pi_constant(self):
        assert QUARTER_PI * 4 == PI
