"""Numeric constants layer: zeta, Catalan, digamma, expression evaluation."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from logtan.closed_forms import exact_L, legendre_L_coeff
from logtan.constants import (
    EULER_GAMMA,
    LOG2,
    catalan,
    digamma,
    eval_pi_expr,
    eval_zeta_expr,
    zeta_even_exact,
    zeta_int,
)
from logtan.constants import (
    _alternating_fixed,
    _borwein_d,
    _eval_zeta_expr_guarded,
    _pi_fixed,
    _zeta_fixed,
)
from logtan.core import PiExpr, ZetaExpr, euler_poly, euler_poly_scaled
from logtan.quadrature import FunctionSpec, integrate_logtan

ZETA3 = 1.2020569031595942854
ZETA5 = 1.0369277551433699263
CATALAN_REF = 0.9159655941772190151


class TestZetaInt:
    def test_apery(self):
        assert abs(zeta_int(3).value - ZETA3) <= 1e-15 * ZETA3

    def test_zeta2(self):
        assert abs(zeta_int(2).value - math.pi**2 / 6) <= 1e-15 * zeta_int(2).value

    def test_zeta5(self):
        assert abs(zeta_int(5).value - ZETA5) <= 1e-15 * ZETA5

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_int(1)
        with pytest.raises(TypeError):
            zeta_int(2.5)

    def test_strictly_decreasing_to_one(self):
        values = [zeta_int(s).value for s in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 1.0
        assert zeta_int(15).value - 1.0 < 1e-4

    def test_stable_under_doubled_cutoff(self):
        # Doubling the working precision does not move the rounded double.
        for s in (2, 3, 5, 9):
            doubles = {z / 2**bits for bits in (128, 256) for z, _ in [_zeta_fixed(s, bits)]}
            with mpmath.workdps(50):
                assert doubles == {zeta_int(s).value} == {float(mpmath.zeta(s))}

    def test_err_bound_honest(self):
        for s in (2, 3, 7):
            nv = zeta_int(s)
            assert nv.err_bound >= 0.0
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(nv.value) - mpmath.zeta(s)) <= nv.err_bound

    def test_correctly_rounded_with_the_stated_bound(self):
        with mpmath.workdps(50):
            for s in range(2, 482):
                nv = zeta_int(s)
                assert nv.value == float(mpmath.zeta(s)), s
                assert nv.err_bound == 0.5 * math.ulp(nv.value), s

    @pytest.mark.parametrize("s", [10**44, 2**1024 - 2**970, 10**400],
                             ids=["1e44", "2^1024-2^970", "1e400"])
    def test_argument_beyond_float_range(self, s):
        # 2**1024 - 2**970 is the first integer that does not convert to a float.
        # zeta(s) rounds to 1.0; half an ulp of 1.0 is 2**-53.
        nv = zeta_int(s)
        assert (nv.value, nv.err_bound) == (1.0, 2.0**-53)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_values_match_bernoulli_form(self, n):
        exact = eval_pi_expr(zeta_even_exact(n)).value
        assert abs(zeta_int(2 * n).value - exact) <= 1e-14 * exact


class TestCertifiedFixedPoint:
    """Integer fixed point: z stands for (z - err, z + err) / 2**bits."""

    @staticmethod
    def assert_encloses(z, err, bits, exact):
        assert err >= 0
        assert abs(mpmath.mpf(z) / mpmath.mpf(2) ** bits - exact) <= mpmath.mpf(err) / 2**bits

    def test_borwein_d_from_its_defining_sum(self):
        for n in (1, 2, 5, 27, 60):
            d = _borwein_d(n)
            for k in range(n + 1):
                total = n * sum(Fraction(math.factorial(n + i - 1) * 4**i,
                                         math.factorial(n - i) * math.factorial(2 * i))
                                for i in range(k + 1))
                assert d[k] == total

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_zeta_within_its_stated_error(self, bits):
        # At least 100 digits, and 20 more than the working precision.
        with mpmath.workdps(max(100, int(bits * 0.302) + 20)):
            for s in range(2, 201):
                z, err = _zeta_fixed(s, bits)
                self.assert_encloses(z, err, bits, mpmath.zeta(s))

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_beta_within_its_stated_error(self, bits):
        # Dirichlet's beta(s) = sum_k chi(k) / k^s with chi = 0, 1, 0, -1 mod 4.
        with mpmath.workdps(max(100, int(bits * 0.302) + 20)):
            for s in range(1, 41):
                z, err = _alternating_fixed(s, bits, 2)
                self.assert_encloses(z, err, bits, mpmath.dirichlet(s, [0, 1, 0, -1]))

    @pytest.mark.parametrize("s", [10**6, 10**400])
    def test_zeta_of_huge_argument(self, s):
        assert _zeta_fixed(s, 64) == (1 << 64, 1)

    @pytest.mark.parametrize("bits", [1, 20, 64, 128, 512, 2048])
    def test_machin_pi_within_its_stated_error(self, bits):
        with mpmath.workdps(max(100, int(bits * 0.302) + 20)):
            self.assert_encloses(*_pi_fixed(bits), bits, mpmath.pi)

    @staticmethod
    def reference(e, dps=80):
        with mpmath.workdps(dps):
            return sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**j * mpmath.zeta(m)
                       for m in e.arguments() for j, q in e.coefficient(m).terms.items())

    def assert_guarded_within_bound(self, e):
        got = _eval_zeta_expr_guarded(e)
        ref = self.reference(e)
        with mpmath.workdps(80):
            assert abs(mpmath.mpf(got.value) - ref) <= got.err_bound
        # Correctly rounded: the 80-digit sum rounds to the same double.
        assert got.value == float(ref)

    @pytest.mark.parametrize("n", [10, 20, 40, 60])
    def test_guarded_euler_sums(self, n):
        e = exact_L(euler_poly(n))
        self.assert_guarded_within_bound(e)

    def test_guarded_random_ill_conditioned_sums(self):
        # Large coefficients of both signs and pi powers of both signs, so the
        # terms cancel by many orders of magnitude.
        rng = random.Random(2013)
        for _ in range(40):
            terms = {}
            for m in rng.sample(range(3, 40, 2), rng.randint(2, 6)):
                terms[m] = PiExpr({rng.randint(-12, 12): Fraction(
                    rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 30)),
                    rng.randint(1, 10**6))})
            e = ZetaExpr(terms)
            # Cancel the leading 15 or 45 digits, so that the value is far
            # below the terms and the starting precision does not suffice.
            digits = rng.choice((15, 45))
            with mpmath.workdps(digits + 10):
                ratio = mpmath.nstr(self.reference(e, digits + 10) / mpmath.zeta(3), digits)
            e = e - ZetaExpr({3: Fraction(ratio)})
            self.assert_guarded_within_bound(e)


class TestZetaEvenExact:
    def test_small_cases(self):
        assert zeta_even_exact(1) == PiExpr({2: Fraction(1, 6)})
        assert zeta_even_exact(2) == PiExpr({4: Fraction(1, 90)})
        assert zeta_even_exact(3) == PiExpr({6: Fraction(1, 945)})


class TestCatalan:
    def test_correctly_rounded(self):
        g = catalan()
        with mpmath.workdps(50):
            assert g.value == float(mpmath.catalan)
        assert g.err_bound == 0.5 * math.ulp(g.value)

    def test_value(self):
        g = catalan()
        assert abs(g.value - CATALAN_REF) <= 1e-14

    def test_range(self):
        assert 0.0 < catalan().value < 1.0

    def test_integral_consistency(self):
        oracle = integrate_logtan(FunctionSpec.monomial(0), 0.0, math.pi / 4, tol=1e-11)
        assert abs(-oracle.value - catalan().value) <= 1e-10


class TestDigamma:
    def test_half(self):
        assert abs(digamma(0.5).value - (-EULER_GAMMA - 2 * LOG2)) <= 1e-13

    def test_one(self):
        assert abs(digamma(1.0).value + EULER_GAMMA) <= 1e-13

    def test_three_halves(self):
        assert abs(digamma(1.5).value - (-EULER_GAMMA - 2 * LOG2 + 2.0)) <= 1e-13

    def test_recurrence(self):
        for x in (0.3, 1.7, 6.5, 23.0):
            assert abs(digamma(x + 1.0).value - digamma(x).value - 1.0 / x) <= 1e-13

    def test_large_argument(self):
        # psi(50) from the recurrence against the series evaluated directly
        direct = digamma(50.0).value
        stepped = digamma(50.0 - 30.0).value + math.fsum(1.0 / (20.0 + k) for k in range(30))
        assert abs(direct - stepped) <= 1e-12

    @pytest.mark.parametrize("grid", ["near the root", "wide", "log-spaced"])
    def test_err_bound_honest(self, grid):
        # The root of psi is at x = 1.4616..., where the error is all absolute.
        rng = random.Random(1461)
        points = {
            "near the root": [rng.uniform(0.3, 3.0) for _ in range(40000)],
            "wide": [rng.uniform(0.05, 30.0) for _ in range(5000)],
            "log-spaced": [10.0 ** (-300 + 600 * k / 1999) for k in range(2000)],
        }[grid]
        with mpmath.workdps(30):
            for x in points:
                nv = digamma(x)
                assert abs(mpmath.mpf(nv.value) - mpmath.digamma(x)) <= nv.err_bound, x

    def test_below_the_reciprocal_range(self):
        # 1/x overflows, and the bound says so.
        assert tuple(digamma(1e-320)) == (-math.inf, math.inf)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-2.5)


class TestEvalZetaExpr:
    def test_examples(self):
        assert eval_zeta_expr(ZetaExpr()).value == 0.0
        v = eval_zeta_expr(ZetaExpr({3: Fraction(7, 8)}))
        assert abs(v.value - 7 / 8 * ZETA3) <= 1e-15
        v2 = eval_zeta_expr(ZetaExpr({3: PiExpr({1: Fraction(7, 16)})}))
        assert abs(v2.value - 7 / 16 * math.pi * ZETA3) <= 1e-14

    def test_error_bound_scales(self):
        nv = eval_zeta_expr(ZetaExpr({3: Fraction(7, 8)}))
        assert 0.0 <= nv.err_bound <= 1e-13

    def test_cancellation_guarded(self):
        # The odd-basis coefficients hide catastrophic float cancellation at
        # large index; spot-check against a slow independent summation.
        import mpmath

        for index in (19, 29):
            got = eval_zeta_expr(legendre_L_coeff(index)).value
            with mpmath.workdps(80):
                n = (index + 1) // 2
                ref = mpmath.mpf(0)
                for k in range(1, n + 1):
                    q = Fraction(
                        2 * (-1) ** (k - 1) * math.factorial(2 * (n + k - 1)),
                        math.factorial(2 * k - 1) * math.factorial(2 * (n - k)),
                    ) * (1 - Fraction(1, 2 ** (2 * k + 1)))
                    ref += (
                        mpmath.mpf(q.numerator)
                        / q.denominator
                        * mpmath.pi ** (1 - 2 * k)
                        * mpmath.zeta(2 * k + 1)
                    )
                ref = float(ref)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_eval_pi_expr(self):
        v = eval_pi_expr(PiExpr({1: Fraction(-1, 2)}))
        assert abs(v.value + math.pi / 2) <= 1e-15
        assert eval_pi_expr(PiExpr()).value == 0.0

    def test_fast_and_guarded_paths_agree(self):
        import random

        from logtan.constants import _eval_zeta_expr_guarded

        rng = random.Random(77)
        for _ in range(80):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                m = 2 * rng.randint(1, 8) + 1
                coeff = PiExpr(
                    {rng.randint(-3, 3): Fraction(rng.randint(-50, 50), rng.randint(1, 30))}
                )
                terms[m] = terms.get(m, PiExpr()) + coeff
            z = ZetaExpr(terms)
            fast = eval_zeta_expr(z).value
            guarded = _eval_zeta_expr_guarded(z).value
            assert abs(fast - guarded) <= 1e-13 * max(1.0, abs(guarded))


class TestOneEvaluator:
    """Every exact value is summed in integer intervals and correctly rounded."""

    zeta_reference = staticmethod(TestCertifiedFixedPoint.reference)

    @staticmethod
    def pi_reference(p, dps=200):
        with mpmath.workdps(dps):
            return sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi**j
                       for j, q in p.terms.items())

    @staticmethod
    def random_pi_expr(rng):
        return PiExpr({rng.randint(-60, 60): Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 30)),
            rng.randint(1, 10**rng.randint(1, 12))) for _ in range(rng.randint(1, 4))})

    @staticmethod
    def assert_correctly_rounded(got, ref):
        with mpmath.workdps(200):
            assert got.value == float(ref)
            assert abs(mpmath.mpf(got.value) - ref) <= got.err_bound
        assert got.err_bound == 0.5 * math.ulp(got.value)

    def test_random_zeta_exprs(self):
        rng = random.Random(19)
        for _ in range(60):
            e = ZetaExpr({m: self.random_pi_expr(rng)
                          for m in rng.sample(range(3, 60, 2), rng.randint(1, 5))})
            # Cancel up to 40 leading digits against a rational times zeta(3).
            digits = rng.randint(0, 40)
            if digits:
                with mpmath.workdps(digits + 10):
                    ratio = mpmath.nstr(self.zeta_reference(e, digits + 10) / mpmath.zeta(3),
                                        digits)
                e = e - ZetaExpr({3: Fraction(ratio)})
            self.assert_correctly_rounded(eval_zeta_expr(e), self.zeta_reference(e, 200))

    def test_random_pi_exprs(self):
        rng = random.Random(29)
        for _ in range(100):
            p = self.random_pi_expr(rng)
            # Cancel up to 40 leading digits against a rational.
            digits = rng.randint(0, 40)
            if digits:
                p = p - PiExpr({0: Fraction(mpmath.nstr(self.pi_reference(p, digits + 10),
                                                        digits))})
            if p:
                self.assert_correctly_rounded(eval_pi_expr(p), self.pi_reference(p))

    @pytest.mark.parametrize("n", range(19, 40, 2))
    def test_scaled_odd_euler(self, n):
        e = exact_L(euler_poly_scaled(n))
        self.assert_correctly_rounded(eval_zeta_expr(e), self.zeta_reference(e, 200))

    @pytest.mark.parametrize("j", [-650, -700])
    def test_below_the_normal_range(self, j):
        # pi**-650 is a few subnormal ulps and pi**-700 rounds to 0; half an
        # ulp is not a double there, so the bound is the least double.
        got = eval_pi_expr(PiExpr({j: 1}))
        with mpmath.workdps(50):
            assert got.value == float(mpmath.pi**j)
            assert abs(mpmath.mpf(got.value) - mpmath.pi**j) <= got.err_bound == 5e-324

    def test_even_zeta_from_its_bernoulli_form(self):
        with mpmath.workdps(50):
            for n in range(1, 40):
                assert eval_pi_expr(zeta_even_exact(n)).value == float(mpmath.zeta(2 * n)), n


class TestDigammaQuadratureTie:
    def test_reflection_sanity(self):
        # the digamma closed form for the cosine integral at z = 1/2
        z = 0.5
        bracket = (
            digamma((1 + z) / 2).value + digamma((1 - z) / 2).value - 2 * digamma(0.5).value
        )
        closed = math.sin(math.pi * z) / (4 * z) * bracket
        oracle = integrate_logtan(FunctionSpec.cos2z(z), tol=1e-11).value
        assert abs(closed - oracle) <= 1e-9
