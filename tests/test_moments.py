"""Tests for the central-moment recursion and its two independent oracles."""

import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatails import _verify
from betatails.moments import (
    BetaParams,
    MAX_MOMENT_ORDER,
    central_moment_binomial_oracle,
    central_moment_hypergeom_oracle,
    central_moments_recursive,
    raw_moment,
    recursion_coefficients,
    standardized_moment,
)
from betatails.specfun import _cgf_kernel

GRID = _verify.BASE_PAIRS

rational_shape = st.fractions(
    min_value=Fraction(1, 8), max_value=40, max_denominator=8
)


class TestBetaParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BetaParams(0, 1)
        with pytest.raises(ValueError):
            BetaParams(Fraction(1), Fraction(-2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            BetaParams(bad, 2)
        with pytest.raises(ValueError):
            BetaParams(2.0, bad)

    def test_int_inputs_become_exact(self):
        p = BetaParams(2, 3)
        assert p.is_exact
        assert p.mean() == Fraction(2, 5)

    def test_float_path_is_not_exact(self):
        assert not BetaParams(2.0, 3.0).is_exact

    def test_swapped(self):
        assert BetaParams(2, 98).swapped() == BetaParams(98, 2)

    @pytest.mark.parametrize("alpha,beta", [(1e308, 1e308), (9e307, 9e307)])
    def test_float_sum_past_the_double_range_raises(self, alpha, beta):
        # Beta(1e308, 1e308) read mean 0.0, raw moment 3 0.0 (true 0.125) and both
        # exact tails at the mean 1.0 and 0.0 (true 0.5)
        with pytest.raises(ValueError, match="sum past the largest double"):
            BetaParams(alpha, beta)

    def test_shapes_that_sum_within_the_double_range_stay(self):
        top = math.nextafter(2.0**1023, 0.0)
        assert BetaParams(top, top).total == 2.0 * top
        assert BetaParams(Fraction(10**400), Fraction(2)).total == 10**400 + 2


class TestRawMoment:
    def test_zeroth(self):
        assert raw_moment(BetaParams(2, 3), 0) == 1

    def test_mean(self):
        assert raw_moment(BetaParams(2, 3), 1) == Fraction(2, 5)

    def test_third(self):
        assert raw_moment(BetaParams(2, 3), 3) == Fraction(4, 35)

    def test_negative_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            raw_moment(BetaParams(2, 3), -1)

    def test_float_shapes_past_the_pochhammer_overflow(self):
        # (a+b)_d passes the largest double by d = 200 at each shape, where the
        # moment itself is still in range; a ratio of two rising factorials read nan
        for a, b in [(2.0, 98.0), (0.5, 0.5), (1e5, 3.0)]:
            for d in (150, 200, 1000):
                ref = float(oracles.raw_moment(a, b, d))
                got = raw_moment(BetaParams(a, b), d)
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (a, b, d)


class TestRecursion:
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(5), Fraction(7, 2)])
    def test_symmetric_odd_moments_vanish(self, a):
        table = central_moments_recursive(BetaParams(a, a), 15)
        for d in range(3, 16, 2):
            assert table.central[d] == 0

    def test_base_cases(self):
        table = central_moments_recursive(BetaParams(2, 98), 10)
        assert table.central[0] == 1
        assert table.central[1] == 0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            central_moments_recursive(BetaParams(2, 3), MAX_MOMENT_ORDER + 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            central_moments_recursive(BetaParams(2, 3), -1)

    # a float a b or s^2 leaves the double range at the two extreme shapes;
    # the scaled constants (b-a)/s and (a/s)(b/s) do not
    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (1e200, 1e200), (1e-300, 1e-300), (0.37, 2.9e5)])
    def test_float_path_tracks_exact_path(self, a, b):
        exact = central_moments_recursive(BetaParams(Fraction(a), Fraction(b)), 12)
        approx = central_moments_recursive(BetaParams(a, b), 12)
        for d in range(13):  # abs=0: the moments of the skewed shape are below 1e-12
            assert float(exact.central[d]) == pytest.approx(approx.central[d], rel=1e-12, abs=0)


class TestBinomialOracle:
    def test_variance(self):
        assert central_moment_binomial_oracle(BetaParams(2, 3), 2) == Fraction(1, 25)

    def test_first_central_moment_vanishes(self):
        assert central_moment_binomial_oracle(BetaParams(7, Fraction(11, 3)), 1) == 0

    def test_uniform_variance(self):
        assert central_moment_binomial_oracle(BetaParams(1, 1), 2) == Fraction(1, 12)

    def test_negative_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            central_moment_binomial_oracle(BetaParams(2, 3), -1)


class TestHypergeomOracle:
    def test_zeroth(self):
        assert central_moment_hypergeom_oracle(BetaParams(2, 98), 0) == 1

    def test_variance(self):
        assert central_moment_hypergeom_oracle(BetaParams(2, 3), 2) == Fraction(1, 25)

    def test_left_skew_is_negative(self):
        assert central_moment_hypergeom_oracle(BetaParams(3, 1), 3) < 0

    def test_requires_exact_params(self):
        with pytest.raises(ValueError):
            central_moment_hypergeom_oracle(BetaParams(2.0, 3.0), 2)

    def test_negative_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            central_moment_hypergeom_oracle(BetaParams(2, 3), -1)


class TestOracleEquivalence:
    @given(rational_shape, rational_shape, st.integers(min_value=0, max_value=12))
    @settings(max_examples=60)
    def test_random_rational_parameters(self, a, b, d):
        params = BetaParams(a, b)
        mu = central_moments_recursive(params, d).central[d]
        assert mu == central_moment_binomial_oracle(params, d)
        assert mu == central_moment_hypergeom_oracle(params, d)


class TestSignAndBoundedness:
    @given(rational_shape, rational_shape)
    @settings(max_examples=80)
    def test_odd_moment_sign_matches_skew_direction(self, a, b):
        table = central_moments_recursive(BetaParams(a, b), 13)
        expected = (b > a) - (b < a)
        for d in range(3, 14, 2):
            mu = table.central[d]
            assert ((mu > 0) - (mu < 0)) == expected

    @given(rational_shape, rational_shape)
    @settings(max_examples=80)
    def test_even_moments_nonnegative_and_bounded(self, a, b):
        table = central_moments_recursive(BetaParams(a, b), 12)
        for d in range(0, 13, 2):
            assert table.central[d] >= 0
        for mu in table.central:
            assert abs(mu) <= 1


class TestPRecursiveForm:
    @pytest.mark.parametrize("a,b", GRID)
    def test_coefficients_reproduce_recursion(self, a, b):
        params = BetaParams(a, b)
        table = central_moments_recursive(params, 12)
        for d in range(2, 13):
            p, q, r = recursion_coefficients(params, d)
            assert p * table.central[d] == q * table.central[d - 1] + r * table.central[d - 2]


class TestStandardizedMoments:
    def test_symmetric_skewness_is_zero(self):
        assert standardized_moment(BetaParams(5, 5), 3) == 0.0

    def test_uniform_kurtosis(self):
        assert standardized_moment(BetaParams(1, 1), 4) == pytest.approx(9 / 5, rel=1e-12)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            standardized_moment(BetaParams(2, 3), 1)

    @staticmethod
    def _oracle(a, b, d):
        # mu_d from the terminating-2F1 route, divided in mpmath
        params = BetaParams(Fraction(a), Fraction(b))
        mu_d = central_moment_hypergeom_oracle(params, d)
        mu_2 = central_moment_hypergeom_oracle(params, 2)
        return float(oracles.standardized_ratio(mu_d, mu_2, d))

    # mu_2^(d/2) underflows a double at every point: d = 170 is inaccurate
    # and d >= 200 divides by zero if the two are floated separately; at
    # Beta(2, 10^200) mu_2 itself is below the smallest double
    HIGH_ORDERS = [
        (2, 98, 170), (2, 98, 171), (2, 98, 200), (1, 1, 999), (1, 1, 1000),
        pytest.param(2, 10**200, 3, id="2-10^200-3"),
    ]

    @pytest.mark.parametrize("a,b,d", HIGH_ORDERS)
    def test_high_order_exact_shapes(self, a, b, d):
        got = standardized_moment(BetaParams(a, b), d)
        assert got == pytest.approx(self._oracle(a, b, d), rel=1e-15, abs=0.0)

    # Beta(1, 1) at d = 1100: mu_d itself is below the smallest double
    @pytest.mark.parametrize("a,b,d", HIGH_ORDERS + [(1, 1, 1100), (98, 2, 171)])
    def test_high_order_float_shapes(self, a, b, d):
        got = standardized_moment(BetaParams(float(a), float(b)), d)
        assert got == pytest.approx(self._oracle(a, b, d), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", [1e-300, 1e200])
    def test_extreme_float_shapes_stay_in_range(self, a):
        # alpha beta and (alpha+beta)^2 leave the double range; the kurtosis does not
        got = standardized_moment(BetaParams(a, a), 4)
        assert got == pytest.approx(3.0 - 6.0 / (2.0 * a + 3.0), rel=1e-15)

    @pytest.mark.parametrize("a,b", [(1e200, 1.0), (1.0, 1e200), (5e-324, 1.0)])
    def test_float_shapes_whose_variance_underflows(self, a, b):
        # mu_2 underflows to 0 here, though skewness and kurtosis are finite
        skewness, kurtosis = oracles.skewness_kurtosis(a, b)
        params = BetaParams(a, b)
        assert standardized_moment(params, 3) == pytest.approx(float(skewness), rel=1e-14)
        if math.isinf(float(kurtosis)):  # 2.0e323 at Beta(5e-324, 1)
            with pytest.raises(OverflowError):
                standardized_moment(params, 4)
        else:
            assert standardized_moment(params, 4) == pytest.approx(float(kurtosis), rel=1e-14)

    @pytest.mark.parametrize("shape", [(2, 98), (2.0, 98.0)])
    def test_past_the_largest_double_is_an_overflow_error(self, shape):
        # the exact value at d = 230 is 2.0e340
        with pytest.raises(OverflowError):
            standardized_moment(BetaParams(*shape), 230)

    def test_float_order_cap(self):
        with pytest.raises(ValueError):
            standardized_moment(BetaParams(2.0, 3.0), MAX_MOMENT_ORDER + 1)


# Hard Chernoff-sweep shapes, the paper's shape and two others. With each
# shape, the tilts just below and just above the one where the largest term
# of the 1F1 series reaches index 10, where the kernel switches from one
# forward pass to the walk out from that term (the other shapes reach it
# before the 1F1 branch starts at t^2 = 16 (alpha+beta+1)).
KERNEL_SHAPES = {
    (0.5, 0.7): (10.73, 10.75),
    (0.6103, 381.2): (405.5, 406.4),
    (791, 0.8636): (),
    (475.4, 0.5178): (),
    (444.7, 0.967): (),
    (2, 98): (98.99, 99.19),
    (300, 700): (),
    (5, 5): (13.56, 13.58),
}
KERNEL_TILTS = (30, 100, 1e3, 1e4, 1e5, 2e5)


class TestCgfKernelOracle:
    @pytest.mark.parametrize("a,b", list(KERNEL_SHAPES))
    def test_matches_mpmath_on_the_1f1_branch(self, a, b):
        tilts = [t for t in KERNEL_TILTS + KERNEL_SHAPES[a, b] if t * t > 16 * (a + b + 1)]
        for t in tilts:
            psi, dpsi, d2psi, _ = _cgf_kernel(float(a), float(b), t)
            ref, dref, d2ref = oracles.cgf_derivatives(a, b, t)
            assert abs(psi - ref) <= 2e-15 * t
            assert dpsi == pytest.approx(float(dref), rel=1e-12, abs=0.0)
            assert d2psi == pytest.approx(float(d2ref), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a,b,t", [
        (2041.7, 0.0016, 209.0), (9337.7, 0.3, 555.0), (0.001, 15.0, 30.0), (0.005, 15.0, 30.0),
    ])
    def test_matches_mpmath_at_extreme_shape_ratios(self, a, b, t):
        # psi' = b E[k / (s (s+k))] under the tilted weights does not cancel
        # as the shape ratio grows; t psi' as a difference of the mean index
        # and t would lose digits in proportion to it. A tiny alpha walks down
        # to k = 1, where s + k - 1 and a + k - 1 must not round s or a to 2^-52 absolute
        psi, dpsi, d2psi, _ = _cgf_kernel(a, b, t)
        ref, dref, d2ref = oracles.cgf_derivatives(a, b, t)
        assert abs(psi - ref) <= 6e-16 * t
        assert dpsi == pytest.approx(float(dref), rel=7e-15, abs=0.0)
        assert d2psi == pytest.approx(float(d2ref), rel=6e-14, abs=0.0)
