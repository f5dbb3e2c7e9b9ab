"""Tests for the central-moment recursion and its two independent oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

GRID = [
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2), Fraction(98)),
    (Fraction(7), Fraction(11, 3)),
    (Fraction(98), Fraction(2)),
]

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
                with mpmath.workdps(50):
                    ref = float(mpmath.rf(a, d) / mpmath.rf(a + b, d))
                got = raw_moment(BetaParams(a, b), d)
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (a, b, d)


class TestRecursion:
    def test_variance(self):
        table = central_moments_recursive(BetaParams(2, 3), 2)
        assert table.central[2] == Fraction(1, 25)

    def test_third_moment(self):
        table = central_moments_recursive(BetaParams(2, 3), 3)
        assert table.central[3] == Fraction(2, 875)

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
    @pytest.mark.parametrize("a,b", GRID)
    def test_three_routes_agree_exactly(self, a, b):
        params = BetaParams(a, b)
        table = central_moments_recursive(params, 20)
        for d in range(21):
            assert table.central[d] == central_moment_binomial_oracle(params, d)
            assert table.central[d] == central_moment_hypergeom_oracle(params, d)

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


class TestScaledRecursion:
    @pytest.mark.parametrize("a,b", GRID)
    def test_normalized_moments_satisfy_scaled_form(self, a, b):
        params = BetaParams(a, b)
        s = params.total
        central = central_moments_recursive(params, 20).central
        m = [mu / math.factorial(d) for d, mu in enumerate(central)]
        for d in range(2, 21):
            lhs = d * (s + d - 1) * m[d]
            rhs = (d - 1) * (b - a) / s * m[d - 1] + a * b / (s * s) * m[d - 2]
            assert lhs == rhs


class TestPRecursiveForm:
    @pytest.mark.parametrize("a,b", GRID)
    def test_coefficients_linear_in_order(self, a, b):
        params = BetaParams(a, b)
        for d in range(2, 15):
            lo = recursion_coefficients(params, d)
            mid = recursion_coefficients(params, d + 1)
            hi = recursion_coefficients(params, d + 2)
            for i in range(3):
                assert mid[i] - lo[i] == hi[i] - mid[i]

    @pytest.mark.parametrize("a,b", GRID)
    def test_coefficients_reproduce_recursion(self, a, b):
        params = BetaParams(a, b)
        table = central_moments_recursive(params, 12)
        for d in range(2, 13):
            p, q, r = recursion_coefficients(params, d)
            assert p * table.central[d] == q * table.central[d - 1] + r * table.central[d - 2]


class TestVarianceAndScaleIdentities:
    @pytest.mark.parametrize("a,b", GRID)
    def test_closed_forms(self, a, b):
        params = BetaParams(a, b)
        s = a + b
        table = central_moments_recursive(params, 3)
        assert table.central[2] == a * b / (s * s * (s + 1))
        assert table.central[3] / table.central[2] == 2 * (b - a) / (s * (s + 2))


class TestStandardizedMoments:
    def test_symmetric_skewness_is_zero(self):
        assert standardized_moment(BetaParams(5, 5), 3) == 0.0

    def test_skewness_2_3(self):
        assert standardized_moment(BetaParams(2, 3), 3) == pytest.approx(2 / 7, rel=1e-12)

    def test_uniform_kurtosis(self):
        assert standardized_moment(BetaParams(1, 1), 4) == pytest.approx(9 / 5, rel=1e-12)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            standardized_moment(BetaParams(2, 3), 1)

    @staticmethod
    def _oracle(a, b, d):
        # mu_d from the terminating-2F1 route, divided at 40 digits
        params = BetaParams(Fraction(a), Fraction(b))
        mu_d = central_moment_hypergeom_oracle(params, d)
        mu_2 = central_moment_hypergeom_oracle(params, 2)
        with mpmath.workdps(40):
            ratio = mpmath.mpf(mu_d.numerator) / mu_d.denominator
            scale = (mpmath.mpf(mu_2.numerator) / mu_2.denominator) ** (mpmath.mpf(d) / 2)
            return float(ratio / scale)

    # mu_2^(d/2) underflows a double at every point: d = 170 is inaccurate
    # and d >= 200 divides by zero if the two are floated separately
    HIGH_ORDERS = [(2, 98, 170), (2, 98, 171), (2, 98, 200), (1, 1, 999), (1, 1, 1000)]

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
        with mpmath.workdps(40):
            a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
            s = a_ + b_
            skewness = 2 * (b_ - a_) * mpmath.sqrt(s + 1) / ((s + 2) * mpmath.sqrt(a_ * b_))
            kurtosis = 3 + 6 * ((a_ - b_) ** 2 * (s + 1) - a_ * b_ * (s + 2)) / (
                a_ * b_ * (s + 2) * (s + 3)
            )
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


def _mp_cgf(alpha, beta, t):
    """psi(t), psi'(t), psi''(t) from mpmath's 1F1 at 50 digits.

    With F = 1F1(alpha; s; t), F1 = F' and F2 = F'': psi = log F - t mu,
    psi' = F1/F - mu and psi'' = F2/F - (F1/F)^2.
    """
    with mpmath.workdps(50):
        a, b, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(t)
        s = a + b
        f = mpmath.hyp1f1(a, s, t)
        f1 = a / s * mpmath.hyp1f1(a + 1, s + 1, t)
        f2 = a * (a + 1) / (s * (s + 1)) * mpmath.hyp1f1(a + 2, s + 2, t)
        return mpmath.log(f) - t * a / s, f1 / f - a / s, f2 / f - (f1 / f) ** 2


class TestCgfKernelOracle:
    @pytest.mark.parametrize("a,b", list(KERNEL_SHAPES))
    def test_matches_mpmath_on_the_1f1_branch(self, a, b):
        tilts = [t for t in KERNEL_TILTS + KERNEL_SHAPES[a, b] if t * t > 16 * (a + b + 1)]
        for t in tilts:
            psi, dpsi, d2psi, _ = _cgf_kernel(float(a), float(b), t)
            ref, dref, d2ref = _mp_cgf(a, b, t)
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
        ref, dref, d2ref = _mp_cgf(a, b, t)
        assert abs(psi - ref) <= 6e-16 * t
        assert dpsi == pytest.approx(float(dref), rel=7e-15, abs=0.0)
        assert d2psi == pytest.approx(float(d2ref), rel=6e-14, abs=0.0)
