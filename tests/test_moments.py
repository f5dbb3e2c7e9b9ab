"""Tests for the central-moment recursion and its two independent oracles."""

import math
from fractions import Fraction

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

    def test_normalized_consistent_with_central(self):
        table = central_moments_recursive(BetaParams(2, 3), 20)
        for d in range(21):
            assert table.normalized[d] * math.factorial(d) == table.central[d]

    def test_order_cap(self):
        with pytest.raises(ValueError):
            central_moments_recursive(BetaParams(2, 3), MAX_MOMENT_ORDER + 1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            central_moments_recursive(BetaParams(2, 3), -1)

    def test_float_path_tracks_exact_path(self):
        exact = central_moments_recursive(BetaParams(2, 3), 12)
        approx = central_moments_recursive(BetaParams(2.0, 3.0), 12)
        for d in range(13):
            assert float(exact.central[d]) == pytest.approx(approx.central[d], rel=1e-12)
            assert float(exact.normalized[d]) == pytest.approx(
                approx.normalized[d], rel=1e-12
            )


class TestBinomialOracle:
    def test_variance(self):
        assert central_moment_binomial_oracle(BetaParams(2, 3), 2) == Fraction(1, 25)

    def test_first_central_moment_vanishes(self):
        assert central_moment_binomial_oracle(BetaParams(7, Fraction(11, 3)), 1) == 0

    def test_uniform_variance(self):
        assert central_moment_binomial_oracle(BetaParams(1, 1), 2) == Fraction(1, 12)


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
        m = central_moments_recursive(params, 20).normalized
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
