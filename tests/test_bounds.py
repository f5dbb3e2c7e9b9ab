"""Tests for the closed-form tail bounds and the sub-gaussian competitor."""

import math
import random
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatails import bounds, chernoff
from betatails.bounds import (
    SubGammaParams,
    TailSide,
    bernstein_tail_bound,
    exact_tail,
    log_upper_bound,
    sub_gamma_bound,
    subgaussian_bound,
    subgaussian_optimal_proxy,
    sub_gamma_params,
)
from betatails.cli import comparison_rows
from betatails.moments import BetaParams
from betatails.specfun import ConvergenceError


class TestSubGammaParamsComputation:
    def test_skewed_values(self):
        sg = sub_gamma_params(BetaParams(2, 98))
        assert sg.v == Fraction(196, 1_010_000)
        assert sg.c == Fraction(192, 10_200)

    def test_symmetric_scale_vanishes(self):
        assert sub_gamma_params(BetaParams(5, 5)).c == 0

    def test_matches_moment_ratios(self):
        sg = sub_gamma_params(BetaParams(2, 3))
        assert sg.v == Fraction(1, 25)
        assert sg.c == Fraction(2, 35)

    def test_rejects_nonpositive_variance(self):
        for v in (0, math.nan):
            with pytest.raises(ValueError):
                SubGammaParams(v=v, c=1)

    def test_rejects_non_finite_pair(self):
        # a nan or infinite v or c made every bound of the pair read nan or inf
        for v, c in ((math.inf, 1), (0.01, math.nan), (0.01, math.inf), (0.01, -math.inf)):
            with pytest.raises(ValueError):
                SubGammaParams(v=v, c=c)

    # a float a b or s^2 (s+1) overflows to nan at the first shape and
    # underflows to a zero divisor at the second
    @pytest.mark.parametrize("a", [1e200, 1e-300])
    def test_float_shapes_at_the_extremes_track_the_exact_path(self, a):
        b = 1.5 * a
        sg = sub_gamma_params(BetaParams(a, b))
        exact = sub_gamma_params(BetaParams(Fraction(a), Fraction(b)))
        assert sg.v == pytest.approx(float(exact.v), rel=1e-15, abs=0)
        assert sg.c == pytest.approx(float(exact.c), rel=1e-15, abs=0)
        eps = 0.1 * math.sqrt(sg.v)
        for side in TailSide:
            assert 0.0 < bernstein_tail_bound(BetaParams(a, b), eps, side) < 1.0

    @pytest.mark.parametrize("a,b", [(2.0, 1e200), (1e200, 2.0)])
    def test_float_shapes_whose_variance_underflows_take_the_exact_pair(self, a, b):
        # v = 2e-400 is 0.0 as a double; every entry point that reads the pair gives
        # the outcome of the exact pair of the same doubles: its value or its error type
        def outcomes(p):
            calls = [
                lambda: sub_gamma_params(p), lambda: bounds.bernstein_params(p),
                lambda: subgaussian_optimal_proxy(p), lambda: subgaussian_bound(p, 0.1),
                lambda: chernoff.chernoff_exponents(p, [0.0, 1e-3]),
                lambda: chernoff.chernoff_exponent_expansion(p, 1e-3),
                lambda: comparison_rows(p, [0.0, 1e-3]),
                *(lambda side=side: bernstein_tail_bound(p, 0.1, side) for side in TailSide),
                *(lambda side=side: chernoff.chernoff_exponent_numeric(p, 1e-3, side)
                  for side in TailSide),
            ]
            found = []
            for call in calls:
                try:
                    found.append(call())
                except (ValueError, OverflowError, ConvergenceError) as exc:
                    found.append(type(exc))
            return found

        assert outcomes(BetaParams(a, b)) == outcomes(BetaParams(Fraction(a), Fraction(b)))
        assert bernstein_tail_bound(BetaParams(a, b), 0.1, TailSide.UPPER) == 0.0


class TestSubGammaBound:
    def test_unit_at_zero(self):
        sg = sub_gamma_params(BetaParams(2, 98))
        assert sub_gamma_bound(sg, 0.0) == 1.0

    def test_gaussian_branch(self):
        sg = SubGammaParams(v=0.04, c=0.0)
        assert sub_gamma_bound(sg, 0.1) == pytest.approx(
            math.exp(-0.01 / 0.08), rel=1e-14
        )

    def test_skewed_value(self):
        # exponent computed by hand in exact arithmetic:
        # eps^2 / (2 (v + c eps / 3)) at eps = 1/50
        v = Fraction(196, 1_010_000)
        c = Fraction(192, 10_200)
        eps = Fraction(1, 50)
        exponent = (eps * eps) / (2 * (v + c * eps / 3))
        expected = math.exp(-float(exponent))
        got = sub_gamma_bound(sub_gamma_params(BetaParams(2, 98)), 0.02)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.5348, rel=1e-3)

    def test_nonpositive_denominator_rejected(self):
        sg = SubGammaParams(v=0.001, c=-1.0)
        for eps in (1.0, math.inf):
            with pytest.raises(ValueError):
                sub_gamma_bound(sg, eps)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            sub_gamma_bound(sub_gamma_params(BetaParams(2, 3)), -0.1)

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_zero_at_infinite_eps(self, c):
        assert sub_gamma_bound(SubGammaParams(v=0.01, c=c), math.inf) == 0.0

    @pytest.mark.parametrize("shape", [(98, 2), (98.0, 2.0)], ids=["exact", "float"])
    def test_negative_scale_at_infinite_eps_is_a_value_error(self, shape):
        # c < 0 makes the denominator -inf at eps = inf; an exact pair has no
        # Fraction(inf) to form, so it takes the float pair's raise
        with pytest.raises(ValueError, match="not positive at eps=inf"):
            sub_gamma_bound(sub_gamma_params(BetaParams(*shape)), math.inf)

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            sub_gamma_bound(sub_gamma_params(BetaParams(2, 3)), math.nan)


class TestBernsteinTailBound:
    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            bernstein_tail_bound(BetaParams(2, 98), math.nan, TailSide.UPPER)

    def test_unit_at_zero(self):
        assert bernstein_tail_bound(BetaParams(2, 98), 0.0, TailSide.UPPER) == 1.0

    # every branch of every side: the sub-gamma one (Beta(2,98) upper,
    # Beta(5,5) both, Beta(98,2) lower) and the gaussian one
    @pytest.mark.parametrize("a,b", [(2, 98), (5, 5), (98, 2)])
    @pytest.mark.parametrize("side", [TailSide.UPPER, TailSide.LOWER])
    def test_zero_at_infinite_eps(self, a, b, side):
        p = BetaParams(a, b)
        assert bernstein_tail_bound(p, math.inf, side) == 0.0
        assert exact_tail(p, math.inf, side) == 0.0

    def test_right_skew_upper_uses_sub_gamma(self):
        p = BetaParams(2, 98)
        assert bernstein_tail_bound(p, 0.02, TailSide.UPPER) == pytest.approx(
            0.5348, rel=1e-3
        )

    def test_left_skew_upper_uses_gaussian(self):
        # beta < alpha: exponent is eps^2/(2v) = 101/98 at eps = 0.02
        got = bernstein_tail_bound(BetaParams(98, 2), 0.02, TailSide.UPPER)
        assert got == pytest.approx(math.exp(-101 / 98), rel=1e-13)

    @pytest.mark.parametrize("a,b,eps,expected", [
        (2, 10**162, 1e-162, 0.82902911818040036),  # v and c eps / 3 round to 0.0
        (2, 10**161, 1e-161, 0.82902911818040034),  # v subnormal: floated, 1.2e-3 off
        (10**162, 2, 1e-162, 0.77880078307140489),  # the gaussian shape, about exp(-1/4)
        (10**400, 2, 0.1, 0.0),  # the exponent passes the double range
    ], ids=["2-1e162", "2-1e161", "1e162-2", "1e400-2"])
    def test_exact_shapes_whose_float_denominator_is_not_normal(self, a, b, eps, expected):
        # the float denominator v + c eps / 3 is subnormal or 0 at these exact shapes;
        # mpmath gives the same value from the moments' closed forms
        reference = float(oracles.bernstein_bound(a, b, eps))
        assert reference == pytest.approx(expected, rel=1e-16, abs=0.0)
        got = bernstein_tail_bound(BetaParams(a, b), eps, TailSide.UPPER)
        assert got == pytest.approx(reference, rel=2e-16, abs=0.0)

    def test_float_denominators_keep_the_float_path(self):
        # a Fraction pair with a normal denominator, and any float pair, read
        # exp(-eps^2 / (2.0 (v + c eps / 3))) in doubles, as they always have
        for sg in (sub_gamma_params(BetaParams(2, 98)), SubGammaParams(v=1e-320, c=0.0)):
            denom = float(sg.v) + float(sg.c) * 0.02 / 3.0
            assert sub_gamma_bound(sg, 0.02) == math.exp(-0.02 * 0.02 / (2.0 * denom))

    @given(
        st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=6),
        st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_reflection(self, a, b, eps):
        lower = bernstein_tail_bound(BetaParams(a, b), eps, TailSide.LOWER)
        upper = bernstein_tail_bound(BetaParams(b, a), eps, TailSide.UPPER)
        assert lower == upper


class TestUpperShape:
    # bounds.upper_shape decides the side for every side-taking entry point, so a side
    # that is not a TailSide raises there instead of falling through to some tail
    @pytest.mark.parametrize("fn", [
        exact_tail, bernstein_tail_bound, chernoff.chernoff_exponent_numeric,
    ], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("side", ["upper", "lower", None])
    def test_a_side_that_is_not_a_tail_side_raises(self, fn, side):
        with pytest.raises(ValueError, match="side must be a TailSide"):
            fn(BetaParams(2, 98), 0.01, side)

    @pytest.mark.parametrize("side,exact,bernstein,exponent", [
        (TailSide.UPPER, 0.19913, 0.82308, 0.19674),
        (TailSide.LOWER, 0.26054, 0.77286, 0.39391),
    ], ids=["upper", "lower"])
    def test_each_side_reads_its_own_tail(self, side, exact, bernstein, exponent):
        p = BetaParams(2, 98)
        assert exact_tail(p, 0.01, side) == pytest.approx(exact, abs=5e-6)
        assert bernstein_tail_bound(p, 0.01, side) == pytest.approx(bernstein, abs=5e-6)
        got = chernoff.chernoff_exponent_numeric(p, 0.01, side).exponent
        assert got == pytest.approx(exponent, abs=5e-6)

    def test_lower_side_domain_error_names_the_lower_tail(self):
        # the solve runs on Beta(1e200, 2), whose width 1 - 1e200 / (1e200 + 2) cancels to
        # 0.0; the message names the side the caller asked for
        with pytest.raises(ValueError, match=r"\(0, 0\.0\) for the lower tail"):
            chernoff.chernoff_exponent_numeric(BetaParams(2.0, 1e200), 1e-3, TailSide.LOWER)

    def test_lower_side_forms_no_doubles(self):
        # an exact shape past the double range keeps the exact pair's path on both sides
        assert bernstein_tail_bound(BetaParams(2, 10**400), 0.1, TailSide.LOWER) == 0.0


class TestExactTail:
    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            exact_tail(BetaParams(2, 98), math.nan, TailSide.UPPER)

    def test_upper_tail_value(self):
        # quadrature oracle: P{X > 0.04} for Beta(2, 98)
        got = exact_tail(BetaParams(2, 98), 0.02, TailSide.UPPER)
        assert got == pytest.approx(0.09006290282719214, rel=1e-10)

    def test_beyond_support_is_zero(self):
        p = BetaParams(2, 98)
        assert exact_tail(p, 0.99, TailSide.UPPER) == 0.0
        assert exact_tail(p, 0.03, TailSide.LOWER) == 0.0

    def test_tiny_shape_upper_tail_is_a_probability(self):
        # I_{0.999}(2, 1e-300) read -1.2e-14 unclamped; the tail is 5.9e-300
        # (mpmath, 400 digits)
        assert exact_tail(BetaParams(1e-300, 2.0), 1e-3, TailSide.UPPER) == 0.0

    def test_sides_complement_at_mean(self):
        p = BetaParams(2, 3)
        up = exact_tail(p, 0.0, TailSide.UPPER)
        lo = exact_tail(p, 0.0, TailSide.LOWER)
        assert up + lo == pytest.approx(1.0, rel=1e-12)


class TestLogRefinement:
    # The refinement sits BELOW log(1+x) for x > 0: the gap
    # f(x) = log(1+x) - x + x^2/(2(1+x/3)) has f'(x) = x^2(x+9)/(2(x+1)(x+3)^2) >= 0
    # and f(0) = 0, so f is non-negative and strictly positive away from 0.
    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=500)
    def test_lower_bounds_log1p(self, x):
        assert math.log1p(x) >= log_upper_bound(x)

    @given(st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=300)
    def test_strictly_below_log1p_away_from_origin(self, x):
        assert math.log1p(x) > log_upper_bound(x)


class TestSubgaussianProxy:
    def test_always_at_least_variance(self):
        for a, b in [(2, 3), (2, 98), (98, 2), (7, 2)]:
            p = BetaParams(a, b)
            assert subgaussian_optimal_proxy(p) >= float(sub_gamma_params(p).v)

    def test_matches_precomputed_supremum_2_98(self):
        # sup_t 2 psi(t)/t^2 located at t ~ 325 by high-precision search
        assert subgaussian_optimal_proxy(BetaParams(2, 98)) == pytest.approx(
            2.091559059052e-3, rel=1e-6
        )

    def test_matches_precomputed_supremum_2_998(self):
        # sup located at t ~ 3472, far beyond the initial scan window
        assert subgaussian_optimal_proxy(BetaParams(2, 998)) == pytest.approx(
            2.046915856857e-4, rel=1e-6
        )

    def test_root_past_a_fixed_bracket_limit(self):
        # the root lies near t = 5.8e7, where a walk by single terms would
        # sum about 65,000 of them above the series' peak: more than the
        # 10,000-term floor of the kernel's budget, which is 4t + 2000 there
        p = BetaParams(1, 1e7)
        proxy = subgaussian_optimal_proxy(p)
        assert float(sub_gamma_params(p).v) <= proxy <= 1.0 / (4.0 * (1e7 + 2.0))

    @pytest.mark.parametrize("a,b", [(1, 1e8), (2174, 5.5e8)])
    def test_huge_shape_root_is_fast(self, a, b):
        # the root lies near t ~ s, where the series' bell spans about
        # 18 sqrt(s) terms; the kernel samples it at about 40 points
        p = BetaParams(a, b)
        start = time.perf_counter()
        proxy = subgaussian_optimal_proxy(p)
        assert time.perf_counter() - start < 1.0
        assert float(sub_gamma_params(p).v) <= proxy <= 1.0 / (4.0 * (a + b + 1.0))

    def test_rising_objective_reports_steps_and_limit(self, monkeypatch):
        # g > 0 everywhere: doubling from 4 sqrt(2 + 98 + 1) = 40.2 evaluates
        # 12 tilts up to 8.2e4, and the next, 1.6e5, passes 1e3 (2 + 98 + 1)
        monkeypatch.setattr(bounds, "_cgf_kernel", lambda a, b, t: (0.0, 0.0, 0.0, 1.0))
        with pytest.raises(ConvergenceError, match=r"after 12 steps.* = 101000\.0$"):
            subgaussian_optimal_proxy(BetaParams(2, 98))

    def test_lost_root_reports_steps(self, monkeypatch):
        # a NaN residual past t = 1 would let the bracket close on the jump to NaN
        # at t = 1 and return there; it raises where it first appears instead
        kernel = lambda a, b, t: (0.0, 0.0, 0.0, 1.0 if t < 1.0 else math.nan)
        monkeypatch.setattr(bounds, "_cgf_kernel", kernel)
        with pytest.raises(ConvergenceError, match=r"residual is nan at t=40\.19.* after 1 steps"):
            subgaussian_optimal_proxy(BetaParams(2, 98))

    def test_nan_residual_below_the_start_raises(self, monkeypatch):
        # the residual is finite at the start and NaN on the way down to the root
        kernel = lambda a, b, t: (1.0, 0.0, 0.0, -1.0 if t > 1.0 else math.nan)
        monkeypatch.setattr(bounds, "_cgf_kernel", kernel)
        with pytest.raises(ConvergenceError, match=r"residual is nan at t=0\.62.* after 7 steps"):
            subgaussian_optimal_proxy(BetaParams(2, 98))

    def test_residual_below_zero_everywhere_runs_out_of_steps(self, monkeypatch):
        # g < 0 at every t: each step halves t from 40.2 and no bracket closes,
        # so the loop spends its whole budget
        monkeypatch.setattr(bounds, "_cgf_kernel", lambda a, b, t: (0.0, 0.0, 0.0, -1.0))
        with pytest.raises(ConvergenceError, match=r"root not found for .* in 200 steps: \[0\.0, "):
            subgaussian_optimal_proxy(BetaParams(2, 98))

    def test_value_over_elder_bound_reports_steps(self, monkeypatch):
        # psi = 10 gives 2 psi / t^2 = 0.0124 at the start t = 40.2, five times
        # Elder's 1 / (4 (2 + 98 + 1)); the root is found at the third tilt, 161
        kernel = lambda a, b, t: (10.0, 0.0, 0.0, 1.0 if t < 100.0 else 0.0)
        monkeypatch.setattr(bounds, "_cgf_kernel", kernel)
        message = r"exceeds Elder's bound 0\.0024752.* after 3 steps$"
        with pytest.raises(ConvergenceError, match=message):
            subgaussian_optimal_proxy(BetaParams(2, 98))

    def test_near_symmetric_roots_stop_clear_of_zero(self, monkeypatch):
        # b = a (1 + delta): the root nears 0 with delta, and the half-ulp stop
        # fires far above t = 1e-12. The proxy lies within [v, Elder's bound],
        # which round an ulp apart, in either order, at the most symmetric shapes
        tilts = []
        kernel = bounds._cgf_kernel

        def recorded(a, b, t):
            tilts.append(t)
            return kernel(a, b, t)

        monkeypatch.setattr(bounds, "_cgf_kernel", recorded)
        rng = random.Random(2017)
        for _ in range(400):
            a = 10.0 ** rng.uniform(-3.0, 7.0)
            p = BetaParams(a, a * (1.0 + 10.0 ** rng.uniform(-16.0, -2.0)))
            tilts.clear()
            proxy = subgaussian_optimal_proxy(p)
            elder = 1.0 / (4.0 * (p.total + 1.0))
            assert float(sub_gamma_params(p).v) <= proxy <= elder * (1.0 + 1e-15), p
            assert len(tilts) <= 64 and min(tilts, default=1.0) > 1e-12, p

    @pytest.mark.parametrize("a,b", [(2, 98), (2, 998)])
    def test_paper_shapes_take_few_kernel_evaluations(self, monkeypatch, a, b):
        # doubling from 1e-12 and Illinois steps took 59 and 61 evaluations
        calls = 0
        kernel = bounds._cgf_kernel

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(bounds, "_cgf_kernel", counted)
        subgaussian_optimal_proxy(BetaParams(a, b))
        assert calls <= 12

    def test_start_stays_clear_of_the_wide_forward_pass(self):
        # at t = alpha + beta the kernel's forward pass sums tens of thousands
        # of terms; a loop started there took longer than that one evaluation.
        # Started at 4 sqrt(alpha + beta + 1), the whole proxy takes a fraction of it
        p = BetaParams(1, 1e7)

        def best_of_three(call):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                result = call()
                times.append(time.perf_counter() - start)
            return min(times), result

        wide, _ = best_of_three(lambda: bounds._cgf_kernel(1.0, 1e7, 1e7))
        elapsed, proxy = best_of_three(lambda: subgaussian_optimal_proxy(p))
        assert elapsed < 0.5 * wide
        assert float(sub_gamma_params(p).v) <= proxy <= 1.0 / (4.0 * (1e7 + 2.0))


# Shapes from mildly to extremely skewed, both orientations, tiny to large.
ORACLE_SHAPES = [
    (2, 3), (3, 2), (1000, 1001), (0.5, 0.7), (0.01, 0.02), (1e-3, 1),
    (0.3, 30), (2, 98), (98, 2), (2, 998), (1, 1e4),
]


class TestSubgaussianProxyOracle:
    @pytest.mark.parametrize("a,b", ORACLE_SHAPES)
    def test_matches_mpmath_stationarity_root(self, a, b):
        expected, mirror = oracles.subgaussian_proxy(a, b)
        assert mirror < expected
        assert subgaussian_optimal_proxy(BetaParams(a, b)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("a,b", ORACLE_SHAPES)
    def test_between_variance_and_elder_bound(self, a, b):
        p = BetaParams(a, b)
        proxy = subgaussian_optimal_proxy(p)
        assert float(sub_gamma_params(p).v) <= proxy <= 1.0 / (4.0 * (a + b + 1))


class TestSubgaussianBound:
    def test_nan_eps_rejected(self, monkeypatch):
        def unreachable(params):
            raise AssertionError("the proxy was solved for a bad eps")

        monkeypatch.setattr(bounds, "subgaussian_optimal_proxy", unreachable)
        with pytest.raises(ValueError):
            subgaussian_bound(BetaParams(2, 98), math.nan)

    def test_unit_at_zero(self):
        assert subgaussian_bound(BetaParams(2, 98), 0.0) == 1.0

    def test_symmetric_matches_gaussian_form(self):
        p = BetaParams(5, 5)
        v = float(sub_gamma_params(p).v)
        for eps in (0.05, 0.2, 0.4):
            assert subgaussian_bound(p, eps) == pytest.approx(
                math.exp(-eps * eps / (2 * v)), rel=1e-6
            )

    def test_weaker_than_bernstein_for_skewed_shape(self):
        p = BetaParams(2, 98)
        assert subgaussian_bound(p, 0.02) > bernstein_tail_bound(p, 0.02, TailSide.UPPER)

    def test_precomputed_proxy_shortcut(self):
        # many deviations of one shape: the sub-gamma shape at (proxy, 0), bit for bit,
        # which is exp(-eps^2 / (2 proxy)) as v + 0 eps / 3 is v
        p = BetaParams(2, 98)
        proxy = subgaussian_optimal_proxy(p)
        sg = SubGammaParams(v=proxy, c=0)
        for eps in (0.0, 1e-3, 0.01, 0.05, 0.5, math.inf):
            value = subgaussian_bound(p, eps)
            assert sub_gamma_bound(sg, eps) == value
            assert value == (math.exp(-eps * eps / (2.0 * proxy)) if eps else 1.0)
