"""Tests for the centered MGF/CGF and the numeric Chernoff machinery."""

import math
import sys
import time
from fractions import Fraction

import oracles
import pytest

from betatails import chernoff
from betatails._verify import _logspace
from betatails.bounds import TailSide, bernstein_params, exact_tail, sub_gamma_params
from betatails.chernoff import (
    ChernoffResult,
    centered_mgf,
    cgf,
    chernoff_exponent_numeric,
    chernoff_exponents,
    cumulant_upper_bound,
    best_tilt,
    chernoff_exponent_expansion,
    _predict_root,
)
from betatails.moments import BetaParams, central_moments_recursive
from betatails.specfun import ConvergenceError, _cgf_kernel

# Every kernel branch (series, forward pass, walk by single terms and by samples),
# and alpha > beta on the upper side (the gaussian branch).
SOLVE_ORACLE_SHAPES = [(2, 98), (2, 998), (5, 5), (2, 3), (98, 2), (0.5, 0.7), (527.9, 263.4)]
# deviations as fractions of the upper support width; every root lies below t = 1e5,
# where the mpmath oracle's root search stays quick
SOLVE_ORACLE_FRACTIONS = [1e-3, 1e-2, 0.1, 0.5, 0.9]


def _ratio_holds(params, t):
    """The derivative-ratio inequality at one t in (0, 1/c), as MGF-DERIVATIVE-RATIO
    states it: phi'/phi = psi'(t) from the CGF kernel is at most v t / (1 - c t)
    plus 1e-10, (v, c) the Bernstein pair (c = 0 when alpha > beta)."""
    sg = bernstein_params(params)
    v, c = float(sg.v), float(sg.c)
    assert 0.0 < t and c * t < 1.0, t
    psi_prime = _cgf_kernel(float(params.alpha), float(params.beta), t)[1]
    return psi_prime <= v * t / (1.0 - c * t) + 1e-10


class TestCenteredMgf:
    def test_unit_at_zero(self):
        assert centered_mgf(BetaParams(2, 98), 0.0) == 1.0

    @pytest.mark.parametrize("t", [-8.0, -1.0, 0.5, 3.0, 10.0])
    def test_uniform_closed_form(self, t):
        # Beta(1,1) centered MGF is e^(-t/2) (e^t - 1)/t
        expected = math.exp(-t / 2) * math.expm1(t) / t
        assert centered_mgf(BetaParams(1, 1), t) == pytest.approx(expected, rel=1e-12)

    def test_matches_truncated_moment_series(self):
        params = BetaParams(2, 98)
        table = central_moments_recursive(params, 40)
        t = 10.0
        series = 1.0 + math.fsum(
            float(table.central[d] / math.factorial(d)) * t**d for d in range(2, 41)
        )
        assert centered_mgf(params, t) == pytest.approx(series, rel=1e-10)


class TestCgf:
    def test_zero_at_origin(self):
        assert cgf(BetaParams(2, 3), 0.0) == 0.0

    @pytest.mark.parametrize("t", [-20.0, -3.0, 0.1, 2.0, 15.0])
    def test_nonnegative_everywhere(self, t):
        # Jensen: phi(t) >= exp(t E[Z]) = 1
        assert cgf(BetaParams(2, 3), t) >= -1e-13

    def test_definition_matches_mgf(self):
        p = BetaParams(2, 3)
        assert cgf(p, 1.0) == pytest.approx(math.log(centered_mgf(p, 1.0)), rel=1e-12)

    def test_large_tilt_past_the_iteration_cap(self):
        # a sum from k = 0 would need about 2t terms; the walk out from the
        # series' peak samples its bell at about 40 points, well inside the
        # 4t + 2000 term budget
        expected = oracles.cgf(2, 98, 2e5)
        assert cgf(BetaParams(2, 98), 2e5) == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("t", [1e11, 1e15])
    def test_huge_tilt_is_fast_and_exact(self, t):
        # a walk by single terms would sum about 18 sqrt(t) of them
        start = time.perf_counter()
        psi = cgf(BetaParams(2, 98), t)
        assert time.perf_counter() - start < 0.1
        assert psi == pytest.approx(float(oracles.cgf(2, 98, t)), rel=1e-12)

    def test_huge_shapes_stay_finite(self):
        # a * b / s^2 formed in floats would overflow to inf / inf = nan here
        p = BetaParams(1e200, 1.5e200)
        v = float(sub_gamma_params(p).v)
        psi = cgf(p, 1.0)
        assert math.isfinite(psi)
        assert psi == pytest.approx(v / 2.0, rel=1e-12)
        assert _ratio_holds(p, 1.0)

    def test_centered_series_stops_on_its_tail_bound(self):
        # 2.8 t + 60 terms would be 2.8e9 here; the terms fall like (t^2 / s)^(d/2)
        start = time.perf_counter()
        psi = cgf(BetaParams(1e30, 1e30), 1e9)
        assert time.perf_counter() - start < 1.0
        v = 1.0 / (4.0 * (2e30 + 1.0))
        assert psi == pytest.approx(v * 1e18 / 2.0, rel=1e-12)

    def test_peak_past_2_53_is_loud_and_fast(self):
        # past 2^53 k += 1.0 no longer moves k, so the series would never end
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="k0="):
            cgf(BetaParams(2, 98), 1e17)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t", [12.0, 100.0, 1e3])
    def test_sums_past_the_double_range_raise(self, t):
        # at alpha = 1e-310 the walk's sums leave the double range, where psi would
        # read nan (t = 12) or -inf (t = 100 and 1e3)
        with pytest.raises(ConvergenceError, match="passes the double range"):
            cgf(BetaParams(1e-310, 1.0), t)

    @pytest.mark.parametrize("fn", [cgf, centered_mgf], ids=["cgf", "centered_mgf"])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tilt_is_a_value_error(self, fn, t):
        with pytest.raises(ValueError, match="finite"):
            fn(BetaParams(2, 98), t)

    @pytest.mark.parametrize("t", [5e-324, 1e-170, -1e-170])
    def test_tiny_tilt_is_the_origin(self, t):
        # v t^2 / 2 underflows to 0; the series would divide by t * t = 0
        p = BetaParams(2, 98)
        assert cgf(p, t) == 0.0
        assert centered_mgf(p, t) == 1.0
        assert _ratio_holds(p, abs(t))


class TestChernoffExponent:
    def test_small_eps_is_nearly_gaussian(self):
        p = BetaParams(2, 3)
        v = float(sub_gamma_params(p).v)
        res = chernoff_exponent_numeric(p, 1e-3, TailSide.UPPER)
        assert res.converged
        assert res.exponent == pytest.approx(1e-6 / (2 * v), rel=1e-3)

    def test_matches_high_precision_reference(self):
        # psi*(0.02) for Beta(2, 98) via arbitrary-precision root-finding on psi'
        res = chernoff_exponent_numeric(BetaParams(2, 98), 0.02, TailSide.UPPER)
        assert res.converged
        assert res.exponent == pytest.approx(0.6444033788423, abs=1e-9)
        assert res.t_star == pytest.approx(53.0685, rel=1e-3)

    @pytest.mark.parametrize("a,b", [(2, 98), (2, 3), (98, 2)])
    def test_bounds_exact_tail(self, a, b):
        p = BetaParams(a, b)
        mu = float(p.mean())
        for eps in _logspace(5e-3 * (1 - mu), 0.7 * (1 - mu), 8):
            res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
            assert math.exp(-res.exponent) >= exact_tail(p, eps, TailSide.UPPER) - 1e-10

    def test_lower_side_reflects(self):
        lo = chernoff_exponent_numeric(BetaParams(98, 2), 0.01, TailSide.LOWER)
        up = chernoff_exponent_numeric(BetaParams(2, 98), 0.01, TailSide.UPPER)
        assert lo.exponent == up.exponent

    def test_result_invariants(self):
        res = chernoff_exponent_numeric(BetaParams(2, 98), 0.03, TailSide.UPPER)
        assert isinstance(res, ChernoffResult)
        assert res.exponent >= 0.0
        assert res.t_star >= 0.0

    @pytest.mark.parametrize("a,b", SOLVE_ORACLE_SHAPES)
    def test_matches_mpmath_stationarity_root(self, a, b):
        p = BetaParams(a, b)
        width = 1.0 - float(p.mean())
        for fraction in SOLVE_ORACLE_FRACTIONS:
            eps = fraction * width
            res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
            assert res.converged
            expected = float(oracles.chernoff_exponent(a, b, eps))
            assert res.exponent == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.98, 1.5])
    def test_domain_validation(self, eps):
        with pytest.raises(ValueError):
            chernoff_exponent_numeric(BetaParams(2, 98), eps, TailSide.UPPER)

    def test_budget_exhaustion_is_flagged_not_raised(self):
        # a deviation this close to the support edge puts the maximizer near
        # t = 1e6 and t = 1e14, far past any fixed bracket; the solve
        # converges there. At the gap of 1e-12, t eps - psi(t) cancels from
        # about 1e14 down to 2702, so its rounding, about t eps 2^-52, is the
        # floor of the agreement there
        p = BetaParams(2, 98)
        for gap in (1e-4, 1e-12):
            eps = 0.98 * (1.0 - gap)
            start = time.perf_counter()
            res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
            assert time.perf_counter() - start < 5.0
            assert res.converged
            floor = res.t_star * eps * 2.0**-52 if gap < 1e-4 else 0.0
            expected = float(oracles.chernoff_exponent(2, 98, eps))
            assert res.exponent == pytest.approx(expected, rel=1e-12, abs=floor)
            assert math.exp(-res.exponent) >= exact_tail(p, eps, TailSide.UPPER) - 1e-10

    @pytest.mark.parametrize("eps", [0.3325, 0.33259])
    def test_first_guess_past_the_cap_starts_at_the_cap(self, eps):
        # just below v/|c| = 0.332597 on the gaussian branch the first guess
        # eps / (v + c eps) is 4e6 and 6e7, past the roots 7.1e5 and 9.4e5;
        # the large-t estimate b / (1 - mu - eps) caps it, and the solve
        # converges there
        p = BetaParams(527.9, 263.4)
        start = time.perf_counter()
        res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
        assert time.perf_counter() - start < 5.0
        assert res.converged
        expected = float(oracles.chernoff_exponent(527.9, 263.4, eps))
        assert res.exponent == pytest.approx(expected, rel=1e-12)
        assert math.exp(-res.exponent) >= exact_tail(p, eps, TailSide.UPPER) - 1e-10

    @pytest.mark.parametrize("eps", [1e-97, 1e-120, 1e-150])
    def test_tiny_deviation_converges_to_the_expansion(self, eps):
        # the first tilt is the cold guess eps / (v + c eps), near the root; from a
        # floor far above it Newton lands at or below 0 and the solve only halves t
        p = BetaParams(2, 98)
        res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
        assert res.converged
        expansion = chernoff_exponent_expansion(p, eps)
        assert res.exponent == pytest.approx(expansion, rel=2.0**-52, abs=0.0)

    def test_newton_step_out_of_the_bracket_bisects(self, monkeypatch):
        # at Beta(0.01, 1e4), eps = 0.1 a Newton step from above the root lands
        # below the bracket's lower end; the solve bisects there and still
        # reaches the root
        p, eps = BetaParams(0.01, 1e4), 0.1
        tilts = []
        kernel = chernoff._cgf_kernel

        def recorded(a, b, t):
            out = kernel(a, b, t)
            tilts.append((t, out[1]))
            return out

        monkeypatch.setattr(chernoff, "_cgf_kernel", recorded)
        res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
        bisections = 0
        for k in range(2, len(tilts)):
            lo = max((t for t, slope in tilts[:k] if slope < eps), default=0.0)
            hi = min((t for t, slope in tilts[:k] if slope >= eps), default=math.inf)
            bisections += hi < math.inf and tilts[k][0] == 0.5 * (lo + hi)
        assert bisections >= 1
        assert res.converged
        expected = float(oracles.chernoff_exponent(0.01, 1e4, eps))
        assert res.exponent == pytest.approx(expected, rel=1e-12)

    def test_lost_root_reports_steps(self, monkeypatch):
        # a NaN psi' past t = 1 would let the bracket close on the jump to NaN and
        # report a converged exponent there; it raises where it first appears instead.
        # The cold guess is t = 0.51, and the step from it doubles t
        kernel = lambda a, b, t: (0.0, 0.0 if t < 1.0 else math.nan, 1e-5, 0.0)
        monkeypatch.setattr(chernoff, "_cgf_kernel", kernel)
        with pytest.raises(ConvergenceError, match=r"residual is nan at t=1\.02.* after 2 steps"):
            chernoff_exponent_numeric(BetaParams(2, 98), 1e-4, TailSide.UPPER)

    @pytest.mark.parametrize("fraction", [1e-3, 0.5, 0.999])
    def test_tiny_alpha_raises_instead_of_converging(self, fraction):
        # the kernel's sums at alpha = 1e-310 pass the double range from t = 11.3 on;
        # a solve that bisected on the NaN there would report converged=True at
        # t* = 11.11 for every deviation, where mpmath reads psi*(0.5) = 359.50 at t = 720
        p = BetaParams(1e-310, 1.0)
        with pytest.raises(ConvergenceError):
            chernoff_exponent_numeric(p, fraction * (1.0 - float(p.mean())), TailSide.UPPER)

    @pytest.mark.parametrize("a,b,fraction", [
        (1e-3, 1e100, 0.5),  # the solve reaches t = 1e100: a forward pass from k0 = 0
        (0.5, 1e100, 0.5),
        (1e-300, 98.0, 1.0 - 1e-9),  # a walk by single terms about k0 = 2.1e8
    ])
    def test_step_cap_raises_where_the_series_ran_on(self, a, b, fraction):
        # each root needs one of the kernel's loops to run far past its 2^20 steps
        p = BetaParams(a, b)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="steps"):
            chernoff_exponent_numeric(p, fraction * (1.0 - a / (a + b)), TailSide.UPPER)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("eps", [1e-170, 1e-200, 1e-300])
    def test_underflowing_exponent_keeps_its_tilt(self, eps):
        # eps^2 / (2v) underflows to 0 here, so every evaluated t ties at f = 0;
        # the root eps / v is still reported, and the exponent is +0.0
        p = BetaParams(2, 98)
        res = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
        assert res.converged
        assert res.exponent == 0.0 and math.copysign(1.0, res.exponent) == 1.0
        assert res.t_star == pytest.approx(eps / float(sub_gamma_params(p).v), rel=1e-12, abs=0.0)


class TestChernoffExponents:
    def test_zero_deviation_is_the_zero_exponent(self):
        assert chernoff_exponents(BetaParams(2, 98), [0.0]) == [ChernoffResult(0.0, 0.0, True)]

    @pytest.mark.parametrize("eps", [0.98, 0.99, math.inf])
    def test_support_edge_on_is_infinite(self, eps):
        # the float width 1 - 2/100 is 0.98 exactly
        (result,) = chernoff_exponents(BetaParams(2, 98), [eps])
        assert result.exponent == math.inf and math.exp(-result.exponent) == 0.0

    @pytest.mark.parametrize("eps", [math.nan, -1e-3, -math.inf])
    def test_nan_or_negative_deviation_is_a_value_error(self, eps):
        with pytest.raises(ValueError):
            chernoff_exponents(BetaParams(2, 98), [0.01, eps])

    @pytest.mark.parametrize("a,b", SOLVE_ORACLE_SHAPES)
    def test_one_point_is_the_numeric_exponent(self, a, b):
        p = BetaParams(a, b)
        width = 1.0 - float(p.mean())
        for fraction in SOLVE_ORACLE_FRACTIONS:
            eps = fraction * width
            (result,) = chernoff_exponents(p, [eps])
            assert result == chernoff_exponent_numeric(p, eps, TailSide.UPPER)

    def test_warm_sweep_matches_mpmath(self):
        # each solve after the first starts from the previous ones' prediction
        p = BetaParams(2, 98)
        epss = [0.98 * i / 10 for i in range(10)]
        results = chernoff_exponents(p, epss)
        assert results[0] == ChernoffResult(0.0, 0.0, True)
        for eps, result in zip(epss[1:], results[1:]):
            assert result.converged
            expected = float(oracles.chernoff_exponent(2, 98, eps))
            assert result.exponent == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a,b", SOLVE_ORACLE_SHAPES)
    def test_repeated_deviation_at_a_kernel_slope_is_the_cold_solve(self, a, b):
        # eps = psi'(t0) lets a solve end on psi' = eps exactly; the next solves then
        # predict t0 itself and repeat its fit, which the sweep keeps once
        p = BetaParams(a, b)
        for t0 in (0.5, 5.0, 50.0, 1e3, 1e4):
            eps = _cgf_kernel(float(a), float(b), t0)[1]
            cold = chernoff_exponent_numeric(p, eps, TailSide.UPPER)
            for result in chernoff_exponents(p, [eps] * 6):
                assert result.converged
                assert abs(result.exponent - cold.exponent) <= 1e-15 * max(1.0, cold.t_star)


    def test_solve_after_a_tiny_deviation_is_the_cold_solve(self):
        # the tangent at t near 5e-95 predicts far past twice that tilt, so the
        # solve at 0.01 starts from the cold guess, not by doubling from 5e-95
        p = BetaParams(2, 98)
        tiny, later = chernoff_exponents(p, [1e-98, 0.01])
        assert tiny.converged and later.converged
        assert later == chernoff_exponent_numeric(p, 0.01, TailSide.UPPER)


def _inverse_map(coeffs, xs):
    """(psi', t, 1 / psi'') at each x of the map t = sum_k coeffs[k] x^k."""
    return [
        (x, sum(a * x**k for k, a in enumerate(coeffs)),
         sum(k * a * x ** (k - 1) for k, a in enumerate(coeffs) if k))
        for x in xs
    ]


class TestPredictRoot:
    QUINTIC = (0.3, 2.0, -1.5, 0.7, 0.4, -0.9)

    @pytest.mark.parametrize("degree,nodes", [(5, (0.1, 0.25, 0.4)), (3, (0.25, 0.4)), (1, (0.4,))])
    def test_reproduces_a_map_of_its_degree(self, degree, nodes):
        # k nodes with their slopes fix a polynomial of degree 2k - 1
        coeffs = self.QUINTIC[: degree + 1]
        fits = _inverse_map(coeffs, nodes)
        for eps in (0.45, 0.5, 0.6):
            ((_, t, _),) = _inverse_map(coeffs, [eps])
            assert _predict_root(fits, eps, -1.0) == pytest.approx(t, rel=1e-14)

    def test_nodes_with_equal_psi_prime_are_left_out(self, monkeypatch):
        # a repeated deviation ends solve after solve on one psi'; chernoff_exponents
        # keeps one fit per psi', so _predict_root only ever sees distinct nodes
        # (three equal ones divided by zero)
        predict, nodes = chernoff._predict_root, []

        def recorded(fits, eps, cold):
            nodes.append([x for x, _, _ in fits])
            return predict(fits, eps, cold)

        monkeypatch.setattr(chernoff, "_predict_root", recorded)
        for a, b, eps in [(1.974, 0.401, 0.001), (0.19, 0.231, 0.1), (60.42, 23.85, 0.002)]:
            chernoff_exponents(BetaParams(a, b), [eps] * 6)
        assert len(nodes) == 15
        assert all(len(set(xs)) == len(xs) for xs in nodes)
        assert any(len(xs) < min(i % 5 + 1, 3) for i, xs in enumerate(nodes))  # a fit replaced

    @pytest.mark.parametrize("fits,eps", [
        ([(0.25, 0.8, 2.0)], 10.0),  # past twice the newest t
        ([(0.25, 0.8, 2.0)], -10.0),  # below 0
        ([(0.25, 0.8, 2.0)], math.nan),
        ([(0.25, 0.8, math.inf)], 0.25),  # psi'' rounded to 0: inf times 0 is nan
        ([(0.1, 0.5, 2.0), (0.25, 0.8, math.inf)], 0.3),
    ])
    def test_prediction_outside_the_doubling_limit_is_the_cold_guess(self, fits, eps):
        assert _predict_root(fits, eps, 0.125) == 0.125


class TestChernoffExponentExpansion:
    def test_zero_at_origin(self):
        assert chernoff_exponent_expansion(BetaParams(2, 5), 0.0) == 0.0

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            chernoff_exponent_expansion(BetaParams(2, 98), math.nan)

    def test_symmetric_is_pure_gaussian(self):
        p = BetaParams(3, 3)
        v = float(sub_gamma_params(p).v)
        assert chernoff_exponent_expansion(p, 0.04) == pytest.approx(0.04**2 / (2 * v), rel=1e-14)

    def test_hand_evaluated_polynomial(self):
        # v = 5/196, c = 2/21 for Beta(2, 5); eps = 1/100
        v, c, eps = Fraction(5, 196), Fraction(2, 21), Fraction(1, 100)
        expected = eps**2 / (2 * v) - c * eps**3 / (6 * v**2)
        assert chernoff_exponent_expansion(BetaParams(2, 5), 0.01) == pytest.approx(
            float(expected), rel=1e-12
        )

    @pytest.mark.parametrize("a,b", [(1e300, 1e300), (1e-300, 1.0)])
    def test_variance_whose_square_underflows(self, a, b):
        # v * v underflows to 0 at both shapes; the polynomial in exact rationals
        # is 4.0e294 at the first and -4.4e590, past the double range, at the second
        sg = sub_gamma_params(BetaParams(Fraction(a), Fraction(b)))
        eps = Fraction(1e-3)
        expected = eps**2 / (2 * sg.v) - sg.c * eps**3 / (6 * sg.v**2)
        if abs(expected) < sys.float_info.max:
            got = chernoff_exponent_expansion(BetaParams(a, b), 1e-3)
            assert got == pytest.approx(float(expected), rel=1e-14)
        else:
            with pytest.raises(OverflowError):
                chernoff_exponent_expansion(BetaParams(a, b), 1e-3)


class TestDerivativeRatioCheck:
    def test_tiny_t_holds(self):
        assert _ratio_holds(BetaParams(2, 98), 1e-6)

    def test_half_inverse_scale(self):
        c = float(sub_gamma_params(BetaParams(2, 98)).c)
        assert _ratio_holds(BetaParams(2, 98), 0.5 / c)

    @pytest.mark.parametrize("t", [10.0, 250.0, 1e3, 1e4, 1e12])
    def test_left_skew_gaussian_branch(self, t):
        # far past t^2 <= 16 (s+1), where a moment-series sum alternates to
        # -9.4e9 (t = 250) and 1e270 (t = 1e3) and cannot be trusted
        start = time.perf_counter()
        assert _ratio_holds(BetaParams(98, 2), t)
        assert time.perf_counter() - start < 0.1


class TestCumulantUpperBound:
    def test_zero_at_origin(self):
        sg = sub_gamma_params(BetaParams(2, 98))
        assert cumulant_upper_bound(sg, 0.0) == 0.0

    def test_vanishing_scale_limit(self):
        from betatails.bounds import SubGammaParams

        v = 0.04
        near_zero = cumulant_upper_bound(SubGammaParams(v=v, c=1e-9), 2.0)
        assert near_zero == pytest.approx(v * 2.0**2 / 2, rel=1e-8)
        exact_zero = cumulant_upper_bound(SubGammaParams(v=v, c=0), 2.0)
        assert exact_zero == v * 2.0**2 / 2

    def test_rejects_t_beyond_pole(self):
        sg = sub_gamma_params(BetaParams(2, 98))
        with pytest.raises(ValueError):
            cumulant_upper_bound(sg, 100.0)


class TestBestTilt:
    def test_zero_at_origin(self):
        sg = sub_gamma_params(BetaParams(2, 98))
        assert best_tilt(sg, 0.0) == 0.0

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError):
            best_tilt(sub_gamma_params(BetaParams(2, 98)), math.nan)

    def test_gaussian_limit(self):
        from betatails.bounds import SubGammaParams

        sg = SubGammaParams(v=0.01, c=0)
        assert best_tilt(sg, 0.05) == pytest.approx(0.05 / 0.01, rel=1e-14)

    def test_negative_scale_maximizes_the_gaussian_objective(self):
        # for c < 0 the cumulant bound is v t^2 / 2, maximized at eps / v on both
        # sides of -v / c; eps / (c eps + v) overshot there, then turned negative
        sg = sub_gamma_params(BetaParams(98, 2))
        v, c = float(sg.v), float(sg.c)
        assert 0.005 < -v / c < 0.015 < 1.0 - float(BetaParams(98, 2).mean())
        for eps in (0.005, 0.015):
            tb = best_tilt(sg, eps)
            assert tb == eps / v
            objective = eps * tb - cumulant_upper_bound(sg, tb)
            assert objective == pytest.approx(eps * eps / (2.0 * v), rel=1e-12, abs=0.0)


_SG_2_98 = sub_gamma_params(BetaParams(2, 98))


@pytest.mark.parametrize(
    "fn",
    [
        lambda t: cumulant_upper_bound(_SG_2_98, t),
        lambda t: best_tilt(_SG_2_98, t),
        lambda t: chernoff_exponent_expansion(BetaParams(2, 98), t),
    ],
    ids=["cumulant_upper_bound", "best_tilt", "chernoff_exponent_expansion"],
)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_helpers_reject_non_finite_arguments(fn, x):
    with pytest.raises(ValueError):
        fn(x)
