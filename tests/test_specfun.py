"""Unit and property tests for the special-function kernels."""

import math
import random
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatails import _verify, chernoff, specfun
from betatails.chernoff import cgf
from betatails.moments import BetaParams
from betatails.specfun import (
    _REL_TOL,
    ConvergenceError,
    gauss_2f1_terminating,
    log_gamma,
    log_kummer_1f1,
    regularized_incomplete_beta,
)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_factorial_value(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_domain_error(self, x):
        # nan passed the old guard x <= 0.0 and returned nan
        with pytest.raises(ValueError, match="requires x > 0"):
            log_gamma(x)

    @pytest.mark.parametrize("x", [2.56e305, 1e306, 1e308])
    def test_past_the_double_range_is_a_value_error(self, x):
        # math.lgamma raises OverflowError from x = 2.5599833278516387e305 on
        with pytest.raises(ValueError, match="passes the largest double"):
            log_gamma(x)
        assert log_gamma(2.5599833278516383e305) < math.inf

    def test_matches_mpmath_over_wide_range(self):
        # relative error budget 1e-13 on [1e-3, 1e6]
        for i in range(200):
            x = 10.0 ** (-3.0 + 9.0 * i / 199)
            ref = float(oracles.log_gamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref)), x


class TestRegularizedIncompleteBeta:
    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-13)

    def test_symmetric_median(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, rel=1e-13)

    def test_skewed_value_against_quadrature_oracle(self):
        # ratio of adaptive quadratures of x^(a-1)(1-x)^(b-1) over [0, 0.04] and [0, 1]
        expected = 0.9099370971728079
        assert regularized_incomplete_beta(2.0, 98.0, 0.04) == pytest.approx(
            expected, rel=1e-12
        )

    def test_endpoints(self):
        assert regularized_incomplete_beta(3.0, 4.0, 0.0) == 0.0
        assert regularized_incomplete_beta(3.0, 4.0, 1.0) == 1.0

    @pytest.mark.parametrize("a,b,x", [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, 1.5)])
    def test_domain_errors(self, a, b, x):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(a, b, x)

    @pytest.mark.parametrize("a,b", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
    ])
    def test_non_finite_shape_is_a_value_error(self, a, b):
        # rejected before the first continued-fraction step, as BetaParams does
        with pytest.raises(ValueError, match="finite"):
            regularized_incomplete_beta(a, b, 0.5)

    def test_log_gamma_past_the_double_range_is_a_value_error(self):
        # the prefactor's log_gamma(a + b) raised OverflowError from a + b = 2.56e305 on
        with pytest.raises(ValueError, match="passes the largest double"):
            regularized_incomplete_beta(1e306, 1e306, 0.5)

    def test_convergence_failure_is_loud(self):
        # next to the crossover the fraction's step count grows with the shapes:
        # a = 1e9 converges within 6,400 steps, a = 1e10 passes the 10,000 cap
        with pytest.raises(ConvergenceError):
            regularized_incomplete_beta(1e10, 1e10, 0.5 - 1e-9)

    @given(
        st.floats(min_value=0.4, max_value=40.0),
        st.floats(min_value=0.4, max_value=40.0),
    )
    @settings(max_examples=200)
    def test_symmetry_identity(self, a, b):
        # I_x(a,b) = 1 - I_{1-x}(b,a) across x_c = (a+1)/(a+b+2), where the fraction
        # switches from (a, b, x) to (b, a, 1 - x); I_x(a,b) + I_{1-x}(b,a) at one x
        # would route both terms through the same fraction and read 1 by construction
        x_c = (a + 1.0) / (a + b + 2.0)
        below = math.nextafter(x_c, 0.0)
        jump = regularized_incomplete_beta(a, b, x_c) - regularized_incomplete_beta(a, b, below)
        assert abs(jump) <= 2 * _REL_TOL

    def test_symmetry_identity_catches_a_perturbed_fraction(self, monkeypatch):
        # a fraction off by 1e-9 relative moves the two orientations apart by 1e-9
        fraction = specfun._beta_cont_frac
        monkeypatch.setattr(
            specfun, "_beta_cont_frac", lambda a, b, x: fraction(a, b, x) * (1.0 + 1e-9)
        )
        for a, b in [(0.4, 0.4), (0.4, 40.0), (40.0, 0.4), (40.0, 40.0), (2.0, 7.5)]:
            with pytest.raises(AssertionError):
                self.test_symmetry_identity.hypothesis.inner_test(self, a, b)

    @pytest.mark.parametrize("a,b,x,expected", [
        # read 1 + 1.2e-14 unclamped; I is 1 - 5.9e-300 (mpmath, 400 digits)
        (1e-300, 2.0, 1e-3, 1.0),
        # read -1.0e-14 unclamped; I is 2.6e-282 (mpmath, 400 digits)
        (0.5, 1e-282, 0.75, 0.0),
    ])
    def test_tiny_shapes_stay_in_the_unit_interval(self, a, b, x, expected):
        assert regularized_incomplete_beta(a, b, x) == expected

    def test_symmetry_check_catches_a_perturbed_fraction(self, monkeypatch):
        # IBETA-SYMMETRY compares the two orientations across the routing switch,
        # so a continued fraction off by 1e-9 relative fails it
        assert _verify.check_ibeta_symmetry() is None
        fraction = specfun._beta_cont_frac
        monkeypatch.setattr(
            specfun, "_beta_cont_frac", lambda a, b, x: fraction(a, b, x) * (1.0 + 1e-9)
        )
        failure = _verify.check_ibeta_symmetry()
        assert failure is not None and "e-09 across x_c" in failure, failure


def kummer_1f1(a: float, c: float, t: float) -> float:
    """1F1(a; c; t) formed from its logarithm, as the library's callers form it."""
    return math.exp(log_kummer_1f1(a, c, t))


class TestKummer1F1:
    def test_at_zero(self):
        assert kummer_1f1(3.0, 5.0, 0.0) == 1.0

    @pytest.mark.parametrize("t", [-20.0, -1.0, 0.5, 1.0, 10.0, 20.0])
    def test_equal_parameters_collapse_to_exp(self, t):
        assert kummer_1f1(2.5, 2.5, t) == pytest.approx(math.exp(t), rel=1e-12)

    def test_beta_mgf_value_against_quadrature_oracle(self):
        # integral of e^(t x) against the Beta(2, 98) density at t = 1
        assert kummer_1f1(2.0, 100.0, 1.0) == pytest.approx(1.0203009601146381, rel=1e-12)

    def test_negative_argument_kummer_transform(self):
        assert kummer_1f1(3.0, 7.0, -30.0) == pytest.approx(0.003279012345679066, rel=1e-11)

    def test_rejects_bad_lower_parameter(self):
        with pytest.raises(ValueError):
            kummer_1f1(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("func", [kummer_1f1, log_kummer_1f1])
    @pytest.mark.parametrize(
        "a,c,t",
        [
            (3.0, 2.0, 1.0),  # a > c
            (0.0, 2.0, 1.0),
            (-1.0, 2.0, 1.0),
            (1.0, math.inf, 1.0),
            (math.nan, 2.0, 1.0),
            (1.0, math.nan, 1.0),
            (1.0, 2.0, math.nan),
            (1.0, 2.0, math.inf),
            (1.0, 2.0, -math.inf),
        ],
    )
    def test_rejects_parameters_outside_the_beta_range(self, func, a, c, t):
        # the kernel sums 1F1(a; c; t) as the MGF of Beta(a, c - a): 0 < a <= c
        with pytest.raises(ValueError):
            func(a, c, t)

    def test_matches_mpmath_on_random_points(self):
        # a from 1e-2 to 316, c - a from 1e-2 to 1e3; log 1F1 for |t| <= 700,
        # 1F1 itself for |t| <= 20, against hyp1f1 at 50 digits
        rng = random.Random(20261018)

        def draw(t_max):
            a = 10 ** rng.uniform(-2.0, 2.5)
            return a, a + 10 ** rng.uniform(-2.0, 3.0), rng.uniform(-t_max, t_max)

        for _ in range(400):
            a, c, t = draw(700.0)
            ref = float(oracles.log_hyp1f1(a, c, t))
            assert abs(log_kummer_1f1(a, c, t) - ref) <= 1e-15 * max(1.0, abs(t)), (a, c, t)
        for _ in range(400):
            a, c, t = draw(20.0)
            ref = float(oracles.hyp1f1(a, c, t))
            assert kummer_1f1(a, c, t) == pytest.approx(ref, rel=1e-14, abs=0.0), (a, c, t)

    def test_iteration_cap_is_loud(self, monkeypatch):
        # each side of the walk out from the peak spans about 220 terms here, in
        # samples of 12; a sample is one step of the cap, and the longer side takes 19
        expected = log_kummer_1f1(2.0, 100.0, 600.0)
        monkeypatch.setattr(specfun, "_MAX_STEPS", 10)
        with pytest.raises(ConvergenceError, match="in 10 steps on one side"):
            log_kummer_1f1(2.0, 100.0, 600.0)
        monkeypatch.setattr(specfun, "_MAX_STEPS", 19)
        assert log_kummer_1f1(2.0, 100.0, 600.0) == expected

    @pytest.mark.parametrize("a,b,t", [
        # the forward pass (k0 = 0) at t = 1e100, whose bell spans about 9 sqrt(t) terms
        (0.001, 1e100, 1e100),
        # the walk by single terms about k0 = 2.1e8: log1p(j / A) overflows at a = 1e-300,
        # so the peak's log reads -inf and the walk does not sample
        (1e-300, 98.0, 209348440.91068566),
    ])
    def test_step_cap_ends_a_loop_that_would_not(self, a, b, t):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=f"in {specfun._MAX_STEPS} steps"):
            specfun._cgf_kernel(a, b, t)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("t", [-20.0, -12.0, -4.0, -1.0, 1.0, 4.0, 12.0, 20.0])
    def test_beta_mgf_against_live_quadrature(self, t):
        # 1F1(a; a+b; t) is the Beta(a, b) MGF; compare at 10x the kernel tolerance
        a, b = 2.0, 98.0
        oracle = oracles.beta_quadrature(a, b, t=t)
        assert kummer_1f1(a, a + b, t) == pytest.approx(float(oracle), rel=10 * _REL_TOL)


class TestLogKummer1F1:
    def test_far_beyond_double_overflow(self):
        assert log_kummer_1f1(2.0, 1000.0, 3000.0) == pytest.approx(
            914.4611250864599, rel=1e-12
        )

    def test_moderately_large_argument(self):
        assert log_kummer_1f1(2.0, 100.0, 500.0) == pytest.approx(249.88445571439744, rel=1e-12)

    @pytest.mark.parametrize("t", [1e6, 1e8, 1e9])
    def test_shares_the_cgf_term_budget(self, t):
        # cgf is log 1F1 less t a / c; both sum the series under one step cap
        assert log_kummer_1f1(2.0, 100.0, t) == cgf(BetaParams(2, 98), t) + t * 2.0 / 100.0

    def test_peak_past_2_53_is_loud(self):
        # float indices stop moving there; the series would not end
        with pytest.raises(ConvergenceError, match=r"2\*\*53"):
            log_kummer_1f1(2.0, 100.0, 1e17)


@pytest.mark.parametrize("a,b", [(2.0, 98.0), (5.0, 5.0), (1e-3, 1e4)])
def test_kernel_at_tiny_tilt_is_its_leading_order(a, b):
    # t * t is subnormal at t = 1e-158, where the series lost 5e-5 of psi'
    # and psi''; from 2^-200 down the kernel returns v t^2 / 2, v t and v
    s = a + b
    v = (a / s) * (b / s) / (s + 1.0)
    t = 1e-158
    _, dpsi, d2psi, _ = specfun._cgf_kernel(a, b, t)
    assert dpsi == pytest.approx(v * t, rel=1e-15, abs=0.0)
    assert d2psi == pytest.approx(v, rel=1e-15, abs=0.0)


def test_kernel_takes_every_finite_tilt():
    # a negative tilt of Beta(b, a) is the reflected positive tilt of Beta(a, b), bit
    # for bit, at one point on each branch; t = 0 and -0.0 give psi = 0.0
    branches = {
        "tiny t": (2.0, 98.0, 1e-300),
        "centered series": (2.0, 98.0, 3.0),
        "forward pass": (2.0, 98.0, 60.0),
        "walk": (2.0, 98.0, 150.0),
        "sampled walk": (2.0, 98.0, 2000.0),
    }
    for name, (a, b, t) in branches.items():
        psi, dpsi, d2psi, g = specfun._cgf_kernel(a, b, t)
        reflected = specfun._cgf_kernel(b, a, -t)
        assert [x.hex() for x in reflected] == [x.hex() for x in (psi, -dpsi, d2psi, g)], name
    for t in (0.0, -0.0):
        for psi in (specfun._cgf_kernel(2.0, 98.0, t)[0], cgf(BetaParams(2, 98), t),
                    log_kummer_1f1(2.0, 100.0, t)):
            assert psi.hex() == (0.0).hex()


def test_cgf_and_log_kummer_make_one_kernel_call(monkeypatch):
    # the kernel decides the domain: neither caller reflects t or returns early at 0
    calls = []

    def kernel(a, b, t):
        calls.append((a, b, t))
        return 0.25, 0.0, 0.0, 0.0

    monkeypatch.setattr(specfun, "_cgf_kernel", kernel)
    monkeypatch.setattr(chernoff, "_cgf_kernel", kernel)
    for t in (-3.0, -0.0, 0.0, 3.0):
        calls.clear()
        assert cgf(BetaParams(2, 98), t) == 0.25
        assert log_kummer_1f1(2.0, 100.0, t) == 0.25 + t * 2.0 / 100.0
        assert [(a, b, x.hex()) for a, b, x in calls] == [(2.0, 98.0, t.hex())] * 2


class TestCgfKernelForwardPass:
    """The forward pass (peak index k0 < 10); tests/test_pinned_bits.py pins its bits."""

    def test_term_budget_is_loud(self, monkeypatch):
        # the series of Beta(2, 98) at t = 60 peaks at k0 < 10 and needs more than 5 steps
        monkeypatch.setattr(specfun, "_MAX_STEPS", 5)
        with pytest.raises(ConvergenceError, match="did not converge at t=60.0 in 5 steps"):
            specfun._cgf_kernel(2.0, 98.0, 60.0)


class TestGauss2F1Terminating:
    def test_zero_order(self):
        assert gauss_2f1_terminating(Fraction(3, 2), 0, Fraction(7), Fraction(9)) == 1

    def test_two_term_sum(self):
        z = Fraction(3, 10)
        assert gauss_2f1_terminating(1, 1, 1, z) == 1 - z

    def test_four_term_sum(self):
        # hand sum of (2)_k (-3)_k / ((5)_k k!) (5/2)^k for k = 0..3
        assert gauss_2f1_terminating(2, 3, 5, Fraction(5, 2)) == Fraction(-1, 28)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            gauss_2f1_terminating(1, 3, -1, Fraction(1, 2))

    def test_negative_order_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            gauss_2f1_terminating(1, -1, 1, Fraction(1, 2))

    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.integers(min_value=0, max_value=8),
        st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    def test_matches_independent_pochhammer_summation(self, a, d, c, z):
        def poch(x, k):
            out = Fraction(1)
            for i in range(k):
                out *= x + i
            return out

        direct = sum(
            poch(a, k) * poch(Fraction(-d), k) / (poch(c, k) * math.factorial(k)) * z**k
            for k in range(d + 1)
        )
        assert gauss_2f1_terminating(a, d, c, z) == direct
