"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them) and enforcing its stated
tolerance and runtime budget.

A criterion that the ``verify`` registry already states runs the matching
``_verify.CHECKS`` entries; the grids, seeds and tolerances live there
only. Criterion 2 has no registry check. Criterion 4 is COMPARISON-ORDERING
run through the CLI: it reads the CSVs that ``betatails compare`` writes.
Criterion 8 runs LOG-GAMMA-RATIO beside its quadrature oracles.

The quadrature oracle, ``oracles.beta_quadrature``, is an arbitrary-precision
tanh-sinh integral, fully independent of the library's own kernels.
"""

import math
import random
import time
from contextlib import contextmanager

import oracles
import pytest

from betatails import _verify
from betatails.cli import main as cli_main
from betatails.moments import BetaParams, standardized_moment
from betatails.specfun import log_gamma, log_kummer_1f1, regularized_incomplete_beta

CHECKS = dict(_verify.CHECKS)


@contextmanager
def criterion(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.3f}s)")


def run_checks(*names):
    """Run the named registry checks; each must pass."""
    for name in names:
        failure = CHECKS[name]()
        assert failure is None, f"{name}: {failure}"


def test_criterion_1_oracle_equivalence():
    with criterion("1 ORACLE EQUIVALENCE", budget_s=1.0):
        run_checks("ORACLE-EQUIVALENCE")


def test_criterion_2_skew_kurtosis_spot_checks():
    with criterion("2 SKEWNESS AND KURTOSIS SPOT CHECKS"):
        skew = standardized_moment(BetaParams(2, 3), 3)
        assert skew == pytest.approx(2 / 7, rel=1e-12)
        kurt = standardized_moment(BetaParams(1, 1), 4)
        assert kurt == pytest.approx(9 / 5, rel=1e-12)


def test_criterion_3_bound_soundness():
    with criterion("3 BOUND SOUNDNESS", budget_s=30.0):
        run_checks("BERNSTEIN-SOUNDNESS")


def _comparison_rows_via_cli(tmp_path, alpha, beta, stop):
    out = tmp_path / f"beta_{alpha}_{beta}.csv"
    rc = cli_main([
        "compare", "--alpha", str(alpha), "--beta", str(beta),
        "--grid", f"0:{stop}:100", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,exact,bernstein,subgaussian,chernoff"
    return [tuple(map(float, ln.split(","))) for ln in lines[1:]]


def test_criterion_4_comparison_reproduction(tmp_path):
    with criterion("4 COMPARISON DATA REPRODUCTION", budget_s=60.0):
        for alpha, beta, stop in _verify.PAPER_TABLES:
            rows = _comparison_rows_via_cli(tmp_path, alpha, beta, stop)
            assert len(rows) == 100
            for eps, exact, bern, subg, cher in rows[1:-1]:
                assert exact < bern < subg, (
                    f"Beta({alpha},{beta}) eps={eps}: expected exact < bernstein "
                    f"< subgaussian, got {exact}, {bern}, {subg}"
                )


def test_criterion_5_exponent_optimality():
    with criterion("5 EXPONENT OPTIMALITY", budget_s=10.0):
        run_checks("EXPONENT-EXPANSION")


def test_criterion_6a_derivative_ratio_inequality():
    with criterion("6a MGF DERIVATIVE RATIO", budget_s=30.0):
        run_checks("MGF-DERIVATIVE-RATIO")


def test_criterion_6b_cumulant_upper_bound():
    with criterion("6b CUMULANT UPPER BOUND", budget_s=30.0):
        run_checks("CUMULANT-UPPER-BOUND")


def test_criterion_6c_tilt_identity():
    with criterion("6c TILT IDENTITY", budget_s=30.0):
        run_checks("TILT-IDENTITY")


def test_criterion_6d_log_refinement_upper_direction():
    with criterion("6d LOG REFINEMENT (strictly below log(1+x), x^3/6 contact)", budget_s=30.0):
        run_checks("LOG-REFINEMENT")


def test_criterion_7_moment_sign_and_recursion():
    with criterion("7 MOMENT SIGN AND SCALED RECURSION", budget_s=5.0):
        run_checks("SIGN-ODD-MOMENTS", "EVEN-NONNEGATIVE", "SCALED-RECURSION")


def test_criterion_8_specfun_accuracy():
    with criterion("8 SPECFUN ACCURACY", budget_s=30.0):
        rng = random.Random(20260810)
        for _ in range(100):
            a = rng.uniform(0.4, 40.0)
            b = rng.uniform(0.4, 40.0)
            x = rng.uniform(0.02, 0.98)
            oracle = float(oracles.beta_quadrature(a, b, x=x))
            got = regularized_incomplete_beta(a, b, x)
            assert got == pytest.approx(oracle, rel=1e-10), f"I_{x}({a},{b})"
        for _ in range(50):
            a = rng.uniform(0.5, 30.0)
            b = rng.uniform(0.5, 30.0)
            t = rng.uniform(-20.0, 20.0)
            oracle = float(oracles.beta_quadrature(a, b, t=t))
            got = math.exp(log_kummer_1f1(a, a + b, t))
            assert got == pytest.approx(oracle, rel=1e-10), f"1F1({a};{a + b};{t})"
        assert abs(log_gamma(1.0)) <= 1e-12
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
        run_checks("LOG-GAMMA-RATIO")


def test_criterion_9_chernoff_edge():
    with criterion("9 CHERNOFF EXPONENT TO THE SUPPORT EDGE", budget_s=5.0):
        run_checks("CHERNOFF-EDGE")
