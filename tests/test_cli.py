"""End-to-end tests of the command-line interface and its file outputs."""

import hashlib
import importlib.util
import math
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from betatails import _verify, bounds, chernoff, moments
from betatails.cli import (
    CSV_HEADER,
    ComparisonRow,
    comparison_rows,
    main,
    parse_grid,
    parse_scalar,
    render_csv,
)
from betatails.moments import BetaParams
from betatails.specfun import ConvergenceError


class TestParseScalar:
    def test_rational_literal_is_exact(self):
        value = parse_scalar("11/3")
        assert isinstance(value, Fraction) and value == Fraction(11, 3)

    def test_integer_literal_is_exact(self):
        value = parse_scalar("2")
        assert isinstance(value, Fraction) and value == 2

    def test_decimal_literal_is_float(self):
        value = parse_scalar("2.5")
        assert isinstance(value, float) and value == 2.5

    def test_zero_denominator_is_argument_error(self, capsys):
        with pytest.raises(ValueError):
            parse_scalar("1/0")
        assert main(["bound", "--alpha", "1/0", "--beta", "2",
                     "--eps", "0.1", "--side", "upper"]) == 2
        assert "argument error: invalid rational literal" in capsys.readouterr().err

    def test_library_zero_division_is_not_an_argument_error(self, monkeypatch, capsys):
        # a fault inside the library propagates; it is no mistake in the arguments
        def fault(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(bounds, "bernstein_tail_bound", fault)
        with pytest.raises(ZeroDivisionError):
            main(["bound", "--alpha", "2", "--beta", "98", "--eps", "0.1", "--side", "upper"])
        assert "argument error" not in capsys.readouterr().err


class TestGridSpec:
    """The --grid spec start:stop:steps, as parse_grid reads it."""

    def test_linear_points(self):
        pts = parse_grid("0.0:1.0:5")
        assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_points(self):
        pts = parse_grid("0.01:1.0:3", log_spacing=True)
        assert pts[0] == pytest.approx(0.01)
        assert pts[1] == pytest.approx(0.1)
        assert pts[2] == pytest.approx(1.0)

    def test_log_needs_positive_start(self):
        with pytest.raises(ValueError):
            parse_grid("0.0:1.0:3", log_spacing=True)

    @pytest.mark.parametrize(
        "start,stop,steps",
        [(-0.1, 1, 5), (0.5, 0.5, 5), (0, 1, 1),
         (0, math.inf, 3), (0, math.nan, 3), (math.nan, 1, 3)],
    )
    def test_invalid_specs(self, start, stop, steps):
        with pytest.raises(ValueError):
            parse_grid(f"{start}:{stop}:{steps}")


class TestMomentsCommand:
    def test_exact_row_rendering(self, capsys):
        assert main(["moments", "--alpha", "2", "--beta", "3", "--dmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row3 = [ln for ln in lines if ln.split() and ln.split()[0] == "3"][0]
        assert "2/875" in row3

    def test_symmetric_odd_moment_prints_zero(self, capsys):
        assert main(["moments", "--alpha", "1", "--beta", "1", "--dmax", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row3 = [ln for ln in lines if ln.split() and ln.split()[0] == "3"][0]
        assert row3.split()[1] == "0"

    def test_variance_row(self, capsys):
        assert main(["moments", "--alpha", "2", "--beta", "3", "--dmax", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row2 = [ln for ln in lines if ln.split() and ln.split()[0] == "2"][0]
        assert "1/25" in row2

    def test_bad_arguments_exit_2(self, capsys):
        assert main(["moments", "--alpha", "-2", "--beta", "3", "--dmax", "3"]) == 2
        assert main(["moments", "--alpha", "2", "--beta", "3", "--dmax", "-1"]) == 2

    def test_negative_order_is_the_library_error_before_any_output(self, capsys):
        assert main(["moments", "--alpha", "2", "--beta", "3", "--dmax", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "argument error: dmax must be non-negative, got -1\n"


class TestBoundCommand:
    def test_skewed_upper(self, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "98", "--eps", "0.02",
                     "--side", "upper"]) == 0
        out = capsys.readouterr().out
        assert "branch = sub-gamma" in out
        bound_line = [ln for ln in out.splitlines() if ln.startswith("bound = ")][0]
        assert float(bound_line.split("=")[1]) == pytest.approx(0.5348, rel=1e-3)

    def test_left_skew_gaussian_branch(self, capsys):
        assert main(["bound", "--alpha", "98", "--beta", "2", "--eps", "0.02",
                     "--side", "upper"]) == 0
        out = capsys.readouterr().out
        assert "branch = gaussian" in out
        bound_line = [ln for ln in out.splitlines() if ln.startswith("bound = ")][0]
        assert float(bound_line.split("=")[1]) == pytest.approx(
            math.exp(-101 / 98), rel=1e-12
        )

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_negative_eps_is_the_library_error_before_any_output(self, side, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "98", "--eps", "-0.01",
                     "--side", side]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "argument error: eps must be non-negative, got -0.01\n"

    def test_zero_eps_gives_unit_bound(self, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "98", "--eps", "0",
                     "--side", "upper"]) == 0
        assert "bound = 1.0" in capsys.readouterr().out

    def test_infinite_eps_gives_zero_bound(self, capsys):
        assert main(["bound", "--alpha", "2", "--beta", "98", "--eps", "inf",
                     "--side", "upper"]) == 0
        assert "bound = 0.0" in capsys.readouterr().out.splitlines()

    def test_rational_literals_accepted(self, capsys):
        assert main(["bound", "--alpha", "7", "--beta", "11/3", "--eps", "0.1",
                     "--side", "lower"]) == 0
        assert "bound = " in capsys.readouterr().out

    def test_exact_shape_whose_variance_underflows(self, capsys):
        # v is about 2e-800: its double is 0.0, so the exponent is formed exactly
        huge = "1" + "0" * 400
        assert main(["bound", "--alpha", huge, "--beta", "2", "--eps", "0.1",
                     "--side", "upper"]) == 0
        assert "bound = 0.0" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("argv", [
        ["bound", "--alpha", "2", "--beta", "98", "--eps", "0.02", "--side", "upper"],
        ["compare", "--alpha", "2", "--beta", "98", "--grid", "0:0.05:5", "--out", "x.csv"],
    ], ids=["bound", "compare"])
    def test_tolerance_flag_is_an_argument_error(self, argv, capsys):
        # no command takes a tolerance: the bound is closed-form, and compare's
        # columns run at the library's default configuration
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-10"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCompareCommand:
    def test_writes_expected_header_and_shape(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05:20", "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 21
        assert text.endswith("\n")
        assert "\r" not in text

    @pytest.mark.parametrize("alpha,beta,grid,digest", [
        pytest.param("2", "98", "0:0.05:100",
                     "4a18b2ba2160cf42cd594b7b40a1ecb598e3985636c82c2ab3d0c91e5fa30c1b",
                     id="beta_2_98"),
        pytest.param("2", "998", "0:0.005:100",
                     "6d769afd5b4fa6931889656c82a7bfc91c4b7e65dc37496ab48cabed6790f6c2",
                     id="beta_2_998"),
        pytest.param("5", "5", "0:0.45:100",
                     "0dbf6f5317e0586c4c77296c3674744e3092b57499fa31bf58d9c3d80d416a67",
                     id="beta_5_5"),
    ])
    def test_paper_tables_keep_their_bytes(self, tmp_path, capsys, alpha, beta, grid, digest):
        # the paper's two tables (scripts/make_comparison_data.py) and a symmetric one;
        # a change that moves any cell must say so and record the new digest
        out = tmp_path / "table.csv"
        assert main(["compare", "--alpha", alpha, "--beta", beta,
                     "--grid", grid, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_data_script_prints_the_digest_of_each_table(self, tmp_path, capsys):
        # a change that moves cells takes the digests pinned above from one command
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_comparison_data.py"
        spec = importlib.util.spec_from_file_location("make_comparison_data", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.run(tmp_path) == 0
        printed = re.findall(r"^sha256 ([0-9a-f]{64})  (.+)$", capsys.readouterr().out, re.M)
        assert [Path(path).name for _, path in printed] == [job[3] for job in module.JOBS]
        for digest, path in printed:
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest

    def test_optimality_study_spreads_stay_below_four(self, capsys):
        # the residual/eps^4 ladder of each shape is scaled to its sd, so the
        # expansion's parameter c eps / v stays of order 1 at the ladder's top
        script = Path(__file__).resolve().parents[1] / "scripts" / "exponent_optimality_study.py"
        spec = importlib.util.spec_from_file_location("exponent_optimality_study", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.run() == 0
        spreads = re.findall(r"spread max/min = ([0-9.]+)$", capsys.readouterr().out, re.M)
        assert len(spreads) == len(module.PAIRS)
        assert all(float(spread) < 4.0 for spread in spreads), spreads

    def test_byte_for_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare", "--alpha", "2", "--beta", "98", "--grid", "0:0.05:25"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_round_trip_and_satisfy_invariants(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--alpha", "2", "--beta", "98",
                     "--grid", "0:0.05:20", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            eps, exact, bern, subg, cher = map(float, line.split(","))
            assert 0.0 <= exact <= 1.0 and 0.0 <= bern <= 1.0
            assert exact <= cher + 1e-10
            assert cher <= bern + 1e-10
            assert exact <= subg + 1e-10

    def test_symmetric_bernstein_column_is_gaussian(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert main(["compare", "--alpha", "5", "--beta", "5",
                     "--grid", "0:0.3:10", "--out", str(out)]) == 0
        v = float(bounds.sub_gamma_params(BetaParams(5, 5)).v)
        for line in out.read_text().splitlines()[1:]:
            eps, _, bern, _, _ = map(float, line.split(","))
            assert bern == pytest.approx(math.exp(-eps * eps / (2 * v)) if eps else 1.0)

    def test_log_grid(self, tmp_path):
        out = tmp_path / "log.csv"
        assert main(["compare", "--alpha", "2", "--beta", "98",
                     "--grid", "0.001:0.05:10", "--out", str(out),
                     "--log-grid"]) == 0
        eps = [float(ln.split(",")[0]) for ln in out.read_text().splitlines()[1:]]
        ratios = [eps[i + 1] / eps[i] for i in range(len(eps) - 1)]
        for r in ratios:
            assert r == pytest.approx(ratios[0], rel=1e-9)

    def test_unconverged_point_is_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        # the support width of Beta(2, 98) is 0.98: the first point's solve
        # takes 6 steps from its first guess; the last point's, warm-started
        # at twice the first one's last tilt (404), takes 27 to its tilt near
        # 1e9, so a budget of 10 steps leaves only the last one unconverged;
        # the proxy, which shares the budget, takes 6
        monkeypatch.setattr(bounds, "_NEWTON_STEPS", 10)
        out = tmp_path / "edge.csv"
        args = ["compare", "--alpha", "2", "--beta", "98", "--grid", "0.5:0.9799999:2"]
        assert main(args + ["--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote 2 rows to {out}\n"
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert "eps=0.9799999" in warnings[0] and "t_star=" in warnings[0]
        rows = comparison_rows(BetaParams(2, 98), parse_grid("0.5:0.9799999:2"))
        assert out.read_text(encoding="utf-8") == render_csv(rows)

    @pytest.mark.parametrize("alpha,beta,grid", [
        # the grid ends at the float width 1 - a/(a+b), one ulp below the
        # exact mean's rounded width: that point is past the support
        ("1/10", "1/7", "0:0.588235294117647:5"),
        ("1e6", "1", "0:9e-7:4"),
        ("1e7", "1", "0:9e-8:4"),
    ])
    def test_grids_to_the_support_edge_exit_0(self, tmp_path, capsys, alpha, beta, grid):
        out = tmp_path / "edge.csv"
        assert main(["compare", "--alpha", alpha, "--beta", beta,
                     "--grid", grid, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == int(grid.split(":")[2]) + 1

    @pytest.mark.parametrize("alpha,beta,grid", [
        ("0.103", "489.157", "0.0204:0.02040000000000204:40"),
        ("1.12", "12.516", "0.1234:0.12340000000001232:40"),
    ])
    def test_grids_of_nearly_equal_deviations_exit_0(self, tmp_path, capsys, alpha, beta, grid):
        # consecutive solves end on one psi' here; the warm start keeps one fit per
        # psi', where three equal nodes once divided by zero (exit 2)
        out = tmp_path / "flat.csv"
        assert main(["compare", "--alpha", alpha, "--beta", beta,
                     "--grid", grid, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 41

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05:5", "--out", str(tmp_path / "no" / "x.csv")])
        assert rc == 3

    def test_bad_grid_exits_2(self, capsys):
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05", "--out", "x.csv"])
        assert rc == 2

    @pytest.mark.parametrize("grid", ["0:inf:3", "0:nan:3", "nan:1:3"])
    def test_non_finite_grid_exits_2_naming_the_grid(self, tmp_path, capsys, grid):
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", grid, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_soundness_violation_exits_4(self, tmp_path, monkeypatch, capsys):
        # force the exact tail above every bound
        monkeypatch.setattr(bounds, "exact_tail", lambda *a, **k: 1.0)
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05:5", "--out", str(tmp_path / "x.csv")])
        assert rc == 4

    def test_probability_outside_the_unit_interval_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bounds, "exact_tail", lambda *a, **k: -1e-14)
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05:5", "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "probability outside [0,1] at eps=0.0" in capsys.readouterr().err

    def test_tiny_alpha_exact_column_stays_a_probability(self, tmp_path):
        # the exact tail at eps = 1e-3 read -1.2e-14 here, and compare exited 4
        out = tmp_path / "tiny.csv"
        assert main(["compare", "--alpha", "1e-300", "--beta", "2",
                     "--grid", "0:1e-3:3", "--out", str(out)]) == 0
        exact = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert all(0.0 <= p <= 1.0 for p in exact) and exact[-1] == 0.0

    def test_convergence_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr(bounds, "subgaussian_optimal_proxy", fail)
        rc = main(["compare", "--alpha", "2", "--beta", "98",
                   "--grid", "0:0.05:5", "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        assert capsys.readouterr().err == "convergence failure: forced\n"
        assert not (tmp_path / "x.csv").exists()

    def test_peak_estimate_past_the_double_range_exits_5(self, tmp_path, capsys):
        # p * p overflows in the peak estimate at t = 4e297: the solve still raises,
        # and the message says so rather than print the estimate's nan
        rc = main(["compare", "--alpha", "1e300", "--beta", "1e300",
                   "--grid", "0:1e-3:3", "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "estimate passes the double range" in err and "nan" not in err

    def test_step_cap_ends_a_runaway_series_with_exit_5(self, tmp_path, capsys):
        # the solves reach t = 1e100, whose forward pass needs far more than the
        # kernel's 2^20 steps
        start = time.perf_counter()
        rc = main(["compare", "--alpha", "1e-3", "--beta", "1e100",
                   "--grid", "0:0.5:3", "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        assert time.perf_counter() - start < 5.0
        assert "in 1048576 steps" in capsys.readouterr().err

    def test_exact_shape_past_the_double_range_exits_2(self, tmp_path, capsys):
        # compare evaluates its columns in doubles, so the shape is an argument error
        # there, reported without a traceback; moments still takes it exactly
        huge = "1" + "0" * 400
        rc = main(["compare", "--alpha", huge, "--beta", "2",
                   "--grid", "0:0.1:3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "x.csv").exists()
        assert main(["moments", "--alpha", huge, "--beta", "2", "--dmax", "2"]) == 0
        row2 = capsys.readouterr().out.strip().splitlines()[-1].split()
        a = Fraction(huge)
        assert row2[:2] == ["2", str(2 * a / ((a + 2) ** 2 * (a + 3)))]

    def test_rational_literals_accepted(self, tmp_path):
        out = tmp_path / "rat.csv"
        assert main(["compare", "--alpha", "1/2", "--beta", "1/2",
                     "--grid", "0:0.3:5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6


class TestRenderCsv:
    def test_shortest_round_trip_rendering(self):
        rows = [ComparisonRow(0.1, 0.25, 0.5, 0.75, 0.3)]
        text = render_csv(rows)
        assert text == f"{CSV_HEADER}\n0.1,0.25,0.5,0.75,0.3\n"

    def test_seventeen_significant_digits_round_trip(self):
        value = 0.5347901118017586
        row = ComparisonRow(value, value, value, value, value)
        rendered = render_csv([row]).splitlines()[1]
        assert all(float(tok) == value for tok in rendered.split(","))


def _moment_scaled(d, factor):
    """A wrapper of central_moments_recursive that multiplies mu_d by factor."""

    def wrap(central_moments_recursive):
        def perturbed(params, dmax):
            table = central_moments_recursive(params, dmax)
            central = list(table.central)
            central[d] *= factor
            return replace(table, central=tuple(central))

        return perturbed

    return wrap


def _unconverged(f):
    return lambda params, eps, side: replace(f(params, eps, side), converged=False)


# Each check that took over a fixed-grid unit test, and each failure return that no
# other test reaches, with a perturbation of the library that the check must catch
# and a piece of the failure string it then returns: (check, module, name, wrapper
# of the original, failure text). A check with several returns appears once per return.
ABSORBING_PERTURBATIONS = [
    ("ORACLE-EQUIVALENCE",
     moments, "central_moment_hypergeom_oracle",
     lambda f: lambda params, d: f(params, d) * (1 + Fraction(1, 10**9)), "hypergeometric="),
    ("SIGN-ODD-MOMENTS",
     moments, "central_moments_recursive", _moment_scaled(3, -1), "sign(mu_d)="),
    ("EVEN-NONNEGATIVE",
     moments, "central_moments_recursive", _moment_scaled(2, -1), "< 0"),
    ("MOMENT-BOUNDEDNESS",
     moments, "central_moments_recursive", _moment_scaled(4, 10**6), "> 1"),
    ("SCALED-RECURSION",
     moments, "central_moments_recursive", _moment_scaled(2, 1 + Fraction(1, 10**9)),
     "scaled recursion violated"),
    ("P-RECURSIVE-FORM",
     moments, "recursion_coefficients",
     lambda f: lambda params, d: (*f(params, d)[:2], f(params, d)[2] + d * d), "not linear in d"),
    ("VARIANCE-SCALE-IDENTITIES",
     moments, "central_moments_recursive", _moment_scaled(2, 1 + Fraction(1, 10**9)),
     "mismatches closed form"),
    ("VARIANCE-SCALE-IDENTITIES",
     moments, "central_moments_recursive", _moment_scaled(3, 1 + Fraction(1, 10**9)),
     "mu_3/mu_2 mismatches closed form"),
    ("VC-SIGN-CONSISTENCY",
     bounds, "sub_gamma_params", lambda f: lambda params: replace(f(params), v=2 * f(params).v),
     "but mu_2="),
    ("2F1-POCHHAMMER-SUM",
     _verify, "gauss_2f1_terminating",
     lambda f: lambda a, d, c, z: f(a, d, c, z) + Fraction(1, 10**9), "!= direct sum"),
    ("BERNSTEIN-REFLECTION",
     bounds, "bernstein_tail_bound",
     lambda f: lambda params, eps, side: f(params, eps, side) * (
         1 + 1e-9 * (side is bounds.TailSide.LOWER)
     ), "!= swapped upper"),
    ("BOUND-MONOTONICITY",
     bounds, "bernstein_tail_bound",
     lambda f: lambda params, eps, side: f(params, eps, side) + 1e-9 * eps, "bound increased"),
    ("LOG-REFINEMENT",
     bounds, "log_upper_bound", lambda f: lambda x: f(x) + 1e-9, "must vanish at x = 0"),
    ("LOG-REFINEMENT",
     bounds, "log_upper_bound", lambda f: lambda x: f(x) + 1e-9 * x, "expected 0.75"),
    ("LOG-REFINEMENT",  # exact at 0 and 3, but a contact ratio near -2 at the origin
     bounds, "log_upper_bound", lambda f: lambda x: f(x) + x**3 * (3.0 - x) / 6.0,
     "/ (x^3/6) ="),
    ("LOG-REFINEMENT",  # only the draws past 50 reach it
     bounds, "log_upper_bound", lambda f: lambda x: math.log1p(x) if x > 50.0 else f(x),
     "log(1+x) <= refinement at x="),
    ("SUBGAUSSIAN-PROXY",
     bounds, "subgaussian_optimal_proxy", lambda f: lambda params: f(params) * (1 + 1e-3),
     "Beta(5,5): proxy"),
    ("SUBGAUSSIAN-PROXY",
     bounds, "subgaussian_optimal_proxy",
     lambda f: lambda params: float(bounds.sub_gamma_params(params).v), "not strictly above v"),
    ("COMPARISON-ORDERING",  # the rows stay sound: only the strict ordering fails
     _verify, "comparison_rows",
     lambda f: lambda params, epss: [r._replace(subgaussian=r.bernstein) for r in f(params, epss)],
     "ordering exact < bernstein < subgaussian violated"),
    ("MGF-SERIES-CONSISTENCY",
     chernoff, "centered_mgf", lambda f: lambda params, t: f(params, t) * (1 + 1e-6),
     "|phi - series|"),
    ("CGF-CONVEXITY",
     chernoff, "cgf", lambda f: lambda params, t: f(params, t) - 1e-3 * t * t, "slope decreased"),
    ("TILT-IDENTITY",  # the identity branch: the best tilt itself is untouched
     chernoff, "cumulant_upper_bound", lambda f: lambda sg, t: f(sg, t) * (1 + 1e-9), " != "),
    ("EXPONENT-EXPANSION",  # a cubic error term: the residual / eps^4 grows like 1 / eps
     chernoff, "chernoff_exponent_expansion",
     lambda f: lambda params, eps: f(params, eps) * (1 + eps), "spread beyond 4x"),
    ("EXPONENT-EXPANSION",
     chernoff, "chernoff_exponent_numeric", _unconverged, "did not converge"),
    ("CHERNOFF-EDGE",
     chernoff, "chernoff_exponent_numeric", _unconverged, "Chernoff optimizer did not converge"),
    ("CHERNOFF-EDGE",
     bounds, "exact_tail", lambda f: lambda params, eps, side: 1.0, "below exact tail"),
    ("CHERNOFF-EDGE",  # the tails this far out are far below the 1e-10 slack
     chernoff, "chernoff_exponent_numeric",
     lambda f: lambda params, eps, side: replace(
         f(params, eps, side), exponent=f(params, eps, side).exponent * (1 + 1e-9)
     ), "mpmath 1120.459313107545"),
    ("LOG-GAMMA-RATIO",
     _verify, "log_gamma", lambda f: lambda x: f(x) + 1e-9 * x, "Gamma(x+1)/Gamma(x)"),
    ("IBETA-MONOTONE",
     _verify, "regularized_incomplete_beta",
     lambda f: lambda a, b, x: f(a, b, x) - 1e-9 * x, "decreased at x="),
]
_CHECK_NAMES = [entry[0] for entry in ABSORBING_PERTURBATIONS]
# a check's first perturbation takes the check's name as its test id, later ones "-2", "-3"
_PERTURBATION_IDS = [
    name + (f"-{_CHECK_NAMES[:k].count(name) + 1}" if name in _CHECK_NAMES[:k] else "")
    for k, name in enumerate(_CHECK_NAMES)
]


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "name,module,attr,perturb,failure_text", ABSORBING_PERTURBATIONS, ids=_PERTURBATION_IDS
    )
    def test_absorbing_check_catches_its_perturbation(
        self, name, module, attr, perturb, failure_text, monkeypatch
    ):
        # no unit test restates these checks' grids, so each return must be able to fail
        monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
        failure = dict(_verify.CHECKS)[name]()
        assert failure is not None and failure_text in failure, failure

    @pytest.mark.parametrize(
        "case", dict(_verify.CHECKS)["MGF-SERIES-CONSISTENCY"].cases,
        ids=lambda case: ",".join(map(str, case)),
    )
    def test_mgf_series_check_counts_at_every_tilt(self, case, monkeypatch):
        # phi = 0 from |t| = 17.5 on passed the order-40 check at Beta(2,98) and
        # Beta(98,2), whose allowed gap there exceeded phi itself
        mgf = chernoff.centered_mgf
        monkeypatch.setattr(
            chernoff, "centered_mgf", lambda params, t: 0.0 if abs(t) >= 17.5 else mgf(params, t)
        )
        failure = dict(_verify.CHECKS)["MGF-SERIES-CONSISTENCY"].holds(*case)
        assert failure is not None and "t=-20.0: |phi - series|" in failure, failure

    def test_full_level_passes_within_budget(self, capsys):
        start = time.perf_counter()
        assert main(["verify"]) == 0
        assert time.perf_counter() - start < 300.0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"PASS {name}" for name, _ in _verify.CHECKS]

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_level_argument_is_an_argument_error(self, level, capsys):
        # verify has one configuration: every check runs at its full grid
        with pytest.raises(SystemExit) as exc:
            main(["verify", level])
        assert exc.value.code == 2
        assert level in capsys.readouterr().err

    def test_injected_sign_error_reports_sign_labelled_failure(self, monkeypatch, capsys):
        true_fn = bounds.sub_gamma_params

        def flipped(params):
            sg = true_fn(params)
            return bounds.SubGammaParams(v=sg.v, c=-sg.c)

        monkeypatch.setattr(bounds, "sub_gamma_params", flipped)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail_lines = [ln for ln in lines if ln.startswith("FAIL")]
        assert fail_lines and "SIGN" in fail_lines[0]
        # verify reports every check, and a check that raises is a FAIL line
        assert len(lines) == len(_verify.CHECKS)
        assert any(ln.startswith("FAIL BOUND-MONOTONICITY: ValueError: ") for ln in lines)
        assert any(ln.startswith("FAIL COMPARISON-ORDERING: SoundnessError: ") for ln in lines)

    def test_raising_check_is_a_fail_line(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr(bounds, "subgaussian_optimal_proxy", fail)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        names = [name for name, _ in _verify.CHECKS]
        at = names.index("SUBGAUSSIAN-PROXY")
        assert lines[:at] == [f"PASS {name}" for name in names[:at]]
        assert lines[at] == "FAIL SUBGAUSSIAN-PROXY: ConvergenceError: forced"


class TestComparisonRowsApi:
    def test_epsilon_zero_row(self):
        rows = comparison_rows(BetaParams(2, 98), parse_grid("0:0.02:3"))
        assert rows[0].bernstein == 1.0
        assert rows[0].subgaussian == 1.0
        assert rows[0].chernoff == 1.0
        assert 0.0 < rows[0].exact < 1.0

    @pytest.mark.parametrize("alpha,beta,grid,log_spacing", [
        *((alpha, beta, (0.0, stop, 100), False) for alpha, beta, stop in _verify.PAPER_TABLES),
        (5, 5, (0.0, 0.45, 100), False),
        (98, 2, (0.0, 0.0196, 100), False),
        (300, 20, (0.0, 0.0625, 100), False),
        (2, 998, (0.0, 0.998, 400), False),
        (2, 98, (1e-6, 0.97, 200), True),
    ])
    def test_warm_started_cells_match_cold_solves(self, alpha, beta, grid, log_spacing, capsys):
        # the kernel's psi is within 6e-16 t, so two stops near t* may read
        # exponents 1e-15 max(1, t*) apart; cells that round to subnormals
        # may differ by one more subnormal step
        params = BetaParams(alpha, beta)
        rows = comparison_rows(params, parse_grid("{}:{}:{}".format(*grid), log_spacing))
        warned = set(re.findall(r"eps=(\S+),", capsys.readouterr().err))
        width = 1.0 - alpha / (alpha + beta)
        solved = [row for row in rows if 0.0 < row.epsilon < width]
        assert len(solved) >= len(rows) - 2
        for row in solved:
            cold = chernoff.chernoff_exponent_numeric(params, row.epsilon, bounds.TailSide.UPPER)
            cell = math.exp(-cold.exponent)
            tol = 1e-15 * max(1.0, cold.t_star)
            assert abs(row.chernoff - cell) <= tol * cell + math.ulp(0.0), row
            assert (repr(row.epsilon) in warned) == (not cold.converged)

    @pytest.mark.parametrize("alpha,beta,stop", _verify.PAPER_TABLES)
    def test_chernoff_column_is_one_sweep_of_the_library(self, alpha, beta, stop):
        params, epss = BetaParams(alpha, beta), parse_grid(f"0:{stop}:100")
        rows = comparison_rows(params, epss)
        results = chernoff.chernoff_exponents(params, epss)
        assert [row.chernoff for row in rows] == [math.exp(-r.exponent) for r in results]

    @staticmethod
    def _kernel_calls_per_table(monkeypatch):
        """Kernel evaluations of comparison_rows on each paper table, at 100 deviations."""
        calls = []
        kernel = chernoff._cgf_kernel

        def counted(a, b, t):
            calls[-1] += 1
            return kernel(a, b, t)

        monkeypatch.setattr(chernoff, "_cgf_kernel", counted)
        for alpha, beta, stop in _verify.PAPER_TABLES:
            calls.append(0)
            comparison_rows(BetaParams(alpha, beta), parse_grid(f"0:{stop}:100"))
        return calls

    # every point but eps = 0 is solved: 99 solves a table
    def test_warm_start_halves_kernel_evaluations(self, monkeypatch):
        # from cold first guesses the paper grids took 6.2 evaluations a solve
        assert max(self._kernel_calls_per_table(monkeypatch)) <= 3.5 * 99

    def test_second_order_prediction_takes_about_two_evaluations(self, monkeypatch):
        # tangent predictions with a stop on |psi' - eps| took 3.1 a solve; the
        # Hermite prediction and the stop at the exponent's rounding take about 2
        assert max(self._kernel_calls_per_table(monkeypatch)) <= 2.1 * 99

    def test_three_node_prediction_takes_about_one_evaluation(self, monkeypatch):
        # the quintic Hermite prediction through the last three solves meets the
        # stop test in most cells, so most solves take a single evaluation
        assert max(self._kernel_calls_per_table(monkeypatch)) <= 1.25 * 99

    def test_exact_tail_reads_float_shapes(self, monkeypatch):
        # the exact column is formed from one float BetaParams, not from
        # Fractions converted again at every row
        seen = []
        exact_tail = bounds.exact_tail

        def recorded(params, eps, side):
            seen.append(params)
            return exact_tail(params, eps, side)

        monkeypatch.setattr(bounds, "exact_tail", recorded)
        rows = comparison_rows(BetaParams(2, 98), parse_grid("0:0.05:5"))
        assert len(seen) == 5 and all(p == BetaParams(2.0, 98.0) for p in seen)
        assert all(type(p.alpha) is float and type(p.beta) is float for p in seen)
        assert [r.exact for r in rows] == [
            exact_tail(BetaParams(2, 98), r.epsilon, bounds.TailSide.UPPER) for r in rows
        ]

    def test_sub_gamma_params_formed_once_per_table(self, monkeypatch):
        calls = 0
        sub_gamma_params = bounds.sub_gamma_params

        def counted(params):
            nonlocal calls
            calls += 1
            return sub_gamma_params(params)

        monkeypatch.setattr(bounds, "sub_gamma_params", counted)
        counts = []
        for steps in (3, 100):
            calls = 0
            comparison_rows(BetaParams(2, 98), parse_grid(f"0:0.05:{steps}"))
            counts.append(calls)
        assert counts[0] == counts[1]
