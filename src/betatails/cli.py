"""Command-line front end.

Subcommands:

    moments  -- exact central moments as a text table
    bound    -- one Bernstein-type tail bound value with its parameters
    compare  -- CSV comparing exact tail, Bernstein, sub-gaussian, and
                numeric Chernoff bounds over a deviation grid
    verify   -- run the built-in invariant suite

Shape parameters accept integer and p/q rational literals (exact path) or
any other decimal literal (numeric path). main maps each failure to its exit
code: 0 success, 1 verification failure, 2 argument error, 3 I/O failure,
4 internal soundness violation, 5 a series or solver that did not converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from . import bounds, chernoff, moments
from .specfun import ConvergenceError

# slack for the generated-row sanity checks; a violation beyond this is a bug
_ROW_SLACK = 1e-10


class SoundnessError(RuntimeError):
    """A generated comparison row violated a bound-ordering invariant."""


class ComparisonRow(NamedTuple):
    epsilon: float
    exact: float
    bernstein: float
    subgaussian: float
    chernoff: float


CSV_HEADER = ",".join(ComparisonRow._fields)


def comparison_rows(params: moments.BetaParams, epss: list[float]) -> list[ComparisonRow]:
    """Upper-tail comparison rows, one per deviation of epss in order, soundness-checked.

    The shape as a float BetaParams from params.doubles() (the exact tail reads
    floats anyway) and the two closed-form columns' (v, c) pairs, the Bernstein
    pair and (proxy, 0), are formed once per call; bounds.sub_gamma_bound reads
    both. The Chernoff column is exp(-psi*(eps)) from one
    chernoff.chernoff_exponents sweep of epss, so a NaN or negative deviation
    raises ValueError. An unconverged solve still yields a valid bound, since
    every evaluated t gives one, and each such point is reported on stderr. An
    exact shape past the largest double raises ValueError from doubles().
    """
    shape = moments.BetaParams(*params.doubles())
    bern_sg = bounds.bernstein_params(params)
    subg_sg = bounds.SubGammaParams(v=bounds.subgaussian_optimal_proxy(params), c=0)
    rows = []
    for eps, result in zip(epss, chernoff.chernoff_exponents(params, epss)):
        exact = bounds.exact_tail(shape, eps, bounds.TailSide.UPPER)
        bern = bounds.sub_gamma_bound(bern_sg, eps)
        subg = bounds.sub_gamma_bound(subg_sg, eps)
        if not result.converged:
            print(f"warning: Chernoff optimizer unconverged at eps={eps!r}, "
                  f"t_star={result.t_star!r}", file=sys.stderr)
        row = ComparisonRow(
            epsilon=eps, exact=exact, bernstein=bern, subgaussian=subg,
            chernoff=math.exp(-result.exponent),
        )
        _check_row(params, row)
        rows.append(row)
    return rows


def _check_row(params: moments.BetaParams, row: ComparisonRow) -> None:
    values = (row.exact, row.bernstein, row.subgaussian, row.chernoff)
    if any(not 0.0 <= p <= 1.0 for p in values):
        raise SoundnessError(f"probability outside [0,1] at eps={row.epsilon}: {row}")
    for low, low_name, high, high_name in (
        (row.exact, "exact tail", row.chernoff, "Chernoff bound"),
        (row.chernoff, "Chernoff bound", row.bernstein, "Bernstein bound"),
        (row.exact, "exact tail", row.subgaussian, "sub-gaussian bound"),
    ):
        if low > high + _ROW_SLACK:
            raise SoundnessError(
                f"{params}: {low_name} {low} above {high_name} {high} at eps={row.epsilon}"
            )


def render_csv(rows: list[ComparisonRow]) -> str:
    """Deterministic CSV text: shortest round-trip decimals, LF endings."""
    lines = [CSV_HEADER]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse_scalar(text: str):
    """Parameter literal: 'p/q' and an integer are exact Fractions, anything else a float."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"invalid rational literal {text!r}: zero denominator")
    try:
        as_int = int(text)
    except ValueError:
        return float(text)
    return Fraction(as_int)


def _parse_params(args) -> moments.BetaParams:
    return moments.BetaParams(parse_scalar(args.alpha), parse_scalar(args.beta))


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _logspace(lo: float, hi: float, n: int) -> list[float]:
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


MAX_GRID_STEPS = 100_000  # 1,000 times the paper grids; a typo must not exhaust memory


def parse_grid(text: str, log_spacing: bool = False) -> list[float]:
    """Deviations of the grid start:stop:steps, evenly or log-evenly spaced."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:steps, got {text!r}")
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {start}:{stop}")
    if start < 0:
        raise ValueError(f"grid start must be non-negative, got {start}")
    if stop <= start:
        raise ValueError(f"grid stop must exceed start, got {start}:{stop}")
    if steps < 2:
        raise ValueError(f"grid needs at least 2 steps, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"grid has {steps} steps, above the maximum of {MAX_GRID_STEPS}")
    if log_spacing:
        if start <= 0:
            raise ValueError("log-spaced grids need a positive start")
        return _logspace(start, stop, steps)
    return _linspace(start, stop, steps)


def cmd_moments(args) -> int:
    params = _parse_params(args)
    table = moments.central_moments_recursive(params, args.dmax)
    print(f"central moments of Beta({params.alpha}, {params.beta})")
    print(f"{'d':>4}  {'mu_d':<24}  decimal")
    for d, mu in enumerate(table.central):
        print(f"{d:>4}  {str(mu):<24}  {float(mu)!r}")
    return 0


def cmd_bound(args) -> int:
    params = _parse_params(args)
    side = bounds.TailSide(args.side)
    # report the parameters of the side actually evaluated (lower = swapped upper)
    effective = params if side is bounds.TailSide.UPPER else params.swapped()
    sg = bounds.sub_gamma_params(effective)
    branch = "sub-gamma" if bounds.bernstein_params(effective) == sg else "gaussian"
    value = bounds.bernstein_tail_bound(params, args.eps, side)
    print(f"alpha = {params.alpha}")
    print(f"beta = {params.beta}")
    print(f"side = {side.value}")
    print(f"eps = {args.eps!r}")
    print(f"v = {float(sg.v)!r}")
    print(f"c = {float(sg.c)!r}")
    print(f"branch = {branch}")
    print(f"bound = {value!r}")
    return 0


def cmd_compare(args) -> int:
    params = _parse_params(args)
    rows = comparison_rows(params, parse_grid(args.grid, args.log_grid))
    text = render_csv(rows)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from . import _verify

    ok, lines = _verify.run_verification()
    for line in lines:
        print(line)
    return 0 if ok else 1


# the one parser, built at import: main parses every argv with it
_PARSER = argparse.ArgumentParser(
    prog="betatails",
    description="Exact Beta central moments and sharp Bernstein-type tail bounds.",
)
_sub = _PARSER.add_subparsers(dest="command", required=True)
_shape = argparse.ArgumentParser(add_help=False)
_shape.add_argument("--alpha", required=True, help="shape alpha (decimal or p/q)")
_shape.add_argument("--beta", required=True, help="shape beta (decimal or p/q)")

_p = _sub.add_parser("moments", parents=[_shape], help="print exact central moments")
_p.add_argument("--dmax", type=int, required=True, help="largest moment order")
_p.set_defaults(func=cmd_moments)

_p = _sub.add_parser("bound", parents=[_shape], help="evaluate the Bernstein-type tail bound")
_p.add_argument("--eps", type=float, required=True, help="deviation from the mean")
_p.add_argument("--side", choices=["upper", "lower"], required=True)
_p.set_defaults(func=cmd_bound)

_p = _sub.add_parser("compare", parents=[_shape], help="write a bound-comparison CSV")
_p.add_argument("--grid", required=True, help="deviation grid start:stop:steps")
_p.add_argument("--out", required=True, help="output CSV path")
_p.add_argument("--log-grid", action="store_true", help="log-spaced grid")
_p.set_defaults(func=cmd_compare)

_sub.add_parser("verify", help="run the invariant suite").set_defaults(func=cmd_verify)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"soundness violation: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
