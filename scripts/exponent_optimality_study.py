#!/usr/bin/env python3
"""Empirical order check of the small-deviation exponent expansion.

For each shape pair, halve eps from one standard deviation down to an
eighth and print the residual between the numeric Chernoff exponent
psi*(eps) and the closed form eps^2/(2v) - c eps^3/(6 v^2), together with
residual/eps^4. If the closed form is accurate to fourth order, the last
column stabilizes as eps shrinks; that constancy is what certifies (v, c)
as unimprovable. The ladder scales with each shape, so the expansion's
parameter c eps / v stays below about 1.4 at its top; an absolute ladder
reaches 14 sd, and c eps / v of 20, at Beta(2, 998). The script exits 1
if any shape's spread max/min reaches SPREAD_LIMIT.
"""

import math
import sys

from betatails.bounds import TailSide, sub_gamma_params
from betatails.chernoff import chernoff_exponent_expansion, chernoff_exponent_numeric
from betatails.moments import BetaParams

PAIRS = [(2, 5), (2, 98), (3, 3), (2, 998)]
SD_FRACTIONS = [1.0, 0.5, 0.25, 0.125]
SPREAD_LIMIT = 4.0


def run() -> int:
    spreads = []
    for a, b in PAIRS:
        params = BetaParams(a, b)
        sd = math.sqrt(float(sub_gamma_params(params).v))
        print(f"Beta({a}, {b}), sd = {sd:.6g}")
        print(f"  {'eps':>12}  {'psi*':>22}  {'closed form':>22}  {'resid/eps^4':>14}")
        ratios = []
        for eps in (sd * f for f in SD_FRACTIONS):
            res = chernoff_exponent_numeric(params, eps, TailSide.UPPER)
            closed = chernoff_exponent_expansion(params, eps)
            q = abs(res.exponent - closed) / eps**4
            ratios.append(q)
            print(f"  {eps:>12.6g}  {res.exponent:>22.15e}  {closed:>22.15e}  {q:>14.6e}")
        spreads.append(max(ratios) / min(ratios))
        print(f"  spread max/min = {spreads[-1]:.4f}")
        print()
    return 0 if max(spreads) < SPREAD_LIMIT else 1


if __name__ == "__main__":
    sys.exit(run())
