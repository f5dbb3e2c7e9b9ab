#!/usr/bin/env python3
"""Empirical order check of the small-deviation exponent expansion.

For each shape pair, halve eps from one standard deviation down to an
eighth and print the residual between the numeric Chernoff exponent
psi*(eps) and the closed form eps^2/(2v) - c eps^3/(6 v^2), together with
residual/eps^4. If the closed form is accurate to fourth order, the last
column stabilizes as eps shrinks; that constancy is what certifies (v, c)
as unimprovable. The rows are those of the EXPONENT-EXPANSION check's
sd-topped ladders (betatails._verify.expansion_ladder), which keep the
expansion's parameter c eps / v below about 1.4; an absolute ladder
reaches 14 sd, and c eps / v of 20, at Beta(2, 998). The script exits 1
if any shape's spread max/min reaches the check's SPREAD_LIMIT.
"""

import math
import sys

from betatails._verify import SD_LADDER_PAIRS, SPREAD_LIMIT, expansion_ladder
from betatails.bounds import sub_gamma_params
from betatails.moments import BetaParams


def run() -> int:
    spreads = []
    for a, b in SD_LADDER_PAIRS:
        params = BetaParams(a, b)
        sd = math.sqrt(float(sub_gamma_params(params).v))
        print(f"Beta({a}, {b}), sd = {sd:.6g}")
        print(f"  {'eps':>12}  {'psi*':>22}  {'closed form':>22}  {'resid/eps^4':>14}")
        ratios = []
        for eps, res, closed, q in expansion_ladder(params, sd):
            ratios.append(q)
            print(f"  {eps:>12.6g}  {res.exponent:>22.15e}  {closed:>22.15e}  {q:>14.6e}")
        spreads.append(max(ratios) / min(ratios))
        print(f"  spread max/min = {spreads[-1]:.4f}")
        print()
    return 0 if max(spreads) < SPREAD_LIMIT else 1


if __name__ == "__main__":
    sys.exit(run())
