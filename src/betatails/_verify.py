"""Self-contained invariant suite behind the ``verify`` CLI command.

This registry is the one statement of the package's invariants:
``tests/test_acceptance.py`` runs the matching ``CHECKS`` entries instead of
restating them, so a grid, seed or tolerance is changed here or nowhere.
No unit test restates a check on a fixed grid. A check covers such a test
when it has every shape the test has, spans at least the test's range of
eps, t, x or order with at least as many points, and holds a tolerance the
same or tighter; where one falls short it is widened to the union of the two
grids and the tighter tolerance, never loosened. The tests keep what the
registry cannot hold: hypothesis draws and mpmath oracles.

Every check is a ``Check``: a predicate ``holds`` and the cases it holds on,
each case the arguments of one call (a shape, an x, a shape and a stop). A
call returns None on success or a short failure description, and a check
called with no arguments runs every case and returns the first failure; an
exception it raises is reported as a failure of that check.
``tests/test_verify_cases.py`` runs each case as a test of its own, so a
failure names its check and its shape. All randomness is seeded, so two runs
always perform identical work.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, chernoff, moments, specfun
from .cli import _linspace, _logspace, comparison_rows
from .specfun import _REL_TOL, gauss_2f1_terminating, log_gamma, regularized_incomplete_beta

_SEED = 20260810

BASE_PAIRS = [
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2), Fraction(98)),
    (Fraction(7), Fraction(11, 3)),
    (Fraction(98), Fraction(2)),
]
_INEQUALITY_PAIRS = [(2, 98), (2, 998), (5, 5), (98, 2), (1, 1), (2, 3)]
SD_LADDER_PAIRS = [(2, 5), (2, 98), (3, 3), (2, 998)]  # the optimality study's shapes
SPREAD_LIMIT = 4.0  # EXPONENT-EXPANSION's bound on each ladder's residual/eps^4 max/min
PAPER_TABLES = [(2, 98, 0.05), (2, 998, 0.005)]  # (alpha, beta, last deviation) of each table


def _random_shapes() -> list[tuple[Fraction, Fraction]]:
    """Seeded rational shapes (alpha, beta), each p/q with p in 1..40 and q in 1..8."""
    rng = random.Random(_SEED)

    def draw() -> Fraction:
        return Fraction(rng.randint(1, 40), rng.randint(1, 8))

    return [(draw(), draw()) for _ in range(50)]


_RANDOM_SHAPES = _random_shapes()


@dataclass(frozen=True)
class Check:
    """An invariant: ``holds(*case)`` is None for every case, or a failure description."""

    holds: Callable[..., str | None]
    cases: Sequence[tuple] = ((),)

    def __call__(self) -> str | None:
        """The first case's failure, or None when every case holds."""
        for case in self.cases:
            failure = self.holds(*case)
            if failure is not None:
                return failure
        return None


def check_oracle_equivalence(a, b) -> str | None:
    """Recursive moments equal both independent oracles, rationally."""
    params = moments.BetaParams(a, b)
    table = moments.central_moments_recursive(params, 20)
    for d in range(21):
        mu = table.central[d]
        bin_val = moments.central_moment_binomial_oracle(params, d)
        hyp_val = moments.central_moment_hypergeom_oracle(params, d)
        if not (mu == bin_val == hyp_val):
            return (
                f"Beta({a},{b}) d={d}: recursion={mu}, binomial={bin_val}, "
                f"hypergeometric={hyp_val}"
            )
    return None


def check_sign_odd_moments(a, b) -> str | None:
    """Odd central moments share the sign of beta - alpha."""
    table = moments.central_moments_recursive(moments.BetaParams(a, b), 19)
    expected = (b > a) - (b < a)
    for d in range(3, 20, 2):
        mu = table.central[d]
        got = (mu > 0) - (mu < 0)
        if got != expected:
            return f"Beta({a},{b}) d={d}: sign(mu_d)={got}, sign(beta-alpha)={expected}"
    return None


def check_even_moments_nonnegative(a, b) -> str | None:
    table = moments.central_moments_recursive(moments.BetaParams(a, b), 20)
    for d in range(0, 21, 2):
        if table.central[d] < 0:
            return f"Beta({a},{b}): mu_{d} = {table.central[d]} < 0"
    return None


def check_moment_boundedness(a, b) -> str | None:
    """|mu_d| <= 1 since the centered variable lives in [-1, 1]."""
    table = moments.central_moments_recursive(moments.BetaParams(a, b), 20)
    for d, mu in enumerate(table.central):
        if abs(mu) > 1:
            return f"Beta({a},{b}): |mu_{d}| = {abs(mu)} > 1"
    return None


def check_scaled_recursion(a, b) -> str | None:
    """d (s+d-1) m_d = ((d-1)(b-a)/s) m_{d-1} + (a b / s^2) m_{d-2}, exactly.

    m_d = mu_d / d! are the normalized central moments, the MGF series'
    coefficients.
    """
    params = moments.BetaParams(a, b)
    s = params.total
    central = moments.central_moments_recursive(params, 20).central
    m = [mu / math.factorial(d) for d, mu in enumerate(central)]
    for d in range(2, 21):
        lhs = d * (s + d - 1) * m[d]
        rhs = (d - 1) * (b - a) / s * m[d - 1] + a * b / (s * s) * m[d - 2]
        if lhs != rhs:
            return f"Beta({a},{b}) d={d}: scaled recursion violated ({lhs} != {rhs})"
    return None


def check_p_recursive_form(a, b) -> str | None:
    """The recursion coefficients are degree <= 1 in d: second differences vanish."""
    params = moments.BetaParams(a, b)
    for d in range(2, 15):
        trip = [moments.recursion_coefficients(params, dd) for dd in (d, d + 1, d + 2)]
        for i in range(3):
            first = trip[1][i] - trip[0][i]
            second = trip[2][i] - trip[1][i]
            if first != second:
                return f"Beta({a},{b}): coefficient {i} is not linear in d near d={d}"
    return None


def check_variance_scale_identities(a, b) -> str | None:
    """mu_2 and mu_3/mu_2 match their closed forms exactly."""
    s = a + b
    table = moments.central_moments_recursive(moments.BetaParams(a, b), 3)
    if table.central[2] != a * b / (s * s * (s + 1)):
        return f"Beta({a},{b}): mu_2 = {table.central[2]} mismatches closed form"
    if table.central[3] / table.central[2] != 2 * (b - a) / (s * (s + 2)):
        return f"Beta({a},{b}): mu_3/mu_2 mismatches closed form"
    return None


def check_vc_sign_consistency(a, b) -> str | None:
    """sub_gamma_params equals (mu_2, mu_3/mu_2) exactly, sign of c included."""
    params = moments.BetaParams(a, b)
    sg = bounds.sub_gamma_params(params)
    table = moments.central_moments_recursive(params, 3)
    if sg.v != table.central[2]:
        return f"Beta({a},{b}): v={sg.v} but mu_2={table.central[2]}"
    if sg.c != table.central[3] / table.central[2]:
        return (
            f"Beta({a},{b}): c={sg.c} but mu_3/mu_2="
            f"{table.central[3] / table.central[2]} (check the sign of c)"
        )
    return None


def check_ibeta_symmetry() -> str | None:
    """I_x(a,b) = 1 - I_{1-x}(b,a) holds across x_c = (a+1)/(a+b+2), where the fraction
    switches to (b, a, 1 - x): I jumps there by under 2 * rel_tol, by 1e-9 for one 1e-9 off."""
    rng = random.Random(_SEED + 1)
    for _ in range(200):
        a = rng.uniform(0.3, 60.0)
        b = rng.uniform(0.3, 60.0)
        x_c = (a + 1.0) / (a + b + 2.0)
        below = math.nextafter(x_c, 0.0)
        jump = regularized_incomplete_beta(a, b, x_c) - regularized_incomplete_beta(a, b, below)
        if abs(jump) > 2 * _REL_TOL:
            return f"I jumps by {jump:.3e} across x_c = {x_c} at a={a}, b={b}"
    return None


def check_ibeta_monotone(a, b) -> str | None:
    prev = 0.0
    for x in _linspace(0.0, 1.0, 200):
        cur = regularized_incomplete_beta(a, b, x)
        if cur < prev - 1e-14:
            return f"I_x({a},{b}) decreased at x={x}"
        prev = cur
    return None


def check_log_gamma_ratio(x) -> str | None:
    """exp(lg(x+1)) / exp(lg(x)) = x to 1e-12 relative."""
    ratio = math.exp(log_gamma(x + 1.0)) / math.exp(log_gamma(x))
    if abs(ratio - x) > 1e-12 * x:
        return f"Gamma(x+1)/Gamma(x) = {ratio} != {x}"
    return None


def check_2f1_pochhammer_sum() -> str | None:
    """Terminating 2F1 equals a locally coded term-by-term Pochhammer sum."""

    def poch(x: Fraction, k: int) -> Fraction:
        out = Fraction(1)
        for i in range(k):
            out *= x + i
        return out

    rng = random.Random(_SEED + 2)
    for _ in range(40):
        a = Fraction(rng.randint(-6, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        z = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        d = rng.randint(0, 9)
        direct = sum(
            poch(a, k) * poch(Fraction(-d), k) / (poch(c, k) * math.factorial(k)) * z**k
            for k in range(d + 1)
        )
        val = gauss_2f1_terminating(a, d, c, z)
        if val != direct:
            return f"2F1({a},-{d};{c};{z}) = {val} != direct sum {direct}"
    return None


def check_bernstein_soundness(a, b) -> str | None:
    """Bound minus exact tail >= -1e-10 across both tails."""
    params = moments.BetaParams(a, b)
    mu = float(params.mean())
    for side, width in (
        (bounds.TailSide.UPPER, 1.0 - mu),
        (bounds.TailSide.LOWER, mu),
    ):
        for eps in _linspace(0.0, width, 200):
            bd = bounds.bernstein_tail_bound(params, eps, side)
            exact = bounds.exact_tail(params, eps, side)
            if bd - exact < -1e-10:
                return (
                    f"Beta({a},{b}) {side.value} eps={eps}: bound {bd} below "
                    f"exact tail {exact}"
                )
    return None


def check_bernstein_reflection(a, b) -> str | None:
    params = moments.BetaParams(a, b)
    swapped = moments.BetaParams(b, a)
    for eps in _linspace(0.0, 0.4, 16):
        lower = bounds.bernstein_tail_bound(params, eps, bounds.TailSide.LOWER)
        upper = bounds.bernstein_tail_bound(swapped, eps, bounds.TailSide.UPPER)
        if lower != upper:
            return f"Beta({a},{b}) eps={eps}: lower {lower} != swapped upper {upper}"
    return None


def check_bound_monotonicity(a, b) -> str | None:
    params = moments.BetaParams(a, b)
    for side in bounds.TailSide:
        prev = math.inf
        for eps in _linspace(0.0, 0.8, 160):
            cur = bounds.bernstein_tail_bound(params, eps, side)
            if cur > prev + 1e-15:
                return f"Beta({a},{b}) {side.value}: bound increased at eps={eps}"
            prev = cur
    return None


def check_log_refinement() -> str | None:
    """x - x^2/(2(1+x/3)) lies strictly below log(1+x) for x > 0, equal at 0.

    The refinement is an upper-direction bound on x - log(1+x): the gap
    g(x) = log(1+x) - (x - x^2/(2(1+x/3))) has g(0) = 0 and
    g'(x) = x^2 (x+9) / (2 (x+1) (x+3)^2) >= 0, so g > 0 for every x > 0 and
    x - log(1+x) <= x^2/(2(1+x/3)). The reverse orientation
    log(1+x) <= x - x^2/(2(1+x/3)) is therefore impossible away from the
    origin (at x = 3 the two sides are 1.386... and 0.75).

    Besides the sign, the check pins the formula through its second-order
    contact at the origin: g(x) = x^3/6 + O(x^4), so g(x) / (x^3/6) tends
    to 1. Dropping the 1/3 in the denominator makes the sign fail; dropping
    the whole denominator doubles the contact ratio.
    """
    if bounds.log_upper_bound(0.0) != 0.0:
        return "refinement must vanish at x = 0"
    if abs(bounds.log_upper_bound(3.0) - 0.75) > 1e-15:
        return f"refinement at x=3 is {bounds.log_upper_bound(3.0)}, expected 0.75"
    for x in (1e-4, 1e-3):
        ratio = (math.log1p(x) - bounds.log_upper_bound(x)) / (x**3 / 6.0)
        if abs(ratio - 1.0) > 1e-2:
            return f"(log(1+x) - refinement) / (x^3/6) = {ratio} at x={x}, expected 1"
    rng = random.Random(_SEED)
    for _ in range(1_000_000):
        x = rng.uniform(0.0, 100.0)
        if x > 0.0 and math.log1p(x) <= bounds.log_upper_bound(x):
            return f"log(1+x) <= refinement at x={x}"
    return None


def check_subgaussian_proxy() -> str | None:
    """Symmetric shapes are strictly sub-gaussian; skewed ones exceed v clearly."""
    for a in (1, 3, 5):
        sym = moments.BetaParams(Fraction(a), Fraction(a))
        v = float(bounds.sub_gamma_params(sym).v)
        proxy = bounds.subgaussian_optimal_proxy(sym)
        if abs(proxy - v) > 1e-6 * v:
            return f"Beta({a},{a}): proxy {proxy} differs from v {v}"
    skew = moments.BetaParams(Fraction(2), Fraction(98))
    v = float(bounds.sub_gamma_params(skew).v)
    proxy = bounds.subgaussian_optimal_proxy(skew)
    if proxy <= 1.01 * v:
        return f"Beta(2,98): proxy {proxy} not strictly above v {v}"
    return None


def check_comparison_ordering(a, b, stop) -> str | None:
    """exact < bernstein < subgaussian strictly at interior grid points.

    comparison_rows itself raises SoundnessError unless exact <= chernoff <=
    bernstein and exact <= subgaussian hold on every row.
    """
    rows = comparison_rows(moments.BetaParams(a, b), _linspace(0.0, stop, 100))
    for row in rows[1:-1]:
        if not row.exact < row.bernstein < row.subgaussian:
            return (
                f"Beta({a},{b}) eps={row.epsilon}: ordering exact < bernstein "
                f"< subgaussian violated ({row.exact}, {row.bernstein}, "
                f"{row.subgaussian})"
            )
    return None


def check_mgf_series_consistency(a, b) -> str | None:
    """Closed-form phi agrees with the moment series to order 160 within its certified tail.

    |mu_d| <= 1 bounds the left-out terms by |t|^d / d!, and their sum by
    |t|^161 / 161! / (1 - |t|/162) for |t| < 162: at most 4.4e-78 on this grid,
    so the 1e-10 |phi| term sets the tolerance at every tilt.
    """
    params = moments.BetaParams(a, b)
    table = moments.central_moments_recursive(params, 160)
    for t in _linspace(-20.0, 20.0, 17):
        series = 1.0 + math.fsum(
            float(table.central[d] / math.factorial(d)) * t**d for d in range(2, 161)
        )
        tail = abs(t) ** 161 / math.factorial(161) / (1.0 - abs(t) / 162.0)
        phi = chernoff.centered_mgf(params, t)
        if abs(phi - series) > tail + 1e-10 * abs(phi):
            return f"Beta({a},{b}) t={t}: |phi - series| = {abs(phi - series)} > {tail}"
    return None


def check_cgf_convexity(a, b) -> str | None:
    """Divided differences of psi are non-decreasing on a sampled grid."""
    params = moments.BetaParams(a, b)
    ts = _linspace(-15.0, 15.0, 40)
    vals = [chernoff.cgf(params, t) for t in ts]
    prev_slope = -math.inf
    for i in range(1, len(ts)):
        slope = (vals[i] - vals[i - 1]) / (ts[i] - ts[i - 1])
        if slope < prev_slope - 1e-9:
            return f"Beta({a},{b}): psi slope decreased near t={ts[i]}"
        prev_slope = slope
    return None


def _inequality_tilts(sg: bounds.SubGammaParams) -> list[float]:
    """50 log-spaced tilts from 1e-3 to 0.95/c, or to 1e4 if c <= 0."""
    c = float(sg.c)
    return _logspace(1e-3, 0.95 / c if c > 0 else 1e4, 50)


def derivative_ratio_holds(params: moments.BetaParams, t: float) -> bool:
    """phi'/phi = psi'(t) <= v t / (1 - c t) + 1e-10 at one t in (0, 1/c), (v, c) the
    Bernstein pair (c = 0 when alpha > beta); psi' is read from the CGF kernel."""
    sg = bounds.bernstein_params(params)
    v, c = float(sg.v), float(sg.c)
    psi_prime = specfun._cgf_kernel(*params.doubles(), t)[1]
    return 0.0 < t and c * t < 1.0 and psi_prime <= v * t / (1.0 - c * t) + 1e-10


def check_derivative_ratio(a, b) -> str | None:
    params = moments.BetaParams(Fraction(a), Fraction(b))
    for t in _inequality_tilts(bounds.sub_gamma_params(params)):
        if not derivative_ratio_holds(params, t):
            return f"Beta({a},{b}) t={t}: phi'/phi exceeds its bound"
    return None


def check_cumulant_upper_bound(a, b) -> str | None:
    params = moments.BetaParams(Fraction(a), Fraction(b))
    sg = bounds.sub_gamma_params(params)
    for t in _inequality_tilts(sg):
        psi = chernoff.cgf(params, t)
        cap = chernoff.cumulant_upper_bound(sg, t)
        if psi > cap + 1e-10:
            return f"Beta({a},{b}) t={t}: psi={psi} above cumulant bound {cap}"
    return None


def check_exponent_dominates_bound(a, b) -> str | None:
    """psi*(eps) dominates the closed-form exponent for beta >= alpha."""
    params = moments.BetaParams(Fraction(a), Fraction(b))
    sg = bounds.sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    mu = float(params.mean())
    for eps in _logspace(1e-3 * (1 - mu), 0.5 * (1 - mu), 12):
        res = chernoff.chernoff_exponent_numeric(params, eps, bounds.TailSide.UPPER)
        target = eps * eps / (2.0 * (v + c * eps / 3.0))
        if res.exponent < target - 1e-10:
            return (
                f"Beta({a},{b}) eps={eps}: psi*={res.exponent} below "
                f"closed-form exponent {target}"
            )
    return None


def check_tilt_identity(a, b) -> str | None:
    """eps*best_tilt - cumulant_upper_bound(best_tilt) equals (v/c^2)(x - log(1+x)) at x = c eps / v.

    The tilt also stays inside the cap's domain, best_tilt < 1/c. The eps grid,
    13 log-spaced points from 1e-4 (1 - mu) to 0.5, reaches past half of every
    width 1 - mu here (0.6 or more).
    """
    params = moments.BetaParams(Fraction(a), Fraction(b))
    sg = bounds.sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    mu = float(params.mean())
    for eps in _logspace(1e-4 * (1 - mu), 0.5, 13):
        tb = chernoff.best_tilt(sg, eps)
        if not tb < 1.0 / c:
            return f"Beta({a},{b}) eps={eps}: best tilt {tb} not below 1/c = {1.0 / c}"
        lhs = eps * tb - chernoff.cumulant_upper_bound(sg, tb)
        x = c * eps / v
        rhs = v / (c * c) * (x - math.log1p(x))
        if abs(lhs - rhs) > max(1e-12 * abs(rhs), 1e-15):
            return f"Beta({a},{b}) eps={eps}: {lhs} != {rhs}"
    return None


def expansion_ladder(params: moments.BetaParams, top: float) -> list[tuple]:
    """(eps, Chernoff result, closed form, |psi* - closed form| / eps^4), eps = top / 2^i, i < 4."""
    rows = []
    for eps in (top, top / 2, top / 4, top / 8):
        res = chernoff.chernoff_exponent_numeric(params, eps, bounds.TailSide.UPPER)
        closed = chernoff.chernoff_exponent_expansion(params, eps)
        rows.append((eps, res, closed, abs(res.exponent - closed) / eps**4))
    return rows


def check_exponent_expansion(a, b) -> str | None:
    """|psi* - (eps^2/2v - c eps^3/6v^2)| / eps^4 spreads below SPREAD_LIMIT; every solve converges.

    A ladder topped at one sd keeps c eps / v below about 1.4. A top of 0.02 serves
    where it is below 2 sd: at Beta(2, 998) it is 14 sd, and c eps / v 20.
    """
    params = moments.BetaParams(a, b)
    sd = math.sqrt(float(bounds.sub_gamma_params(params).v))
    for top in (0.02, sd) if 0.02 < 2.0 * sd else (sd,):
        rows = expansion_ladder(params, top)
        if not all(res.converged for _, res, _, _ in rows):
            return f"Beta({a},{b}): a Chernoff solve from eps={top} down did not converge"
        ratios = [row[3] for row in rows]
        if max(ratios) / min(ratios) >= SPREAD_LIMIT:
            return f"Beta({a},{b}): residual/eps^4 ratios {ratios} spread beyond {SPREAD_LIMIT:g}x"
    return None


def check_chernoff_edge() -> str | None:
    """Solves converge up to the support edge, and exp(-psi*) bounds the exact tail.

    eps = width (1 - 10^-k), k = 1..6, puts the root up to t = 1e6 (alpha + beta),
    past any fixed bracket; Beta(527.9, 263.4) crosses v/|c|, where the
    gaussian first guess diverges, near k = 3. At Beta(2, 98), eps = width
    - 1e-5, psi* is 1120.459313107545 (mpmath), and t eps - psi cancels from
    t* eps = 9.6e6: 4e-12 relative is its rounding floor.
    """
    for a, b in [(2, 98), (2, 998), (98, 2), (527.9, 263.4)]:
        params = moments.BetaParams(a, b)
        width = 1.0 - float(params.mean())
        for k in range(1, 7):
            eps = width * (1.0 - 10.0**-k)
            res = chernoff.chernoff_exponent_numeric(params, eps, bounds.TailSide.UPPER)
            if not res.converged:
                return f"Beta({a},{b}) eps={eps}: Chernoff optimizer did not converge"
            tail = bounds.exact_tail(params, eps, bounds.TailSide.UPPER)
            if math.exp(-res.exponent) < tail - 1e-10:
                return f"Beta({a},{b}) eps={eps}: exp(-{res.exponent}) below exact tail {tail}"
    edge = chernoff.chernoff_exponent_numeric(
        moments.BetaParams(2, 98), 0.98 - 1e-5, bounds.TailSide.UPPER
    ).exponent
    if not abs(edge / 1120.459313107545 - 1.0) <= 4e-12:
        return f"Beta(2,98) eps=0.98-1e-5: psi*={edge}, mpmath 1120.459313107545"
    return None


CHECKS: list[tuple[str, Check]] = [
    ("ORACLE-EQUIVALENCE", Check(check_oracle_equivalence, BASE_PAIRS)),
    ("SIGN-ODD-MOMENTS", Check(check_sign_odd_moments, _RANDOM_SHAPES)),
    ("EVEN-NONNEGATIVE", Check(check_even_moments_nonnegative, BASE_PAIRS + _RANDOM_SHAPES)),
    ("MOMENT-BOUNDEDNESS", Check(check_moment_boundedness, BASE_PAIRS)),
    ("SCALED-RECURSION", Check(check_scaled_recursion, BASE_PAIRS + _RANDOM_SHAPES)),
    ("P-RECURSIVE-FORM", Check(check_p_recursive_form, BASE_PAIRS)),
    ("VARIANCE-SCALE-IDENTITIES", Check(check_variance_scale_identities, BASE_PAIRS)),
    ("VC-SIGN-CONSISTENCY", Check(
        check_vc_sign_consistency, BASE_PAIRS + [(Fraction(3), Fraction(1))]
    )),
    ("IBETA-SYMMETRY", Check(check_ibeta_symmetry)),
    ("IBETA-MONOTONE", Check(
        check_ibeta_monotone, [(0.5, 0.5), (2.0, 98.0), (7.0, 11.0 / 3.0), (98.0, 2.0)]
    )),
    ("LOG-GAMMA-RATIO", Check(check_log_gamma_ratio, [(0.5,), (1.0,), (2.5,), (10.0,), (100.0,)])),
    ("2F1-POCHHAMMER-SUM", Check(check_2f1_pochhammer_sum)),
    ("BERNSTEIN-SOUNDNESS", Check(check_bernstein_soundness, BASE_PAIRS)),
    ("BERNSTEIN-REFLECTION", Check(
        check_bernstein_reflection,
        [(Fraction(2), Fraction(98)), (Fraction(7), Fraction(11, 3)), (Fraction(5), Fraction(5))],
    )),
    ("BOUND-MONOTONICITY", Check(
        check_bound_monotonicity, BASE_PAIRS + [(Fraction(5), Fraction(5))]
    )),
    ("LOG-REFINEMENT", Check(check_log_refinement)),
    ("SUBGAUSSIAN-PROXY", Check(check_subgaussian_proxy)),
    ("COMPARISON-ORDERING", Check(check_comparison_ordering, PAPER_TABLES)),
    ("MGF-SERIES-CONSISTENCY", Check(
        check_mgf_series_consistency,
        [(Fraction(2), Fraction(98)), (Fraction(2), Fraction(3)), (Fraction(98), Fraction(2))],
    )),
    ("CGF-CONVEXITY", Check(
        check_cgf_convexity, [(Fraction(2), Fraction(98)), (Fraction(5), Fraction(5))]
    )),
    ("MGF-DERIVATIVE-RATIO", Check(check_derivative_ratio, _INEQUALITY_PAIRS)),
    ("CUMULANT-UPPER-BOUND", Check(check_cumulant_upper_bound, _INEQUALITY_PAIRS)),
    ("EXPONENT-DOMINATES-BOUND", Check(
        check_exponent_dominates_bound, [(2, 98), (2, 998), (5, 5), (1, 1), (2, 3)]
    )),
    ("TILT-IDENTITY", Check(check_tilt_identity, [(2, 98), (2, 998), (2, 3), (1, 2)])),
    ("EXPONENT-EXPANSION", Check(check_exponent_expansion, SD_LADDER_PAIRS)),
    ("CHERNOFF-EDGE", Check(check_chernoff_edge)),
]


def run_verification() -> tuple[bool, list[str]]:
    """Run every check in registry order.

    Returns (all_passed, report lines), one PASS or FAIL line per check. A
    check that raises fails with the exception's type and message, and the
    checks after it still run.
    """
    lines = []
    ok = True
    for name, fn in CHECKS:
        try:
            failure = fn()
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            lines.append(f"PASS {name}")
        else:
            ok = False
            lines.append(f"FAIL {name}: {failure}")
    return ok, lines
