"""Self-contained invariant suite behind the ``verify`` CLI command.

This registry is the one statement of the package's invariants:
``tests/test_acceptance.py`` runs the matching ``CHECKS`` entries instead of
restating them, so a grid, seed or tolerance is changed here or nowhere.

Every check is a pure function of no arguments returning None on success or
a short failure description; an exception it raises is reported as a
failure of that check. All randomness is seeded, so two runs always perform
identical work.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import bounds, chernoff, moments, specfun
from .cli import comparison_rows
from .specfun import _REL_TOL, gauss_2f1_terminating, log_gamma, regularized_incomplete_beta

_SEED = 20260810

_MOMENT_PAIRS = [
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(2), Fraction(98)),
    (Fraction(7), Fraction(11, 3)),
]
_SOUNDNESS_PAIRS = _MOMENT_PAIRS + [(Fraction(98), Fraction(2))]
_INEQUALITY_PAIRS = [(2, 98), (2, 998), (5, 5), (98, 2), (1, 1), (2, 3)]
SD_LADDER_PAIRS = [(2, 5), (2, 98), (3, 3), (2, 998)]  # the optimality study's shapes


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _logspace(lo: float, hi: float, n: int) -> list[float]:
    r = math.log(hi / lo)
    return [lo * math.exp(r * i / (n - 1)) for i in range(n)]


def _random_shapes() -> list[tuple[Fraction, Fraction]]:
    """Seeded rational shapes (alpha, beta), each p/q with p in 1..40 and q in 1..8."""
    rng = random.Random(_SEED)

    def draw() -> Fraction:
        return Fraction(rng.randint(1, 40), rng.randint(1, 8))

    return [(draw(), draw()) for _ in range(50)]


def check_oracle_equivalence() -> str | None:
    """Recursive moments equal both independent oracles, rationally."""
    for a, b in _MOMENT_PAIRS:
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


def check_sign_odd_moments() -> str | None:
    """Odd central moments share the sign of beta - alpha."""
    for a, b in _random_shapes():
        params = moments.BetaParams(a, b)
        table = moments.central_moments_recursive(params, 19)
        expected = (b > a) - (b < a)
        for d in range(3, 20, 2):
            mu = table.central[d]
            got = (mu > 0) - (mu < 0)
            if got != expected:
                return f"Beta({a},{b}) d={d}: sign(mu_d)={got}, sign(beta-alpha)={expected}"
    return None


def check_even_moments_nonnegative() -> str | None:
    for a, b in _MOMENT_PAIRS + _random_shapes():
        table = moments.central_moments_recursive(moments.BetaParams(a, b), 20)
        for d in range(0, 21, 2):
            if table.central[d] < 0:
                return f"Beta({a},{b}): mu_{d} = {table.central[d]} < 0"
    return None


def check_moment_boundedness() -> str | None:
    """|mu_d| <= 1 since the centered variable lives in [-1, 1]."""
    for a, b in _MOMENT_PAIRS:
        table = moments.central_moments_recursive(moments.BetaParams(a, b), 20)
        for d, mu in enumerate(table.central):
            if abs(mu) > 1:
                return f"Beta({a},{b}): |mu_{d}| = {abs(mu)} > 1"
    return None


def check_scaled_recursion() -> str | None:
    """d (s+d-1) m_d = ((d-1)(b-a)/s) m_{d-1} + (a b / s^2) m_{d-2}, exactly.

    m_d = mu_d / d! are the normalized central moments, the MGF series'
    coefficients.
    """
    for a, b in _MOMENT_PAIRS + _random_shapes():
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


def check_p_recursive_form() -> str | None:
    """The recursion coefficients are degree <= 1 in d: second differences vanish."""
    for a, b in _MOMENT_PAIRS:
        params = moments.BetaParams(a, b)
        for d in range(2, 12):
            trip = [moments.recursion_coefficients(params, dd) for dd in (d, d + 1, d + 2)]
            for i in range(3):
                first = trip[1][i] - trip[0][i]
                second = trip[2][i] - trip[1][i]
                if first != second:
                    return f"Beta({a},{b}): coefficient {i} is not linear in d near d={d}"
    return None


def check_variance_scale_identities() -> str | None:
    """mu_2 and mu_3/mu_2 match their closed forms exactly."""
    for a, b in _MOMENT_PAIRS:
        params = moments.BetaParams(a, b)
        s = a + b
        table = moments.central_moments_recursive(params, 3)
        if table.central[2] != a * b / (s * s * (s + 1)):
            return f"Beta({a},{b}): mu_2 = {table.central[2]} mismatches closed form"
        if table.central[3] / table.central[2] != 2 * (b - a) / (s * (s + 2)):
            return f"Beta({a},{b}): mu_3/mu_2 mismatches closed form"
    return None


def check_vc_sign_consistency() -> str | None:
    """sub_gamma_params equals (mu_2, mu_3/mu_2) exactly, sign of c included."""
    for a, b in _MOMENT_PAIRS + [(Fraction(98), Fraction(2)), (Fraction(3), Fraction(1))]:
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


def check_ibeta_monotone() -> str | None:
    for a, b in [(0.5, 0.5), (2.0, 98.0), (7.0, 11.0 / 3.0), (98.0, 2.0)]:
        prev = 0.0
        for x in _linspace(0.0, 1.0, 200):
            cur = regularized_incomplete_beta(a, b, x)
            if cur < prev - 1e-14:
                return f"I_x({a},{b}) decreased at x={x}"
            prev = cur
    return None


def check_log_gamma_ratio() -> str | None:
    """exp(lg(x+1)) / exp(lg(x)) = x to 1e-12 relative."""
    for x in (0.5, 1.0, 2.5, 10.0, 100.0):
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


def check_bernstein_soundness() -> str | None:
    """Bound minus exact tail >= -1e-10 across both tails of every grid pair."""
    for a, b in _SOUNDNESS_PAIRS:
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


def check_bernstein_reflection() -> str | None:
    for a, b in [(Fraction(2), Fraction(98)), (Fraction(7), Fraction(11, 3))]:
        params = moments.BetaParams(a, b)
        swapped = moments.BetaParams(b, a)
        for eps in _linspace(0.0, 0.3, 16):
            lower = bounds.bernstein_tail_bound(params, eps, bounds.TailSide.LOWER)
            upper = bounds.bernstein_tail_bound(swapped, eps, bounds.TailSide.UPPER)
            if lower != upper:
                return f"Beta({a},{b}) eps={eps}: lower {lower} != swapped upper {upper}"
    return None


def check_bound_monotonicity() -> str | None:
    for a, b in [(Fraction(2), Fraction(98)), (Fraction(5), Fraction(5)), (Fraction(98), Fraction(2))]:
        params = moments.BetaParams(a, b)
        for side in bounds.TailSide:
            prev = math.inf
            for eps in _linspace(0.0, 0.6, 120):
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
    sym = moments.BetaParams(Fraction(5), Fraction(5))
    v = float(bounds.sub_gamma_params(sym).v)
    proxy = bounds.subgaussian_optimal_proxy(sym)
    if abs(proxy - v) > 1e-6 * v:
        return f"Beta(5,5): proxy {proxy} differs from v {v}"
    skew = moments.BetaParams(Fraction(2), Fraction(98))
    v = float(bounds.sub_gamma_params(skew).v)
    proxy = bounds.subgaussian_optimal_proxy(skew)
    if proxy <= 1.01 * v:
        return f"Beta(2,98): proxy {proxy} not strictly above v {v}"
    return None


def check_comparison_ordering() -> str | None:
    """exact < bernstein < subgaussian strictly at interior grid points.

    comparison_rows itself raises SoundnessError unless exact <= chernoff <=
    bernstein and exact <= subgaussian hold on every row.
    """
    for a, b, stop in [(Fraction(2), Fraction(98), 0.05), (Fraction(2), Fraction(998), 0.005)]:
        params = moments.BetaParams(a, b)
        rows = comparison_rows(params, _linspace(0.0, stop, 100))
        for row in rows[1:-1]:
            if not row.exact < row.bernstein < row.subgaussian:
                return (
                    f"Beta({a},{b}) eps={row.epsilon}: ordering exact < bernstein "
                    f"< subgaussian violated ({row.exact}, {row.bernstein}, "
                    f"{row.subgaussian})"
                )
    return None


def check_mgf_series_consistency() -> str | None:
    """Closed-form phi agrees with the truncated moment series within the certified tail."""
    for a, b in [(Fraction(2), Fraction(98)), (Fraction(2), Fraction(3)), (Fraction(98), Fraction(2))]:
        params = moments.BetaParams(a, b)
        table = moments.central_moments_recursive(params, 40)
        for t in _linspace(-20.0, 20.0, 17):
            series = 1.0 + math.fsum(
                float(table.central[d] / math.factorial(d)) * t**d for d in range(2, 41)
            )
            tail = math.fsum(abs(t) ** d / math.factorial(d) for d in range(41, 160))
            phi = chernoff.centered_mgf(params, t)
            if abs(phi - series) > tail + 1e-9 * abs(phi):
                return f"Beta({a},{b}) t={t}: |phi - series| = {abs(phi - series)} > {tail}"
    return None


def check_cgf_convexity() -> str | None:
    """Divided differences of psi are non-decreasing on a sampled grid."""
    for a, b in [(Fraction(2), Fraction(98)), (Fraction(5), Fraction(5))]:
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


def _inequality_points():
    """(a, b, params, sg, t) at 50 log-spaced tilts from 1e-3 to 0.95/c, or to 1e4 if c <= 0."""
    for a, b in _INEQUALITY_PAIRS:
        params = moments.BetaParams(Fraction(a), Fraction(b))
        sg = bounds.sub_gamma_params(params)
        c = float(sg.c)
        for t in _logspace(1e-3, 0.95 / c if c > 0 else 1e4, 50):
            yield a, b, params, sg, t


def check_derivative_ratio() -> str | None:
    """phi'/phi = psi'(t) <= v t / (1 - c t) + 1e-10 below 1/c, (v, c) the Bernstein pair."""
    for a, b, params, _, t in _inequality_points():
        sg = bounds.bernstein_params(params)
        v, c = float(sg.v), float(sg.c)
        if not specfun._cgf_kernel(float(a), float(b), t)[1] <= v * t / (1.0 - c * t) + 1e-10:
            return f"Beta({a},{b}) t={t}: phi'/phi exceeds its bound"
    return None


def check_cumulant_upper_bound() -> str | None:
    for a, b, params, sg, t in _inequality_points():
        psi = chernoff.cgf(params, t)
        cap = chernoff.cumulant_upper_bound(sg, t)
        if psi > cap + 1e-10:
            return f"Beta({a},{b}) t={t}: psi={psi} above cumulant bound {cap}"
    return None


def check_exponent_dominates_bound() -> str | None:
    """psi*(eps) dominates the closed-form exponent for beta >= alpha."""
    for a, b in [(2, 98), (2, 998), (5, 5), (1, 1), (2, 3)]:
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


def check_tilt_identity() -> str | None:
    """eps*best_tilt - cumulant_upper_bound(best_tilt) equals (v/c^2)(x - log(1+x)) at x = c eps / v.

    The tilt also stays inside the cap's domain, best_tilt < 1/c.
    """
    for a, b in [(2, 98), (2, 998), (2, 3), (1, 2)]:
        params = moments.BetaParams(Fraction(a), Fraction(b))
        sg = bounds.sub_gamma_params(params)
        v, c = float(sg.v), float(sg.c)
        mu = float(params.mean())
        for eps in _logspace(1e-4 * (1 - mu), 0.5 * (1 - mu), 12):
            tb = chernoff.best_tilt(sg, eps)
            if not tb < 1.0 / c:
                return f"Beta({a},{b}) eps={eps}: best tilt {tb} not below 1/c = {1.0 / c}"
            lhs = eps * tb - chernoff.cumulant_upper_bound(sg, tb)
            x = c * eps / v
            rhs = v / (c * c) * (x - math.log1p(x))
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
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


def check_exponent_expansion() -> str | None:
    """|psi* - (eps^2/2v - c eps^3/6v^2)| / eps^4 stays within 4x, and every solve converges.

    A ladder topped at one sd keeps c eps / v below about 1.4. A top of 0.02 serves
    where it is below 2 sd: at Beta(2, 998) it is 14 sd, and c eps / v 20.
    """
    for a, b in SD_LADDER_PAIRS:
        params = moments.BetaParams(a, b)
        sd = math.sqrt(float(bounds.sub_gamma_params(params).v))
        for top in (0.02, sd) if 0.02 < 2.0 * sd else (sd,):
            rows = expansion_ladder(params, top)
            if not all(res.converged for _, res, _, _ in rows):
                return f"Beta({a},{b}): a Chernoff solve from eps={top} down did not converge"
            ratios = [row[3] for row in rows]
            if max(ratios) / min(ratios) >= 4.0:
                return f"Beta({a},{b}): residual/eps^4 ratios {ratios} spread beyond 4x"
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


CHECKS: list[tuple[str, object]] = [
    ("ORACLE-EQUIVALENCE", check_oracle_equivalence),
    ("SIGN-ODD-MOMENTS", check_sign_odd_moments),
    ("EVEN-NONNEGATIVE", check_even_moments_nonnegative),
    ("MOMENT-BOUNDEDNESS", check_moment_boundedness),
    ("SCALED-RECURSION", check_scaled_recursion),
    ("P-RECURSIVE-FORM", check_p_recursive_form),
    ("VARIANCE-SCALE-IDENTITIES", check_variance_scale_identities),
    ("VC-SIGN-CONSISTENCY", check_vc_sign_consistency),
    ("IBETA-SYMMETRY", check_ibeta_symmetry),
    ("IBETA-MONOTONE", check_ibeta_monotone),
    ("LOG-GAMMA-RATIO", check_log_gamma_ratio),
    ("2F1-POCHHAMMER-SUM", check_2f1_pochhammer_sum),
    ("BERNSTEIN-SOUNDNESS", check_bernstein_soundness),
    ("BERNSTEIN-REFLECTION", check_bernstein_reflection),
    ("BOUND-MONOTONICITY", check_bound_monotonicity),
    ("LOG-REFINEMENT", check_log_refinement),
    ("SUBGAUSSIAN-PROXY", check_subgaussian_proxy),
    ("COMPARISON-ORDERING", check_comparison_ordering),
    ("MGF-SERIES-CONSISTENCY", check_mgf_series_consistency),
    ("CGF-CONVEXITY", check_cgf_convexity),
    ("MGF-DERIVATIVE-RATIO", check_derivative_ratio),
    ("CUMULANT-UPPER-BOUND", check_cumulant_upper_bound),
    ("EXPONENT-DOMINATES-BOUND", check_exponent_dominates_bound),
    ("TILT-IDENTITY", check_tilt_identity),
    ("EXPONENT-EXPANSION", check_exponent_expansion),
    ("CHERNOFF-EDGE", check_chernoff_edge),
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
