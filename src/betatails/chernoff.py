"""Exact MGF/CGF of the centered Beta variable and the numeric Chernoff exponent.

Write Z = X - E[X]. The moment generating function has the closed form
phi(t) = exp(-t mu) 1F1(alpha; alpha+beta; t) and, equivalently, the
everywhere-convergent series 1 + sum_{d>=2} m_d t^d over normalized central
moments m_d = mu_d / d!. Both are used here: the closed form for the cumulant
generating function psi = log phi, the series (with a certified truncation
remainder from |mu_d| <= 1) for the derivative-ratio inequality checks.

The Cramer-Chernoff exponent psi*(eps) = sup_{t>=0} (t eps - psi(t)) is
computed by bracketing plus golden-section search; psi is strictly convex, so
the objective is strictly concave and unimodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bounds import SubGammaParams, TailSide, sub_gamma_params
from .moments import BetaParams, _centered_series, _series_length
from .specfun import DEFAULT_CONFIG, EvalConfig, log_gamma, log_kummer_1f1

# Slack applied when certifying the derivative-ratio inequality; matches the
# tolerance the verification suite runs at.
CHECK_SLACK = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_T_CAP = 1e5


@dataclass(frozen=True)
class ChernoffResult:
    """Chernoff exponent psi*(eps), its maximizer, and an optimizer status flag."""

    exponent: float
    t_star: float
    converged: bool


def _series_config(cfg: EvalConfig, t: float, tighten: float = 1.0) -> EvalConfig:
    # the 1F1 series needs roughly 2|t| terms before it starts decaying
    needed = max(cfg.max_iter, int(4.0 * abs(t)) + 2000)
    rel_tol = max(cfg.rel_tol * tighten, 1e-15)
    if needed == cfg.max_iter and rel_tol == cfg.rel_tol:
        return cfg
    return replace(cfg, max_iter=needed, rel_tol=rel_tol)


def centered_mgf(params: BetaParams, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """phi(t) = E[exp(t (X - E[X]))] via the closed 1F1 form; phi(0) = 1."""
    return math.exp(cgf(params, t, cfg))


def cgf(params: BetaParams, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """psi(t) = log phi(t); zero at t = 0, convex, and non-negative everywhere."""
    if t == 0.0:
        return 0.0
    a, b = float(params.alpha), float(params.beta)
    mu = a / (a + b)
    return -t * mu + log_kummer_1f1(a, a + b, t, cfg)


def chernoff_exponent_numeric(
    params: BetaParams, eps: float, side: TailSide, cfg: EvalConfig = DEFAULT_CONFIG
) -> ChernoffResult:
    """psi*(eps) = sup_{t >= 0} (t eps - psi(t)) for the requested tail.

    The lower tail is the upper tail of 1 - X ~ Beta(beta, alpha), so only one
    optimization path exists. Valid for 0 < eps < support width on the chosen
    side; exp(-exponent) then upper-bounds the exact tail probability.
    """
    if side is TailSide.LOWER:
        return chernoff_exponent_numeric(params.swapped(), eps, TailSide.UPPER, cfg)
    a, b = float(params.alpha), float(params.beta)
    mu = a / (a + b)
    if not 0.0 < eps < 1.0 - mu:
        raise ValueError(
            f"eps must lie strictly inside (0, {1.0 - mu}) for the upper tail, got {eps}"
        )

    def objective(t: float) -> float:
        # run the series two orders tighter than requested so that its
        # truncation stays invisible against the 1e-12 exponent tolerance
        return t * eps - cgf(params, t, _series_config(cfg, t, tighten=1e-2))

    # geometric bracket growth from a sub-gamma-informed initial scale
    sg = sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    t0 = eps / (v + c * eps) if v + c * eps > 0 else eps / v
    t_prev, f_prev = 0.0, 0.0
    # t0 diverges as eps nears v/|c| when c < 0: a series of ~2 t0 terms past the cap
    t_cur = min(max(t0, 1e-3), _BRACKET_T_CAP)
    f_cur = objective(t_cur)
    converged = True
    while True:
        t_next = 2.0 * t_cur
        if t_next > _BRACKET_T_CAP:
            converged = False
            break
        f_next = objective(t_next)
        if f_next < f_cur:
            break
        t_prev, f_prev = t_cur, f_cur
        t_cur, f_cur = t_next, f_next
    if not converged:
        return ChernoffResult(exponent=max(f_cur, 0.0), t_star=t_cur, converged=False)

    lo, hi = t_prev, t_next
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    # psi'' is a tilted variance of a [0,1]-supported variable, so |g''| <= 1/4
    # and a bracket of width W leaves the peak within (0.382 W)^2 / 8; width
    # 2e-6 puts that near 7e-14, inside the 1e-12 exponent tolerance
    while hi - lo > 2e-6:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
    if f1 >= f2:
        best_t, best_f = x1, f1
    else:
        best_t, best_f = x2, f2
    best_f = max(best_f, f_cur, f_prev, 0.0)
    return ChernoffResult(exponent=best_f, t_star=best_t, converged=True)


def chernoff_exponent_expansion(params: BetaParams, eps: float) -> float:
    """Leading terms of the optimal exponent: eps^2/(2v) - c eps^3/(6 v^2).

    psi*(eps) matches this to O(eps^4) as eps -> 0, which is what certifies
    (v, c) as the best possible sub-gamma parameters.
    """
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    sg = sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    return eps * eps / (2.0 * v) - c * eps**3 / (6.0 * v * v)


def _series_remainders(t: float, terms: int) -> tuple[float, float]:
    """Certified tails of the phi and phi' series past the truncation order.

    |m_d| <= 1/d! (the centered variable lives in [-1, 1]), so the phi tail is
    below sum_{d>D} |t|^d/d! and the phi' tail below sum_{d>D} |t|^{d-1}/(d-1)!.
    """
    at = abs(t)
    if at == 0.0:
        return 0.0, 0.0
    log_lead = terms * math.log(at) - log_gamma(terms + 1.0)  # |t|^D / D!
    if log_lead > 700.0:
        return math.inf, math.inf
    lead = math.exp(log_lead)
    rem = 0.0
    term = lead
    e = terms
    for _ in range(100_000):
        e += 1
        term *= at / e
        rem += term
        if term < (rem + lead) * 1e-25:
            break
    # phi' tail is the phi tail shifted by one index: rem + |t|^D/D!
    return rem, rem + lead


def derivative_ratio_check(params: BetaParams, t: float) -> bool:
    """Certified check of the derivative-ratio inequality at a single t > 0.

    beta >= alpha: phi'(t)/phi(t) <= v t / (1 - c t), valid for t < 1/c;
    alpha > beta: phi'(t)/phi(t) <= v t. The ratio is evaluated from the
    truncated moment series with its certified remainder folded in, so a True
    result is not an artifact of truncation.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    sg = sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    if params.beta >= params.alpha:
        if c > 0 and t >= 1.0 / c:
            raise ValueError(f"t={t} is outside the valid range t < 1/c = {1.0 / c}")
        rhs = v * t / (1.0 - c * t)
    else:
        rhs = v * t
    terms = _series_length(t)
    sigma, excess = _centered_series(params, t, terms)
    dphi = (2.0 * sigma + excess) / t
    rem_phi, rem_dphi = _series_remainders(t, terms)
    phi_low = 1.0 + sigma - rem_phi
    if phi_low <= 0.0:
        return False
    lhs_high = (dphi + rem_dphi) / phi_low
    return lhs_high <= rhs + CHECK_SLACK


def cumulant_upper_bound(sg: SubGammaParams, t: float) -> float:
    """Closed-form upper bound on psi(t): -v (c t + log(1 - c t)) / c^2 for c > 0.

    The c <= 0 branch is the gaussian limit v t^2 / 2. Requires t < 1/c when
    c > 0; a short series evaluation takes over for tiny c t where the direct
    expression would cancel.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    v, c = float(sg.v), float(sg.c)
    if c <= 0.0:
        return v * t * t / 2.0
    x = c * t
    if x >= 1.0:
        raise ValueError(f"t={t} must stay below 1/c = {1.0 / c}")
    if x < 1e-4:
        # -v (x + log(1-x)) / c^2 = v t^2 (1/2 + x/3 + x^2/4 + x^3/5 + ...)
        return v * t * t * (0.5 + x / 3.0 + x * x / 4.0 + x**3 / 5.0)
    return -v * (x + math.log1p(-x)) / (c * c)


def best_tilt(sg: SubGammaParams, eps: float) -> float:
    """Maximizer eps / (c eps + v) of the relaxed Chernoff objective.

    Always below 1/c when c > 0, so the cumulant bound stays finite there.
    """
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    v, c = float(sg.v), float(sg.c)
    return eps / (c * eps + v)
