"""Exact MGF/CGF of the centered Beta variable and the numeric Chernoff exponent.

Write Z = X - E[X]. The moment generating function has the closed form
phi(t) = exp(-t mu) 1F1(alpha; alpha+beta; t) and, equivalently, the
everywhere-convergent series 1 + sum_{d>=2} m_d t^d over normalized central
moments m_d = mu_d / d!. `specfun._cgf_kernel` sums whichever serves at t,
each until a bound on its own left-out tail is negligible, into psi = log phi
and its derivatives; every function here reads them from it.

The Cramer-Chernoff exponent psi*(eps) = sup_{t>=0} (t eps - psi(t)) is
attained where psi'(t) = eps. psi'' is a tilted variance in (0, 1/4], so
safeguarded Newton steps on psi'(t) = eps reach the root in a few kernel
evaluations at any t. chernoff_exponents solves a sequence of deviations,
each from the roots before it; chernoff_exponent_numeric is its one-point case.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .bounds import SubGammaParams, TailSide, _bracketed_newton, sub_gamma_params
from .moments import BetaParams
from .specfun import _cgf_kernel


@dataclass(frozen=True)
class ChernoffResult:
    """Chernoff exponent psi*(eps), its maximizer, and an optimizer status flag."""

    exponent: float
    t_star: float
    converged: bool


def centered_mgf(params: BetaParams, t: float) -> float:
    """phi(t) = E[exp(t (X - E[X]))] via the closed 1F1 form; phi(0) = 1.

    Raises as cgf, and OverflowError once phi passes the largest double,
    where psi passes 709.78 (Beta(2, 98) from t of about 1054); cgf stays
    finite there.
    """
    return math.exp(cgf(params, t))


def cgf(params: BetaParams, t: float) -> float:
    """psi(t) = log phi(t); zero at t = 0, convex, and non-negative everywhere.

    One kernel call at any finite t, negative t as positive t for 1 - X. A NaN or
    infinite t raises ValueError; a 1F1 series past the kernel's step cap, or peaking at
    index 2^53 or past it (|t| from about 9e15), ConvergenceError, as does a + b >= 2^1020.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return _cgf_kernel(float(params.alpha), float(params.beta), t)[0]


def chernoff_exponent_numeric(params: BetaParams, eps: float, side: TailSide) -> ChernoffResult:
    """psi*(eps) = sup_{t >= 0} (t eps - psi(t)) for the requested tail.

    The lower tail is the upper tail of 1 - X ~ Beta(beta, alpha), so only one
    optimization path exists. Valid for 0 < eps < support width on the chosen
    side; exp(-exponent) then upper-bounds the exact tail probability. The
    solve is chernoff_exponents' at a single deviation, from its cold first
    guess, and raises as it does; but eps = 0 and eps from the width on,
    where the sweep returns 0 and inf, raise ValueError here.
    """
    if side is TailSide.LOWER:
        return chernoff_exponent_numeric(params.swapped(), eps, TailSide.UPPER)
    a, b = float(params.alpha), float(params.beta)
    width = 1.0 - a / (a + b)
    if not 0.0 < eps < width:
        raise ValueError(f"eps must lie strictly inside (0, {width}) for the upper tail, got {eps}")
    return chernoff_exponents(params, [eps])[0]


def chernoff_exponents(params: BetaParams, epss: Iterable[float]) -> list[ChernoffResult]:
    """Upper-tail psi*(eps) of one shape at each deviation of epss in turn.

    eps = 0 gives ChernoffResult(0.0, 0.0, True), and eps from the support
    width 1 - mu on, mu = alpha / (alpha + beta), exponent and t_star inf.
    A NaN or negative eps raises ValueError.

    Each solve runs bounds._bracketed_newton on the residual eps - psi'(t),
    slope -psi''(t), taking any step from above inside the bracket. The first
    solve starts from the cold guess eps / (v + c eps), each later one at
    _predict_root's prediction from the last tilts of up to three before it,
    one fit per psi' (a new fit replaces an older one with its psi'), either
    capped at the large-t root estimate b / (1 - mu - eps); with no floor, a
    tiny eps starts near its tiny root. It stops once Newton's model of f(t) =
    t eps - psi(t) promises at most half an ulp of f more, (eps - psi')^2 /
    (2 psi'') <= 2^-53 f: the exponent's error is quadratic in eps - psi', so
    it is then exact to rounding. On the paper grids a solve takes about 1.1
    kernel evaluations, and a warm-started exponent is within 1e-15 max(1,
    t*) relative of the cold one, the kernel's psi tolerance.

    converged=False means only that the Newton steps ran out; a NaN psi', a 1F1
    series past the kernel's step cap, or a root whose series peaks at index
    2^53 or past it (eps within about b / 9e15 of the width), raises
    ConvergenceError. exponent is the largest t eps - psi(t) evaluated, at
    least 0, so it is a valid exponent wherever the loop stops, and t_star the
    last t that gave it, so a root whose exponent underflows to 0 still reports
    its tilt.
    """
    a, b = float(params.alpha), float(params.beta)
    width = 1.0 - a / (a + b)
    sg = sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    results = []
    fits = []  # (psi', t, 1 / psi'') at the last tilt of up to three solves, distinct psi'
    fit = None
    for eps in epss:
        if not eps >= 0.0:  # rejects nan too
            raise ValueError(f"eps must be non-negative, got {eps}")
        if eps == 0.0:
            results.append(ChernoffResult(exponent=0.0, t_star=0.0, converged=True))
            continue
        if eps >= width:
            results.append(ChernoffResult(exponent=math.inf, t_star=math.inf, converged=True))
            continue
        cold = eps / (v + c * eps) if v + c * eps > 0 else eps / v
        t = _predict_root(fits, eps, cold) if fits else cold
        # the first guess diverges as eps nears v/|c| when c < 0; past its root psi' nears
        # 1 - mu - b/t, so the root lies near b / (1 - mu - eps) at large t
        t = min(t, b / (width - eps))

        def evaluate(t):
            nonlocal fit  # this solve's last tilt
            psi, slope, curvature, _ = _cgf_kernel(a, b, t)
            fit = slope, t, 1.0 / curvature if curvature > 0.0 else math.inf
            f, gap = t * eps - psi, eps - slope
            return f, gap, -curvature, gap * gap <= 2.0**-52 * curvature * f

        best_f, best_t, _, bracket = _bracketed_newton(
            evaluate, 0.0, t, 1.0, math.inf, "Chernoff exponent", params
        )
        fits = [*(old for old in fits[-2:] if old[0] != fit[0]), fit]
        results.append(ChernoffResult(exponent=best_f, t_star=best_t, converged=bracket is None))
    return results


def _predict_root(fits: list[tuple[float, float, float]], eps: float, cold: float) -> float:
    """First tilt for the solve at eps from fits = [(psi', t, 1 / psi'')] at the
    last tilts of one to three earlier solves, oldest first, or cold.

    Each fit is a point of the inverse map psi' -> t with its slope 1 / psi'',
    and no two share a psi' (chernoff_exponents keeps one fit per psi'). The
    prediction is the polynomial through every point with its slope (Hermite:
    a line for one, a cubic for two, a quintic for three), in Newton form
    about the newest. A prediction that is not positive or passes twice the
    newest t, the solve's own doubling limit, is replaced by the cold first
    guess.
    """
    x1, t1, d1 = fits[-1]
    h = eps - x1
    pred = t1 + d1 * h
    if len(fits) > 1:
        x0, t0, d0 = fits[-2]
        w = x1 - x0
        q = (t1 - t0) / w  # divided differences over the nodes x1, x1, x0, x0(, x2, x2)
        g = (q - d0) / w  # [x1, x0, x0]
        c2 = (d1 - q) / w
        c3 = (c2 - g) / w
        k = eps - x0
        if len(fits) > 2:
            x2, t2, d2 = fits[0]
            u, s = x2 - x0, x2 - x1
            r = (t2 - t0) / u
            m = (r - d0) / u
            n = (m - g) / s  # [x1, x0, x0, x2]
            c4 = (n - c3) / s
            c5 = ((((d2 - r) / u - m) / u - n) / s - c4) / s
            c3 += k * (c4 + (eps - x2) * c5)  # the third node's terms, in Horner form
        pred += h * h * (c2 + k * c3)
    return pred if 0.0 < pred < 2.0 * t1 else cold  # also nan: a psi'' <= 0


def chernoff_exponent_expansion(params: BetaParams, eps: float) -> float:
    """Leading terms of the optimal exponent: eps^2/(2v) (1 - c eps/(3v)).

    psi*(eps) matches this to O(eps^4) as eps -> 0, which certifies (v, c) as
    the best possible pair. A value past the largest double raises OverflowError.
    """
    if not 0.0 <= eps < math.inf:  # rejects nan too
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    sg = sub_gamma_params(params)
    v, c = float(sg.v), float(sg.c)
    value = eps * eps / (2.0 * v) * (1.0 - c * eps / (3.0 * v))
    if not math.isfinite(value):
        raise OverflowError(f"expansion at eps={eps} of {params} exceeds the largest double")
    return value


def cumulant_upper_bound(sg: SubGammaParams, t: float) -> float:
    """Closed-form upper bound on psi(t): -v (c t + log(1 - c t)) / c^2 for c > 0.

    The c <= 0 branch is the gaussian limit v t^2 / 2. Requires t < 1/c when
    c > 0; a short series evaluation takes over for tiny c t where the direct
    expression would cancel.
    """
    if not 0.0 <= t < math.inf:  # rejects nan too
        raise ValueError(f"t must be non-negative and finite, got {t}")
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
    """Maximizer of the relaxed Chernoff objective eps t - cumulant_upper_bound(sg, t).

    eps / (c eps + v) when c > 0, always below 1/c, so the cumulant bound
    stays finite there; eps / v, the gaussian limit's, when c <= 0.
    """
    if not 0.0 <= eps < math.inf:  # rejects nan too
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    v, c = float(sg.v), float(sg.c)
    return eps / (c * eps + v) if c > 0.0 else eps / v
