"""Closed-form tail bounds for Beta(alpha, beta).

The headline bound is the sub-gamma (Bernstein-type) inequality with

    v = Var[X] = alpha beta / ((alpha+beta)^2 (alpha+beta+1))
    c = mu_3 / mu_2 = 2 (beta-alpha) / ((alpha+beta)(alpha+beta+2))

under which the upper tail P{X > E[X] + eps} is at most
exp(-eps^2 / (2(v + c eps / 3))) when beta >= alpha and exp(-eps^2/(2v))
otherwise; lower tails follow by swapping the roles of alpha and beta.
Alongside it: the best sub-gaussian competitor (the variational proxy,
solved from its stationarity condition t psi'(t) = 2 psi(t)), exact tails
for verification, and the log refinement x - log(1+x) <= x^2/(2(1 + x/3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .moments import BetaParams, Scalar
from .specfun import ConvergenceError, _cgf_kernel, regularized_incomplete_beta

_NEWTON_STEPS = 200  # _bracketed_newton's budget, for the proxy and the Chernoff solve alike


class TailSide(Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class SubGammaParams:
    """Variance proxy v and scale c of the sub-gamma tail shape: 0 < v < inf, c finite."""

    v: Scalar
    c: Scalar

    def __post_init__(self):
        if not (0 < self.v < math.inf and -math.inf < self.c < math.inf):  # nan fails too
            raise ValueError(f"need 0 < v < inf and a finite c, got v={self.v}, c={self.c}")


def sub_gamma_params(params: BetaParams) -> SubGammaParams:
    """The optimal (v, c): v is the variance, c the third-to-second moment ratio.

    v = mu_2 and c = mu_3 / mu_2 are the moment recurrence's first two steps
    in its scaled form, with no product of two shapes, so huge and tiny
    float shapes stay in range. A float v that underflows to 0.0 is formed
    again from the doubles' exact values, as the exact pair of them forms it.
    """
    a, b, s = params.alpha, params.beta, params.total
    v = (a / s) * (b / s) / (s + 1)
    if v == 0:
        a, b = Fraction(a), Fraction(b)
        s = a + b
        v = (a / s) * (b / s) / (s + 1)
    c = 2 * ((b - a) / s) / (s + 2)
    return SubGammaParams(v=v, c=c)


def sub_gamma_bound(sg: SubGammaParams, eps: float) -> float:
    """exp(-eps^2 / (2 (v + c eps / 3))), the generic sub-gamma tail value.

    1 at eps = 0 and 0 at eps = inf, the limit, when c >= 0. A denominator
    that is not positive, as for c < 0 at eps >= -3 v / c, raises ValueError.
    A Fraction pair whose float denominator is subnormal or 0 at a finite eps, as
    at exact shapes near the edge of the double range, forms it and the exponent
    exactly.
    """
    if not eps >= 0:  # rejects nan too
        raise ValueError(f"eps must be non-negative, got {eps}")
    if eps == math.inf and sg.c >= 0:  # c * eps / 3 would read inf/inf or 0 * inf
        return 0.0
    denom = float(sg.v) + float(sg.c) * eps / 3.0
    # below the least normal double; an infinite eps has no Fraction and keeps the float path
    if denom < 2.0**-1022 and isinstance(sg.v, Fraction) and eps < math.inf:
        denom = sg.v + sg.c * Fraction(eps) / 3
        if denom > 0:  # exp(-x) is 0.0 from x = 1000 on, where float(x) may overflow
            return math.exp(-float(min(Fraction(eps) ** 2 / (2 * denom), 1000)))
    if denom <= 0.0:
        raise ValueError(
            f"sub-gamma denominator v + c*eps/3 = {denom} is not positive at eps={eps}"
        )
    return math.exp(-eps * eps / (2.0 * denom))


def bernstein_tail_bound(params: BetaParams, eps: float, side: TailSide) -> float:
    """Bernstein-type bound on P{X > E[X]+eps} (UPPER) or P{X < E[X]-eps} (LOWER).

    Upper side: the sub-gamma shape when beta >= alpha, the pure gaussian
    shape exp(-eps^2/(2v)), which is the sub-gamma one with c = 0, when
    beta < alpha. The lower side is the upper side of 1 - X, i.e. the same
    formulas with alpha and beta exchanged.
    """
    if side is TailSide.LOWER:
        return bernstein_tail_bound(params.swapped(), eps, TailSide.UPPER)
    return sub_gamma_bound(bernstein_params(params), eps)


def bernstein_params(params: BetaParams) -> SubGammaParams:
    """The (v, c) of the upper-side Bernstein bound: sub_gamma_params(params)
    when beta >= alpha, c = 0 (the gaussian shape) when beta < alpha."""
    sg = sub_gamma_params(params)
    return sg if params.beta >= params.alpha else SubGammaParams(v=sg.v, c=0)


def exact_tail(params: BetaParams, eps: float, side: TailSide) -> float:
    """Exact tail probability at deviation eps from the mean.

    LOWER is I_{mu-eps}(alpha, beta); UPPER is the lower tail of 1 - X,
    I_{1-mu-eps}(beta, alpha), so no 1 - p cancellation occurs when the tail
    is small. Deviations beyond the support return 0.
    """
    if not eps >= 0:  # rejects nan too
        raise ValueError(f"eps must be non-negative, got {eps}")
    a, b = params.doubles()
    mu = a / (a + b)
    x = mu - eps
    if side is TailSide.UPPER:
        a, b, x = b, a, 1.0 - mu - eps
    return regularized_incomplete_beta(a, b, x) if x > 0.0 else 0.0


def log_upper_bound(x: float) -> float:
    """The quadratic-over-linear refinement x - x^2 / (2 (1 + x/3)).

    At the origin it matches log(1+x) to second order (the gap is
    x^3/6 + O(x^4)); for x > 0 it lies strictly below log(1+x), because the
    gap x -> log(1+x) - value has derivative x^2 (x+9) / (2 (x+1) (x+3)^2) >= 0
    and vanishes at 0. Equivalently x - log(1+x) <= x^2 / (2 (1 + x/3)).

    With x = c eps / v this orientation puts the gamma-type exponent
    (v/c^2)(x - log(1+x)) of the tilt identity below the Bernstein exponent
    eps^2 / (2 (v + c eps/3)), so it is not a step from that exponent to the
    headline bound (Beta(2,98) at eps = 0.098: 3.92 against 5.94, with the
    Chernoff exponent at 6.97). The abstract alone does not say which
    inequality the source paper's proof closes with.
    """
    return x - x * x / (2.0 * (1.0 + x / 3.0))


def subgaussian_optimal_proxy(params: BetaParams) -> float:
    """Best sub-gaussian variance proxy: sup over t != 0 of f(t) = 2 psi(t) / t^2.

    f tends to the variance v as t -> 0 and f'(t) = 2 g(t) / t^3 with
    g(t) = t psi'(t) - 2 psi(t). For alpha != beta the supremum is at the
    unique non-zero root of g (Marchal and Arbel, "On the sub-Gaussianity of
    the Beta and Dirichlet distributions", ECP 22, 2017), at t > 0 when
    beta > alpha and for alpha > beta at that root for 1 - X. Symmetric
    shapes attain it as t -> 0: the proxy is v.

    _bracketed_newton seeks the root of g, with g' = t psi'' - psi' from the
    same kernel evaluation, from t = 4 sqrt(alpha+beta+1), the centered
    series' edge, clear of t near alpha+beta, where the forward pass sums
    tens of thousands of terms. Above the root g falls like a power of t and
    Newton steps shrink t slowly, so there a step at least halves t until a
    tilt below the root is known. The loop stops once Newton's model
    promises f under half an ulp more, g^2 / (|g'| t^3). A near-symmetric
    shape's root nears 0: below it g is about kappa_4 t^4 / 12, so the stop
    fires by t^2 = 2^-52 24 v / |kappa_4|. Over shapes from 1e-3 to 1e5 the
    root stays below 18 (alpha+beta+1). A NaN residual, a step past t = 1e3
    (alpha+beta+1), no root in _NEWTON_STEPS steps or a value 1e-9 over
    Elder's proxy 1/(4 (alpha+beta+1)) (arXiv:1611.00065) raises ConvergenceError.
    """
    v = float(sub_gamma_params(params).v)
    if params.alpha == params.beta:
        return v
    if params.alpha > params.beta:
        params = params.swapped()
    a, b = params.doubles()

    def evaluate(t):
        psi, dpsi, d2psi, g = _cgf_kernel(a, b, t)
        slope = t * d2psi - dpsi  # g', negative near the root
        return 2.0 * psi / (t * t), g, slope, g * g <= 2.0**-52 * -slope * t * psi

    limit = 1e3 * (a + b + 1.0)
    best, _, step, bracket = _bracketed_newton(
        evaluate, v, 4.0 * math.sqrt(a + b + 1.0), 0.5, limit, "sub-gaussian proxy", params
    )
    if bracket is not None:
        raise ConvergenceError(
            f"sub-gaussian proxy root not found for {params} in {_NEWTON_STEPS} steps: "
            f"{list(bracket)}"
        )
    elder = 1.0 / (4.0 * (a + b + 1.0))
    if not best <= elder * (1.0 + 1e-9):
        raise ConvergenceError(
            f"sub-gaussian proxy {best} exceeds Elder's bound {elder} after {step} steps"
        )
    return best


def subgaussian_bound(params: BetaParams, eps: float) -> float:
    """exp(-eps^2 / (2 sigma^2)) with sigma^2 the optimal sub-gaussian proxy.

    Side-independent: the sub-gamma shape at (sigma^2, 0). eps is checked
    before the proxy is solved. For many deviations of one shape, pass
    SubGammaParams(v=proxy, c=0) to sub_gamma_bound: the same bits.
    """
    if not eps >= 0:  # rejects nan too
        raise ValueError(f"eps must be non-negative, got {eps}")
    return sub_gamma_bound(SubGammaParams(v=subgaussian_optimal_proxy(params), c=0), eps)


def _bracketed_newton(evaluate, best, t, cut, limit, name, params):
    """Largest objective evaluated by safeguarded Newton steps toward the root of r from t.

    evaluate(t) gives (objective, r, r', stop): r > 0 below the root, r <= 0 above
    it, stop the caller's half-ulp test. The bracket r(lo) > 0 >= r(hi) starts at
    (0, inf). While hi = inf a step must land in (lo, 2 lo) or t doubles; then one
    leaving the bracket bisects it, and while lo = 0 one must land below cut * hi.
    It stops on stop, r = 0 or a bracket 1e-13 relative wide, and returns (the
    largest objective, at least best, its value at t = 0; the last t giving it, or
    0.0; the steps; None, or the bracket (lo, hi) once _NEWTON_STEPS run out). A
    NaN r, or a next t past limit, raises ConvergenceError.
    """
    lo, hi = 0.0, math.inf
    best_t = 0.0
    for step in range(1, _NEWTON_STEPS + 1):
        value, r, slope, stop = evaluate(t)
        if math.isnan(r):
            raise ConvergenceError(
                f"{name} residual is nan at t={t} for {params} after {step} steps"
            )
        if value >= best:
            best, best_t = value, t
        if r > 0.0:
            lo = t
        else:
            hi = t
        if stop or r == 0.0 or hi - lo <= 1e-13 * lo:
            return best, best_t, step, None
        newton = t - r / slope if slope != 0.0 else math.nan
        if hi == math.inf:
            t = newton if lo < newton < 2.0 * lo else 2.0 * lo
        else:
            t = newton if lo < newton < (hi if lo > 0.0 else cut * hi) else 0.5 * (lo + hi)
        if t > limit:
            raise ConvergenceError(
                f"{name} still rising at t={lo} for {params} after {step} steps: limit t = {limit}"
            )
    return best, best_t, _NEWTON_STEPS, (lo, hi)
