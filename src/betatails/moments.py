"""Central moments of the Beta distribution.

The workhorse is an order-2 recurrence with coefficients linear in the moment
order, evaluated in exact rational arithmetic:

    (alpha+beta)^2 (alpha+beta+d-1) mu_d
        = (d-1)(beta-alpha)(alpha+beta) mu_{d-1} + (d-1) alpha beta mu_{d-2}

Two independent routes to the same numbers (binomial expansion over raw
moments, and a terminating 2F1 representation) are provided purely for
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .specfun import ConvergenceError, EvalConfig, gauss_2f1_terminating, log_gamma, pochhammer

Scalar = Fraction | float

# Numerators of exact moments grow without bound in the order; cap the table
# size so a typo cannot exhaust memory.
MAX_MOMENT_ORDER = 10_000


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (alpha, beta) of a Beta distribution.

    Carry Fractions (or ints) for the exact path; floats select the
    double-precision path and forfeit the exact-equality guarantees.
    """

    alpha: Scalar
    beta: Scalar

    def __post_init__(self):
        if isinstance(self.alpha, int):
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        if isinstance(self.beta, int):
            object.__setattr__(self, "beta", Fraction(self.beta))
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):  # nan fails too
            raise ValueError(
                f"shape parameters must be positive and finite, got {self.alpha}, {self.beta}"
            )

    @property
    def is_exact(self) -> bool:
        return isinstance(self.alpha, Fraction) and isinstance(self.beta, Fraction)

    @property
    def total(self) -> Scalar:
        return self.alpha + self.beta

    def mean(self) -> Scalar:
        return self.alpha / self.total

    def swapped(self) -> "BetaParams":
        """Parameters of 1 - X, which is Beta(beta, alpha)."""
        return BetaParams(self.beta, self.alpha)


@dataclass(frozen=True)
class MomentTable:
    """Central moments mu_d and normalized moments m_d = mu_d / d! for d = 0..dmax.

    Built once by central_moments_recursive and immutable afterwards, so a
    table can be shared freely across threads.
    """

    params: BetaParams
    central: tuple[Scalar, ...]
    normalized: tuple[Scalar, ...]

    def __len__(self) -> int:
        return len(self.central)

    def central_moment(self, d: int) -> Scalar:
        return self.central[d]

    def normalized_moment(self, d: int) -> Scalar:
        return self.normalized[d]


def raw_moment(params: BetaParams, d: int) -> Scalar:
    """E[X^d] = (alpha)_d / (alpha+beta)_d."""
    if d < 0:
        raise ValueError(f"moment order must be non-negative, got {d}")
    return pochhammer(params.alpha, d) / pochhammer(params.total, d)


def recursion_coefficients(params: BetaParams, d: int) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (p, q, r) with p(d) mu_d = q(d) mu_{d-1} + r(d) mu_{d-2}.

    Each is degree <= 1 in d, which is what makes the moment sequence
    P-recursive of order 2.
    """
    s = params.total
    p = s * s * (s + d - 1)
    q = (d - 1) * (params.beta - params.alpha) * s
    r = (d - 1) * params.alpha * params.beta
    return p, q, r


def central_moments_recursive(params: BetaParams, dmax: int) -> MomentTable:
    """Central moments mu_0..mu_dmax via the order-2 recurrence, one pass, O(dmax).

    Exact rationals when params are exact; plain double arithmetic otherwise
    (the recurrence is numerically benign: positive denominators, coefficient
    magnitudes below 1).
    """
    if dmax < 0:
        raise ValueError(f"dmax must be non-negative, got {dmax}")
    if dmax > MAX_MOMENT_ORDER:
        raise ValueError(
            f"dmax={dmax} exceeds the supported maximum of {MAX_MOMENT_ORDER}"
        )
    exact = params.is_exact
    one: Scalar = Fraction(1) if exact else 1.0
    zero: Scalar = Fraction(0) if exact else 0.0
    central = [one, zero]
    for d in range(2, dmax + 1):
        p, q, r = recursion_coefficients(params, d)
        central.append((q * central[d - 1] + r * central[d - 2]) / p)
    central = central[: dmax + 1]

    if exact:
        normalized = [mu / math.factorial(d) for d, mu in enumerate(central)]
    else:
        # float path: d! overflows past d=170, so run the scaled recurrence
        # d (s+d-1) m_d = ((d-1)(b-a)/s) m_{d-1} + (a b / s^2) m_{d-2} instead
        a, b = float(params.alpha), float(params.beta)
        s = a + b
        normalized = [1.0, 0.0]
        for d in range(2, dmax + 1):
            m = (
                (d - 1) * (b - a) / s * normalized[d - 1]
                + a * b / (s * s) * normalized[d - 2]
            ) / (d * (s + d - 1))
            normalized.append(m)
        normalized = normalized[: dmax + 1]

    return MomentTable(params=params, central=tuple(central), normalized=tuple(normalized))


def _centered_series(params: BetaParams, t: float, terms: int) -> tuple[float, float, float]:
    """Truncated series for phi(t) - 1, t phi'(t) - 2 (phi(t) - 1) and t^2 phi''(t).

    phi is the centered MGF. Works termwise on M_d = m_d t^d, which the
    order-2 recurrence produces without under- or overflow even when m_d
    alone would underflow:

        d (s+d-1) M_d = ((d-1)(b-a)/s) t M_{d-1} + (a b / s^2) t^2 M_{d-2}

    phi - 1 = sum_{d>=2} M_d keeps full relative precision near t = 0, and
    sum_{d>=3} (d-2) M_d keeps it where t phi' and 2 (phi - 1) agree to O(t^2);
    t^2 phi'' = sum_{d>=2} d (d-1) M_d.
    """
    a, b = float(params.alpha), float(params.beta)
    s = a + b
    coeff1 = (b - a) / s * t
    coeff2 = a * b / (s * s) * t * t
    m_prev2, m_prev1 = 1.0, 0.0
    sigma = excess = curvature = 0.0
    for d in range(2, terms + 1):
        m_d = ((d - 1) * coeff1 * m_prev1 + coeff2 * m_prev2) / (d * (s + d - 1.0))
        sigma += m_d
        excess += (d - 2) * m_d
        curvature += d * (d - 1) * m_d
        m_prev2, m_prev1 = m_prev1, m_d
    return sigma, excess, curvature


def _series_length(t: float) -> int:
    # e*|t| terms reach the decay regime; the margin drives the remainder to ~0
    return max(40, int(2.8 * abs(t)) + 60)


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# 1F1 series whose largest term comes before this index are summed from k = 0
_WINDOW_PEAK = 10


def _stirling_remainder(x: float) -> float:
    """omega(x) = log Gamma(x) - (x - 1/2) log x + x - log sqrt(2 pi) for x > 0.

    For x >= 10 the Stirling series sum_n B_2n / (2n (2n-1) x^(2n-1)) to
    n = 7, whose first term left out is below 3e-17 (as `bcorr` in TOMS 708,
    DiDonato and Morris, ACM TOMS 18(3), 1992); below, log_gamma less the
    leading terms.
    """
    if x < 10.0:
        return log_gamma(x) - (x - 0.5) * math.log(x) + x - _HALF_LOG_TWO_PI
    w = 1.0 / (x * x)
    return (
        1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
            1 / 1188 + w * (-691 / 360360 + w / 156)))))
    ) / x


def _log_peak_less_mean(a: float, b: float, t: float, k0: int) -> float:
    """log term_k0 - t a / s for term_k = (a)_k t^k / ((s)_k k!), s = a + b.

    Stirling differences in log1p form, as `algdiv` in TOMS 708, with
    A = a + k0, S = s + k0 and A s / (a S) = 1 + k0 b / (a S):

        log (a)_k0 / (s)_k0 = (a - 1/2) log(A s / (a S)) + k0 log(A/S)
            - b log(S/s) + omega(A) - omega(a) - omega(S) + omega(s)
        k0 log t - log k0! = -(k0 + 1/2) log((k0+1)/t) + k0 + 1
            - log sqrt(2 pi t) - omega(k0 + 1)

    Every piece is at most of the order of t or b log(S/s), so the result
    is within a few roundings of t, where a difference of log-gammas of
    size (s + k0) log(s + k0) would not be.
    """
    s = a + b
    big_a, big_s = a + k0, s + k0
    return (
        (a - 0.5) * math.log1p(k0 * b / (a * big_s))
        + k0 * math.log1p(-b / big_s)
        - b * math.log1p(k0 / s)
        + _stirling_remainder(big_a)
        - _stirling_remainder(a)
        - _stirling_remainder(big_s)
        + _stirling_remainder(s)
        - (k0 + 0.5) * math.log1p((k0 + 1.0 - t) / t)
        + (k0 + 1.0 - t)
        + t * b / s  # k0 + 1 - t a / s, without the cancellation
        - 0.5 * math.log(2.0 * math.pi * t)
        - _stirling_remainder(k0 + 1.0)
    )


def _cgf_kernel(
    params: BetaParams, t: float, cfg: EvalConfig
) -> tuple[float, float, float, float]:
    """psi(t), psi'(t), psi''(t) and g(t) = t psi'(t) - 2 psi(t) for t > 0.

    psi is the CGF of X - E[X]. While t^2 <= 16 (s+1), where psi <= 2
    (Elder), the centered series serves: -t mu + log 1F1 would cancel
    there, and with phi = 1 + sigma and e = t phi' - 2 sigma, g = e / phi +
    2 (sigma / phi - log1p(sigma)) stays exact as t psi' and 2 psi merge.

    Beyond, the positive series 1F1(alpha; s; t) = sum_k term_k gives
    log 1F1, t F'/F = E[k] and t^2 psi'' = Var[k] - E[k] under the weights
    term_k. term_k >= term_{k-1} exactly while k^2 + (s-1-t) k - (alpha-1) t
    <= 0, so the largest term is term_k0 with k0 the floor of the larger
    root. Below k0 = 10 one forward pass sums from k = 0. From there on the
    sum runs outward from term_k0 = 1, each side until its geometric tail
    bound is below 1e-17 of the total, about 18 sqrt(k0) terms (Pearson,
    Olver and Porter, Numer. Algorithms 74, 2017). Moments are taken about
    k0, so Var[k] does not cancel on E[k^2] - E[k]^2, and log term_k0 is
    added back once.
    """
    a, b = float(params.alpha), float(params.beta)
    s = a + b
    if t * t <= 16.0 * (s + 1.0):
        sigma, excess, curvature = _centered_series(params, t, _series_length(t))
        phi = 1.0 + sigma
        psi = math.log1p(sigma)
        t_dpsi = (2.0 * sigma + excess) / phi
        g = excess / phi + 2.0 * (sigma / phi - psi)
        return psi, t_dpsi / t, (curvature / phi - t_dpsi * t_dpsi) / (t * t), g
    budget = max(cfg.max_iter, int(4 * t) + 2000)
    p = t + 1.0 - s
    disc = p * p + 4.0 * (a - 1.0) * t
    if disc < 0.0:
        root = 0.0
    elif p >= 0.0:  # the larger root, without cancellation
        root = 0.5 * (p + math.sqrt(disc))
    else:
        root = 2.0 * (a - 1.0) * t / (math.sqrt(disc) - p)
    k0 = max(0, math.floor(root))
    if k0 < _WINDOW_PEAK:  # then t < (10 s + 90) / (alpha + 9): terms stay below 1e15
        term, total, first, second = 1.0, 1.0, 0.0, 0.0
        ratio = a * t / s  # term_{k+1} / term_k at k = 0
        for k in range(1, budget):
            term *= ratio
            total += term
            first += k * term
            second += k * k * term
            ratio = (a + k) * t / ((s + k) * (k + 1.0))
            if ratio < 1.0 and term * ratio <= 1e-16 * total * (1.0 - ratio):
                psi = math.log(total) - t * a / s
                mean = first / total  # t F' / F
                t_dpsi = mean - t * a / s
                t2_d2psi = second / total - mean - mean * mean
                return psi, t_dpsi / t, t2_d2psi / (t * t), t_dpsi - 2.0 * psi
        raise ConvergenceError(
            f"1F1 series for the CGF did not converge for {params}, t={t} in {budget} terms"
        )
    log_peak_less_mean = _log_peak_less_mean(a, b, t, k0)
    # sums of term_k, j term_k and j^2 term_k with j = k - k0 and term_k0 = 1;
    # total and second carry their rounding errors (Kahan), because
    # t^2 psi'' = Var[k] - E[k] can cancel to a small fraction of E[k]
    total, first, second, total_err, second_err = 1.0, 0.0, 0.0, 0.0, 0.0
    term, k, j = 1.0, float(k0), 0.0
    for _ in range(budget):  # above k0 the ratios are below 1 and falling
        ratio = (a + k) * t / ((s + k) * (k + 1.0))
        if term * ratio <= 1e-17 * total * (1.0 - ratio):
            break
        term *= ratio
        k += 1.0
        j += 1.0
        moment = j * term
        first += moment
        summed = total + term
        total_err += term - (summed - total)
        total = summed
        moment *= j
        summed = second + moment
        second_err += moment - (summed - second)
        second = summed
    else:
        raise ConvergenceError(
            f"1F1 series for the CGF did not converge for {params}, t={t} "
            f"in {budget} terms above its peak k0={k0}"
        )
    # log term_{i+1} / term_i is concave in i, so below k every ratio
    # term_{i-1} / term_i is at most the larger of the current one and
    # s / (alpha t), and the terms fall, then may rise again toward term_0:
    # their sum is at most k max(term_{k-1}, term_0)
    ratio_cap = s / (a * t)
    head = math.exp(-(log_peak_less_mean + t * a / s))  # term_0 / term_k0
    term, k, j = 1.0, float(k0), 0.0
    while k > 0.0:
        ratio = k * (s + k - 1.0) / ((a + k - 1.0) * t)  # term_{k-1} / term_k
        bound = ratio if ratio > ratio_cap else ratio_cap
        if bound < 1.0:
            if term * bound <= 1e-17 * total * (1.0 - bound):
                break
        elif k * max(term * ratio, head) <= 1e-17 * total:
            break
        term *= ratio
        k -= 1.0
        j -= 1.0
        moment = j * term
        first += moment
        summed = total + term
        total_err += term - (summed - total)
        total = summed
        moment *= j
        summed = second + moment
        second_err += moment - (summed - second)
        second = summed
    total += total_err
    second += second_err
    psi = math.log(total) + log_peak_less_mean
    offset = first / total  # E[k] - k0
    t_dpsi = (k0 - t) + t * b / s + offset
    t2_d2psi = second / total - offset * offset - (k0 + offset)
    return psi, t_dpsi / t, t2_d2psi / (t * t), t_dpsi - 2.0 * psi


def central_moment_binomial_oracle(params: BetaParams, d: int) -> Scalar:
    """E[(X - E[X])^d] by brute-force binomial expansion over raw moments.

    Independent of the recurrence; used to cross-check it.
    """
    if d < 0:
        raise ValueError(f"moment order must be non-negative, got {d}")
    mu = params.mean()
    total = Fraction(0) if params.is_exact else 0.0
    for k in range(d + 1):
        sign = -1 if (d - k) % 2 else 1
        total += sign * math.comb(d, k) * raw_moment(params, k) * mu ** (d - k)
    return total


def central_moment_hypergeom_oracle(params: BetaParams, d: int) -> Fraction:
    """E[(X - E[X])^d] = (-alpha/(alpha+beta))^d 2F1(alpha, -d; alpha+beta; (alpha+beta)/alpha).

    Exact rational path only; a second independent cross-check of the
    recurrence.
    """
    if not params.is_exact:
        raise ValueError("hypergeometric oracle requires exact rational parameters")
    if d < 0:
        raise ValueError(f"moment order must be non-negative, got {d}")
    mu = Fraction(params.alpha) / Fraction(params.total)
    hyp = gauss_2f1_terminating(params.alpha, d, params.total, 1 / mu)
    return (-mu) ** d * hyp


def standardized_moment(params: BetaParams, d: int) -> float:
    """mu_d / mu_2^(d/2) as a double (skewness at d=3, kurtosis at d=4, ...)."""
    if d < 2:
        raise ValueError(f"standardized moments need d >= 2, got {d}")
    table = central_moments_recursive(params, d)
    return float(table.central[d]) / float(table.central[2]) ** (d / 2)
