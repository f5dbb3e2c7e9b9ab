"""Scalar special-function kernels.

Everything here is self-contained double precision or exact rational
arithmetic: log-gamma, the regularized incomplete beta function
(continued fraction), the logarithm of the confluent hypergeometric 1F1,
and the terminating Gauss 2F1 over exact rationals.
One kernel sums the 1F1 series, as the CGF of a centered Beta variable and
its derivatives; log_kummer_1f1 shifts it back by t a / c. Its loops, like
the continued fraction, raise at one fixed step cap whatever the tilt.

All kernels are deterministic and hold no shared state.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ConvergenceError(RuntimeError):
    """A series or continued fraction did not meet tolerance within its iteration cap."""


# the incomplete beta's continued fraction stops at a step within _REL_TOL of 1,
# two orders tighter than any tolerance asserted downstream, and raises after
# _MAX_ITER steps; the 1F1 loops raise after _MAX_STEPS, a sample counting as one
_REL_TOL = 1e-12
_MAX_ITER = 10_000
_MAX_STEPS = 2**20


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (the C library's lgamma); ValueError past the largest double."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError(f"log_gamma({x}) passes the largest double") from None


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration.

    Rapidly convergent for x < (a+1)/(a+b+2); callers are responsible for
    routing the complementary range through the symmetry identity.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for numer in (even, odd):
            d = 1.0 + numer * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numer / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < _REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x} "
        f"after {_MAX_ITER} iterations"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x.

    A continued fraction in its fast regime, on (b, a, 1 - x) through I_x(a,b) =
    1 - I_{1-x}(b,a) from x = (a+1)/(a+b+2) on; clamped to [0, 1], where I lies, as
    a shape below 1e-3 can read 2e-13 past an end. Raises ConvergenceError rather
    than a silently inaccurate value, and ValueError for a shape not positive and finite
    or a + b from 2.56e305 on, where the prefactor's log-gamma passes the double range.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):  # nan fails too
        raise ValueError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    flipped = x >= (a + 1.0) / (a + b + 2.0)
    if flipped:
        a, b, x = b, a, 1.0 - x
    log_prefactor = (
        a * math.log(x)
        + b * math.log1p(-x)
        + log_gamma(a + b)
        - log_gamma(a)
        - log_gamma(b)
    )
    value = math.exp(log_prefactor) * _beta_cont_frac(a, b, x) / a
    p = 1.0 - value if flipped else value
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def _centered_series(a: float, b: float, t: float) -> tuple[float, float, float]:
    """Series for phi(t) - 1, t phi'(t) - 2 (phi(t) - 1) and t^2 phi''(t).

    phi is the centered MGF of Beta(a, b). Works termwise on M_d = m_d t^d,
    which the order-2 recurrence for the normalized central moments m_d
    produces without under- or overflow even when m_d alone would underflow:

        d (s+d-1) M_d = (d-1) k1 M_{d-1} + k2 M_{d-2},  k1 = (b-a) t / s,  k2 = (a/s)(b/s) t^2

    phi - 1 = sum_{d>=2} M_d keeps full relative precision near t = 0, and
    sum_{d>=3} (d-2) M_d keeps it where t phi' and 2 (phi - 1) agree to O(t^2);
    t^2 phi'' = sum_{d>=2} d (d-1) M_d. Past order D each factor (|k1| (d-1) +
    |k2|) / (d (s+d-1)) is at most r = (|k1| + |k2| / (D+1)) / (s+D); once r < 1,
    |M_{D+i}| <= max(|M_D|, |M_{D-1}|) r^ceil(i/2). The sum stops at the first
    multiple of 8 where the tail sum_{d>D} d^2 |M_d| this bounds is below
    2^-54 of all three sums.
    """
    s = a + b
    coeff1 = (b - a) / s * t
    coeff2 = (a / s) * (b / s) * t * t
    bound1, bound2 = abs(coeff1), abs(coeff2)
    m_prev2, m_prev1 = 1.0, 0.0
    sigma = excess = curvature = 0.0
    d = 1
    while True:
        d += 1
        m_d = ((d - 1) * coeff1 * m_prev1 + coeff2 * m_prev2) / (d * (s + d - 1.0))
        sigma += m_d
        excess += (d - 2) * m_d
        curvature += d * (d - 1) * m_d
        m_prev2, m_prev1 = m_prev1, m_d
        if d % 8 == 0:  # every 8th order, where the check costs little
            r = (bound1 + bound2 / (d + 1.0)) / (s + d)
            tail = max(abs(m_d), abs(m_prev2)) * (d + 2.0) ** 2 * r * (1.0 + r)
            if r < 1.0 and 2.0**55 * tail <= (1.0 - r) ** 3 * min(sigma, abs(excess), curvature):
                return sigma, excess, curvature


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# 1F1 series whose largest term comes before _WINDOW_PEAK are summed from k = 0;
# from _SAMPLE_PEAK on, where stepping term by term costs more, the walk samples
_WINDOW_PEAK = 10
_SAMPLE_PEAK = 100


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


def _log_term_ratio(big_a, big_s, big_k, t, j, omega_base) -> float:
    """log term_{k+j} / term_k for term_k = (a)_k t^k / ((s)_k k!), A = a + k, S = s + k, K = k + 1.

    Stirling differences in log1p form, as `algdiv` in TOMS 708: log Gamma(x + j)
    / Gamma(x) = (x - 1/2) log1p(j/x) + j log(x + j) - j + omega(x + j) - omega(x)
    for x = A, S and K, whose j log(x + j) - j parts join in j + j log1p(((A+j) t
    - (S+j)(K+j)) / ((S+j)(K+j))); omega_base = omega(S) + omega(K) - omega(A).
    Every piece is at most of the order of j, so the result is within a few
    roundings of j, where a difference of log-gammas of size (s + k) log(s + k)
    would not be.
    """
    x, y, z = big_a + j, big_s + j, big_k + j
    omega = _stirling_remainder
    return (
        (big_a - 0.5) * math.log1p(j / big_a) + omega(x)
        - (big_s - 0.5) * math.log1p(j / big_s) - omega(y)
        - (big_k - 0.5) * math.log1p(j / big_k) - omega(z)
        + j * math.log1p((x * t - y * z) / (y * z)) + j + omega_base
    )


def _cgf_kernel(a: float, b: float, t: float) -> tuple[float, float, float, float]:
    """psi(t), psi'(t), psi''(t) and g(t) = t psi'(t) - 2 psi(t) at any finite t.

    psi is the CGF of X - E[X] for X ~ Beta(a, b), so log 1F1(a; a+b; t) =
    psi(t) + t a / (a+b). A negative t is the tilt -t of 1 - X ~ Beta(b, a)
    (the Kummer transform), with psi' negated; t = 0 and -0.0 take the
    leading order, psi = 0.0. While t^2 <= 16 (s+1), s = a + b, where psi <= 2
    (Elder), the centered series serves: -t mu + log 1F1 would cancel
    there, and with phi = 1 + sigma and e = t phi' - 2 sigma, g = e / phi +
    2 (sigma / phi - log1p(sigma)) stays exact as t psi' and 2 psi merge.

    Beyond, 1F1(a; s; t) sums term_k = (a)_k t^k / ((s)_k k!), largest at
    k0, the floor of the larger root of k^2 + (s-1-t) k - (a-1) t. Below
    k0 = 10 one forward pass sums from k = 0, with t F'/F = E[k] and
    t^2 psi'' = Var[k] - E[k] under the weights term_k. From there on one
    loop walks out from term_k0 = 1 by the exact term ratio, each side until
    its geometric tail bound is below 1e-17 of the total (Pearson, Olver and
    Porter, Numer. Algorithms 74, 2017). From k0 = 100 on, while k0 term_0 /
    term_k0 < e^-50, it steps h = floor(sigma / 2) over the smooth,
    log-concave bell of terms, sigma^2 = 1 / (1/(k0+1) + 1/(s+k0) - 1/(a+k0)),
    weighting samples by _log_term_ratio: that trapezoid rule is off by about
    exp(-2 pi^2 sigma^2 / h^2) < 1e-34 (Trefethen and Weideman, SIAM Review
    56(3), 2014), and about 40 samples serve at any t. As X | k ~ Beta(a + k,
    b) under the weights, with u = 1 / (s + k) the walk takes psi' = (b/s)
    E[k u] and psi'' = E[(a+k) b u^2 / (s+k+1)] + b^2 Var[u], Var[u] about
    1 / (s + k0): sums of parts that do not cancel. The forward pass and each
    side of the walk raise ConvergenceError after _MAX_STEPS = 2^20 steps, a
    sample counting as one; so does a peak index k0 at or past 2^53, where
    k += 1 no longer moves a double, and a walk whose psi is not finite, its
    sums past the double range.

    Tolerance against mpmath's 1F1 at 50 digits on 2,989 random points
    (shapes 1e-3 to 1e4, t from 1e-2 to 3e4): psi is within 6e-16 t. On the
    series and the walk psi' is within 7e-15 and psi'' within 6e-14
    relative at any shape ratio, down to alpha = 1e-3 (300 seeded walk points,
    alpha from 1e-3 to 1: psi 4.2e-16 t, psi' 3.4e-15). The forward pass,
    where t psi' = E[k] - t a / s, loses digits as the shape ratio grows:
    psi' is within 3e-13 while the larger shape is under 1e3 times the
    smaller and 4e-11 beyond, psi'' within 5e-11 and 4e-10.
    """
    if t < 0.0:
        psi, dpsi, d2psi, g = _cgf_kernel(b, a, -t)
        return psi, -dpsi, d2psi, g
    s = a + b
    if not 16.0 * (s + 1.0) < math.inf:  # else every tilt passes the series test below
        raise ConvergenceError(f"the Beta({a}, {b}) CGF needs a + b below 2**1020")
    if t < 2.0**-200:
        # t * t in the series would underflow: the leading order (g cancels at it), as
        # |k1| <= t and k2 <= t^2 / 4 leave every later term under 2^-200 of v t^2 / 2
        v = (a / s) * (b / s) / (s + 1.0)
        return v * t * t / 2.0, v * t, v, 0.0
    if t * t <= 16.0 * (s + 1.0):
        sigma, excess, curvature = _centered_series(a, b, t)
        phi = 1.0 + sigma
        psi = math.log1p(sigma)
        t_dpsi = (2.0 * sigma + excess) / phi
        g = excess / phi + 2.0 * (sigma / phi - psi)
        return psi, t_dpsi / t, (curvature / phi - t_dpsi * t_dpsi) / (t * t), g
    p = t + 1.0 - s
    disc = p * p + 4.0 * (a - 1.0) * t
    if disc < 0.0:
        root = 0.0
    elif p >= 0.0:  # the larger root, without cancellation
        root = 0.5 * (p + math.sqrt(disc))
    else:
        root = 2.0 * (a - 1.0) * t / (math.sqrt(disc) - p)
    if not root < 2.0**53:  # nan too, where p * p or (a - 1) t passed the double range
        peak = f"peaks at k0={root:.6g} >= 2**53" if math.isfinite(root) else (
            "has a peak index k0 whose estimate passes the double range"
        )
        raise ConvergenceError(f"1F1 series for the Beta({a}, {b}) CGF at t={t} {peak}")
    k0 = max(0, math.floor(root))
    if k0 < _WINDOW_PEAK:  # then t < (10 s + 90) / (a + 9): terms stay below 1e15
        term, total, first, second = 1.0, 1.0, 0.0, 0.0
        ratio = a * t / s  # term_{k+1} / term_k at k = 0
        k = 0.0  # a float counter: the sums below take k as a float anyway
        for _ in range(_MAX_STEPS):
            k += 1.0
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
            f"1F1 series for the Beta({a}, {b}) CGF did not converge at t={t} "
            f"in {_MAX_STEPS} steps"
        )
    omega = _stirling_remainder
    log_peak = _log_term_ratio(a, s, 1.0, t, k0, omega(s) + omega(1.0) - omega(a))  # term_0 = 1
    peak = float(k0)
    big_a, big_s, big_k = a + peak, s + peak, peak + 1.0
    inv_var = 1.0 / big_k + 1.0 / big_s - 1.0 / big_a  # 1 / sigma^2
    h = 1
    if k0 >= _SAMPLE_PEAK and inv_var > 0.0 and math.log(peak) - log_peak < -50.0:
        h = max(1, math.floor(0.5 / math.sqrt(inv_var)))
        omega_peak = omega(big_s) + omega(big_k) - omega(big_a)
    # sums over k of term_k / term_k0 times 1, j u, (j u)^2 and (a + k) u^2 v,
    # with j = k - k0, u = 1 / (s + k) and v = 1 / (s + k + 1); the peak first
    u0, v0 = 1.0 / big_s, 1.0 / (big_s + 1.0)
    total, first, second, within = 1.0, 0.0, 0.0, big_a * u0 * u0 * v0
    ratio_cap, head = s / (a * t), math.exp(-log_peak)  # term_0 / term_1, term_0 / term_k0
    for step in (float(h), float(-h)):
        # log term_{i+1} / term_i is concave in i, so below k each term_{i-1} / term_i is at
        # most max(ratio, s / (a t)), and those terms sum to at most k max(term_{k-1}, term_0)
        cap = ratio_cap if step == -1.0 else 0.0
        term, k, u, v = 1.0, peak, u0, v0
        for _ in range(_MAX_STEPS):
            if h == 1 and step > 0.0:
                ratio = (a + k) * t * u / (k + 1.0)
                u, v = v, 1.0 / (s + k + 2.0)
            elif h == 1 and k > 0.0:
                u, v = 1.0 / (s + (k - 1.0)), u  # k - 1 first: s + k would round a tiny s
                ratio = k / ((a + (k - 1.0)) * t * u)
            elif h > 1 and k + step >= 0.0:
                j = k + step - peak
                ratio = math.exp(_log_term_ratio(big_a, big_s, big_k, t, j, omega_peak)) / term
                u, v = 1.0 / (s + k + step), 1.0 / (s + k + step + 1.0)
            else:
                break
            bound = ratio if ratio > cap else cap
            if bound < 1.0:
                if term * bound <= 1e-17 * total * (1.0 - bound):
                    break
            elif k * max(term * ratio, head) <= 1e-17 * total:
                break
            term *= ratio
            k += step
            y = (k - peak) * u
            moment = term * y
            total += term
            first += moment
            second += moment * y
            within += term * (a + k) * u * u * v
        else:
            raise ConvergenceError(
                f"1F1 series for the Beta({a}, {b}) CGF did not converge at t={t} "
                f"in {_MAX_STEPS} steps on one side of its peak k0={k0}"
            )
    mean_shift, spread = first / total, second / total  # E[j u], E[(j u)^2]
    psi = math.log(h * total) + (log_peak - t + t * b / s)  # t a / s = t - t b / s
    if not math.isfinite(psi):  # the sums passed the double range, as at alpha = 1e-310
        raise ConvergenceError(
            f"1F1 series for the Beta({a}, {b}) CGF at t={t} passes the double range "
            f"about its peak k0={k0}"
        )
    dpsi = b / s * (peak + s * mean_shift) * u0  # E[k u] = (k0 + s E[j u]) / (s + k0)
    d2psi = b * within / total + (b * u0) ** 2 * (spread - mean_shift * mean_shift)
    return psi, dpsi, d2psi, t * dpsi - 2.0 * psi


def log_kummer_1f1(a: float, c: float, t: float) -> float:
    """log(1F1(a; c; t)) for 0 < a <= c, stable far beyond double overflow.

    exp(-t a / c) 1F1(a; c; t) is the MGF of X - E[X] for X ~ Beta(a, c - a),
    so this is psi(t) + t a / c with psi that CGF, which the kernel evaluates
    at any finite t (0.0 at t = 0). It makes cgf's one kernel call, so the
    two agree wherever either returns, and raises ConvergenceError where cgf
    does. Any other a or c, or a non-finite t, raises ValueError.
    """
    if not (0.0 < a <= c < math.inf and math.isfinite(t)):
        raise ValueError(f"1F1 needs 0 < a <= c and finite a, c, t, got a={a}, c={c}, t={t}")
    if c == a:
        return t
    return _cgf_kernel(a, c - a, t)[0] + t * a / c


def gauss_2f1_terminating(a, d: int, c, z) -> Fraction:
    """Exact rational 2F1(a, -d; c; z) = sum_{k=0}^{d} (a)_k (-d)_k / ((c)_k k!) z^k.

    The series terminates because the second upper parameter is the negative
    integer -d. Raises ZeroDivisionError when (c)_k vanishes for some k <= d.
    """
    if d < 0:
        raise ValueError(f"termination order must be non-negative, got {d}")
    a = Fraction(a)
    c = Fraction(c)
    z = Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(d):
        if c + k == 0:
            raise ZeroDivisionError(
                f"(c)_k vanishes at k={k + 1} for c={c}; 2F1 undefined"
            )
        term *= (a + k) * (-d + k) * z / ((c + k) * (k + 1))
        total += term
    return total
