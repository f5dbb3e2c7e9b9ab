"""Every mpmath reference the tests use, stated once and evaluated at DPS digits.

Values keep those digits (the proxy's are floats), so a test rounds or compares
them as it would a value computed in place. None calls the library.
"""

import mpmath
from mpmath import mpf

DPS = 50


def log_gamma(x):
    with mpmath.workdps(DPS):
        return mpmath.loggamma(x)


def hyp1f1(a, c, t):
    with mpmath.workdps(DPS):
        return mpmath.hyp1f1(a, c, t, maxterms=10**6)


def log_hyp1f1(a, c, t):
    with mpmath.workdps(DPS):
        return mpmath.log(hyp1f1(a, c, t))


def cgf(alpha, beta, t):
    """psi(t) = log 1F1(alpha; s; t) - t alpha / s, s = alpha + beta."""
    with mpmath.workdps(DPS):
        a, s, t = mpf(alpha), mpf(alpha) + mpf(beta), mpf(t)
        return log_hyp1f1(a, s, t) - t * a / s


def cgf_derivatives(alpha, beta, t):
    """(psi, psi', psi'') from F = 1F1(alpha; s; t) and its derivatives F1 and F2."""
    with mpmath.workdps(DPS):
        a, s, t = mpf(alpha), mpf(alpha) + mpf(beta), mpf(t)
        f = hyp1f1(a, s, t)
        f1 = a / s * hyp1f1(a + 1, s + 1, t)
        f2 = a * (a + 1) / (s * (s + 1)) * hyp1f1(a + 2, s + 2, t)
        return mpmath.log(f) - t * a / s, f1 / f - a / s, f2 / f - (f1 / f) ** 2


def _slope(a, s, t):  # psi'(t), from the ratio of two 1F1
    return a / s * hyp1f1(a + 1, s + 1, t) / hyp1f1(a, s, t) - a / s


def chernoff_exponent(alpha, beta, eps):
    """psi*(eps) = t eps - psi(t) at the root of psi'(t) = eps, bracketed by doubling
    t from 1 and polished by mpmath's own solver."""
    with mpmath.workdps(DPS):
        a, s, eps = mpf(alpha), mpf(alpha) + mpf(beta), mpf(eps)
        lo, hi = mpf(0), mpf(1)
        while _slope(a, s, hi) < eps:
            lo, hi = hi, 2 * hi
        root = mpmath.findroot(lambda t: _slope(a, s, t) - eps, (lo, hi), solver="anderson")
        return root * eps - cgf(alpha, beta, root)


def subgaussian_proxy(alpha, beta):
    """sup_t 2 psi(t) / t^2 and the ratio at the mirror tilt -t, as floats.

    f = 2 psi / t^2 rises in |t| while t psi' - 2 psi > 0; its root is bracketed
    by doubling |t| on the side of the skew and polished by mpmath's own solver.
    """
    with mpmath.workdps(DPS):
        a, s = mpf(alpha), mpf(alpha) + mpf(beta)
        residual = lambda t: t * _slope(a, s, t) - 2 * cgf(alpha, beta, t)
        inner = outer = mpf(1 if beta > alpha else -1)
        while residual(outer) > 0:
            inner, outer = outer, 2 * outer
        while residual(inner) < 0:
            inner = inner / 2
        root = mpmath.findroot(residual, (inner, outer), solver="anderson")
        return tuple(float(2 * cgf(alpha, beta, t) / root**2) for t in (root, -root))


def beta_quadrature(a, b, x=1, t=0):
    """E[exp(t X); X < x] for X ~ Beta(a, b) by tanh-sinh quadrature of the density
    kernel: I_x(a, b) at t = 0, and 1F1(a; a+b; t) at x = 1."""
    with mpmath.workdps(DPS):
        kernel = lambda u: u ** (mpf(a) - 1) * (1 - u) ** (mpf(b) - 1)
        weighted = lambda u: mpmath.exp(mpf(t) * u) * kernel(u)
        return mpmath.quad(weighted, [0, mpf(x)]) / mpmath.quad(kernel, [0, 1])


def bernstein_bound(alpha, beta, eps):
    """exp(-eps^2 / (2 (v + c eps / 3))) with v and c from the moments' closed forms."""
    with mpmath.workdps(DPS):
        a, b, eps = mpf(alpha), mpf(beta), mpf(eps)
        s = a + b
        c = 2 * (b - a) / (s * (s + 2)) if b >= a else 0
        return mpmath.exp(-eps**2 / (2 * (a * b / (s**2 * (s + 1)) + c * eps / 3)))


def raw_moment(alpha, beta, d):
    """E[X^d] = (alpha)_d / (alpha+beta)_d."""
    with mpmath.workdps(DPS):
        return mpmath.rf(alpha, d) / mpmath.rf(alpha + beta, d)


def standardized_ratio(mu_d, mu_2, d):
    """mu_d / mu_2^(d/2) of two Fractions."""
    with mpmath.workdps(DPS):
        ratio = mpf(mu_d.numerator) / mu_d.denominator
        return ratio / (mpf(mu_2.numerator) / mu_2.denominator) ** (mpf(d) / 2)


def skewness_kurtosis(alpha, beta):
    with mpmath.workdps(DPS):
        a, b = mpf(alpha), mpf(beta)
        s = a + b
        skewness = 2 * (b - a) * mpmath.sqrt(s + 1) / ((s + 2) * mpmath.sqrt(a * b))
        excess = 6 * ((a - b) ** 2 * (s + 1) - a * b * (s + 2)) / (a * b * (s + 2) * (s + 3))
        return skewness, 3 + excess
