"""Scalar special-function kernels.

Everything here is self-contained double precision or exact rational
arithmetic: log-gamma, the regularized incomplete beta function
(continued fraction), the confluent hypergeometric series 1F1 (plus a
log-scaled variant that survives huge arguments), the terminating Gauss 2F1
over exact rationals, and rising factorials.

All kernels are deterministic and hold no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class ConvergenceError(RuntimeError):
    """A series or continued fraction did not meet tolerance within its iteration cap."""


@dataclass(frozen=True)
class EvalConfig:
    """Convergence policy for the iterative kernels.

    rel_tol is a relative stopping tolerance, max_iter caps series and
    continued-fraction length. Defaults are two orders tighter than any
    tolerance asserted downstream.
    """

    rel_tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1e-6:
            raise ValueError(f"rel_tol must lie in (0, 1e-6), got {self.rel_tol}")
        if self.max_iter < 100:
            raise ValueError(f"max_iter must be >= 100, got {self.max_iter}")


DEFAULT_CONFIG = EvalConfig()


def pochhammer(x, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1.

    Exact (a Fraction) whenever x is an int or Fraction; float otherwise.
    """
    if k < 0:
        raise ValueError(f"pochhammer order must be non-negative, got {k}")
    result = Fraction(1) if isinstance(x, (int, Fraction)) else 1.0
    for i in range(k):
        result *= x + i
    return result


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (the C library's lgamma)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _beta_cont_frac(a: float, b: float, x: float, cfg: EvalConfig) -> float:
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
    for m in range(1, cfg.max_iter + 1):
        m2 = 2 * m
        numer = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numer = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numer * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numer / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < cfg.rel_tol:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x} "
        f"after {cfg.max_iter} iterations"
    )


def regularized_incomplete_beta(
    a: float, b: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> float:
    """Regularized incomplete beta I_x(a, b), the Beta(a, b) CDF at x.

    Continued-fraction evaluation with the crossover at x < (a+1)/(a+b+2);
    the complementary range is reduced through I_x(a,b) = 1 - I_{1-x}(b,a)
    so the fraction always runs in its fast regime. Raises ConvergenceError
    rather than returning a silently inaccurate value.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x < (a + 1.0) / (a + b + 2.0):
        return _ibeta_direct(a, b, x, cfg)
    return 1.0 - _ibeta_direct(b, a, 1.0 - x, cfg)


def _ibeta_direct(a: float, b: float, x: float, cfg: EvalConfig) -> float:
    log_prefactor = (
        a * math.log(x)
        + b * math.log1p(-x)
        + log_gamma(a + b)
        - log_gamma(a)
        - log_gamma(b)
    )
    return math.exp(log_prefactor) * _beta_cont_frac(a, b, x, cfg) / a


def kummer_1f1(a: float, c: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Confluent hypergeometric 1F1(a; c; t) by direct series summation.

    For t < 0 (and c > a) the Kummer transform 1F1(a;c;t) = e^t 1F1(c-a;c;-t)
    keeps every term positive, avoiding the catastrophic cancellation of the
    alternating series. Supported range is |t| <= 700 with 0 < a <= c, where
    the sum stays below double-precision overflow; use log_kummer_1f1 beyond.
    """
    if c <= 0.0:
        raise ValueError(f"lower parameter must be positive, got c={c}")
    if c == a:
        return math.exp(t)
    if t < 0.0 and c - a > 0.0:
        return math.exp(t) * kummer_1f1(c - a, c, -t, cfg)
    term = 1.0
    total = 1.0
    comp = 0.0  # Kahan compensation keeps long sums from accruing N*eps error
    for k in range(cfg.max_iter):
        term *= (a + k) * t / ((c + k) * (k + 1.0))
        y = term - comp
        new_total = total + y
        comp = (new_total - total) - y
        total = new_total
        ratio = abs((a + k + 1) * t) / ((c + k + 1) * (k + 2.0))
        # geometric tail bound: once ratios shrink, the rest is < term*r/(1-r)
        if ratio < 1.0 and abs(term) * ratio <= cfg.rel_tol * abs(total) * (1.0 - ratio):
            return total
    raise ConvergenceError(
        f"1F1 series did not converge for a={a}, c={c}, t={t} within {cfg.max_iter} terms"
    )


_LOG_RESCALE = math.log(1e280)


def log_kummer_1f1(
    a: float, c: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG
) -> float:
    """log(1F1(a; c; t)) for a, c > 0, stable for arguments far beyond overflow.

    The positive-term series is accumulated with periodic rescaling, so t in
    the tens of thousands is fine as long as max_iter covers roughly 2t terms.
    Negative t routes through the Kummer transform.
    """
    if c <= 0.0 or a <= 0.0:
        raise ValueError(f"parameters must be positive, got a={a}, c={c}")
    if c == a:
        return t
    if t < 0.0:
        if c - a <= 0.0:
            raise ValueError("Kummer transform needs c > a for negative t")
        return t + log_kummer_1f1(c - a, c, -t, cfg)
    shift = 0.0
    term = 1.0
    total = 1.0
    comp = 0.0
    for k in range(cfg.max_iter):
        term *= (a + k) * t / ((c + k) * (k + 1.0))
        y = term - comp
        new_total = total + y
        comp = (new_total - total) - y
        total = new_total
        if total > 1e280:
            total *= 1e-280
            term *= 1e-280
            comp *= 1e-280
            shift += _LOG_RESCALE
        ratio = (a + k + 1) * t / ((c + k + 1) * (k + 2.0))
        if ratio < 1.0 and term * ratio <= cfg.rel_tol * total * (1.0 - ratio):
            return math.log(total) + shift
    raise ConvergenceError(
        f"log-1F1 series did not converge for a={a}, c={c}, t={t} within {cfg.max_iter} terms"
    )


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
