"""Central moments of the Beta distribution.

The workhorse is an order-2 recurrence with coefficients linear in the moment
order, evaluated in exact rational arithmetic:

    (alpha+beta)^2 (alpha+beta+d-1) mu_d
        = (d-1)(beta-alpha)(alpha+beta) mu_{d-1} + (d-1) alpha beta mu_{d-2}

One loop runs it, divided through by s^2 (s = alpha+beta) so that its two
shape constants k1 = (beta-alpha)/s and k2 = (alpha/s)(beta/s) are formed once
per table, not per step:

    x_d = (d-1)(k1 x_{d-1} + k2 x_{d-2}) / (s+d-1),  x_0 = 1, x_1 = 0

No product of two shapes is formed, so huge and tiny float shapes stay in
range. Two independent routes to the same numbers (binomial expansion over
raw moments, and a terminating 2F1 representation) are provided purely for
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .specfun import gauss_2f1_terminating

Scalar = Fraction | float

# Numerators of exact moments grow without bound in the order; cap the table
# size so a typo cannot exhaust memory.
MAX_MOMENT_ORDER = 10_000


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (alpha, beta) of a Beta distribution.

    Carry Fractions (or ints) for the exact path; floats select the double-precision
    path, forfeit the exact-equality guarantees and must sum within the double range.
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
        if type(self.alpha) is type(self.beta) is float and not self.alpha + self.beta < math.inf:
            raise ValueError(f"float shapes sum past the largest double: {self.alpha}, {self.beta}")

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
    """Central moments mu_0..mu_dmax, from the one recurrence loop.

    Built once by central_moments_recursive and immutable afterwards, so a
    table can be shared freely across threads.
    """

    params: BetaParams
    central: tuple[Scalar, ...]


def raw_moment(params: BetaParams, d: int) -> Scalar:
    """E[X^d] = (alpha)_d / (alpha+beta)_d as a product of factors (alpha+i) / (alpha+beta+i).

    Each is below 1, so a float product never overflows as (alpha+beta)_d
    would; it reads 0.0 only where E[X^d] is below the double range.
    """
    if d < 0:
        raise ValueError(f"moment order must be non-negative, got {d}")
    a, s = params.alpha, params.total
    moment: Scalar = Fraction(1) if params.is_exact else 1.0
    for i in range(d):
        moment *= (a + i) / (s + i)
    return moment


def recursion_coefficients(params: BetaParams, d: int) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (p, q, r) with p(d) mu_d = q(d) mu_{d-1} + r(d) mu_{d-2}.

    Each is degree <= 1 in d, which is what makes the moment sequence
    P-recursive of order 2. This is the paper's statement of the recurrence;
    the loop behind central_moments_recursive runs it divided through by s^2
    and is checked against these coefficients, never calls them.
    """
    s = params.total
    p = s * s * (s + d - 1)
    q = (d - 1) * (params.beta - params.alpha) * s
    r = (d - 1) * params.alpha * params.beta
    return p, q, r


def _recurrence(one: Scalar, k1: Scalar, k2: Scalar, s: Scalar, dmax: int) -> list[Scalar]:
    """x_0..x_dmax of x_d = (d-1)(k1 x_{d-1} + k2 x_{d-2}) / (s+d-1), x_0 = one, x_1 = 0."""
    if dmax > MAX_MOMENT_ORDER:
        raise ValueError(
            f"dmax={dmax} exceeds the supported maximum of {MAX_MOMENT_ORDER}"
        )
    xs = [one, 0 * one]
    for d in range(2, dmax + 1):
        xs.append((d - 1) * (k1 * xs[d - 1] + k2 * xs[d - 2]) / (s + d - 1))
    return xs[: dmax + 1]


def central_moments_recursive(params: BetaParams, dmax: int) -> MomentTable:
    """Central moments mu_0..mu_dmax via the order-2 recurrence, one pass, O(dmax).

    Runs the module's one loop with k1 = (beta-alpha)/s and
    k2 = (alpha/s)(beta/s): exact rationals when params are exact; plain
    double arithmetic otherwise (the recurrence is numerically benign:
    positive denominators, coefficient magnitudes below 1).
    """
    if dmax < 0:
        raise ValueError(f"dmax must be non-negative, got {dmax}")
    a, b, s = params.alpha, params.beta, params.total
    one: Scalar = Fraction(1) if params.is_exact else 1.0
    central = _recurrence(one, (b - a) / s, (a / s) * (b / s), s, dmax)
    return MomentTable(params=params, central=tuple(central))


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
    """mu_d / mu_2^(d/2) as a double (skewness at d=3, kurtosis at d=4, ...).

    Exact shapes divide as Fractions, then by one float sqrt(mu_2) for odd d.
    Float shapes run the recurrence loop on z_k = mu_k / mu_2^(k/2) itself,
    which stays in range wherever z_d does, as at Beta(1, 1), d = 1100, where
    mu_d underflows; against exact values it is within 2e-14 relative up to
    d = 1500. A value past the largest double raises OverflowError.
    """
    if d < 2:
        raise ValueError(f"standardized moments need d >= 2, got {d}")
    if params.is_exact:
        central = central_moments_recursive(params, d).central
        value = float(central[d] / central[2] ** (d // 2))  # OverflowError past the range
        if d % 2:
            value /= math.sqrt(central[2])
    else:
        # z_k = mu_k / mu_2^(k/2) runs the same loop with k2 / mu_2 = s + 1 and
        # k1 / sqrt(mu_2), formed without mu_2 = (a/s)(b/s)/(s+1), which underflows
        a, b, s = float(params.alpha), float(params.beta), float(params.total)
        k1 = (b - a) / math.sqrt(a) / math.sqrt(b) * math.sqrt(s + 1.0)
        value = _recurrence(1.0, k1, s + 1.0, s, d)[d]
    if not math.isfinite(value):
        raise OverflowError(f"standardized moment d={d} of {params} exceeds the largest double")
    return value
