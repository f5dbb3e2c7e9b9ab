"""Exact central moments and sharp Bernstein-type tail bounds for the Beta distribution."""

from .bounds import (
    SubGammaParams,
    TailSide,
    bernstein_tail_bound,
    exact_tail,
    sub_gamma_bound,
    subgaussian_bound,
    subgaussian_optimal_proxy,
    sub_gamma_params,
)
from .chernoff import (
    ChernoffResult,
    centered_mgf,
    cgf,
    chernoff_exponent_numeric,
    chernoff_exponent_expansion,
)
from .moments import (
    BetaParams,
    MomentTable,
    central_moments_recursive,
    raw_moment,
    standardized_moment,
)
from .specfun import ConvergenceError, regularized_incomplete_beta

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "ChernoffResult",
    "ConvergenceError",
    "MomentTable",
    "SubGammaParams",
    "TailSide",
    "bernstein_tail_bound",
    "centered_mgf",
    "central_moments_recursive",
    "cgf",
    "chernoff_exponent_numeric",
    "exact_tail",
    "raw_moment",
    "regularized_incomplete_beta",
    "standardized_moment",
    "sub_gamma_bound",
    "subgaussian_bound",
    "subgaussian_optimal_proxy",
    "sub_gamma_params",
    "chernoff_exponent_expansion",
]
