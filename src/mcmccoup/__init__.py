"""Couplings of random walk Metropolis chains.

Tools for studying how coupled Metropolis chains contract in high
dimension: exact low-dimensional ODE limits of the coupled dynamics on
Gaussian targets, fixed points and asymptotic squared distances for common
coupling choices, gradient-aligned ("common direction") couplings that
dominate the classical ones, and lag-coupling diagnostics (total variation
and Wasserstein bounds, stationary bias bounds) that apply to arbitrary
targets, including a stochastic volatility posterior worked end to end.
"""

__version__ = "0.1.0"

from .core_math import (
    GaussianIntegrals,
    RngStream,
    bvn,
    bvn_low,
    bvn_up,
    gaussian_integrals,
    std_normal_cdf,
    std_normal_quantile,
)

__all__ = [
    "GaussianIntegrals",
    "RngStream",
    "bvn",
    "bvn_low",
    "bvn_up",
    "gaussian_integrals",
    "std_normal_cdf",
    "std_normal_quantile",
    "__version__",
]
