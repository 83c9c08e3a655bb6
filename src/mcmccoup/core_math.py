"""Scalar Gaussian building blocks shared across the package.

Standard normal CDF/quantile wrappers, bivariate normal rectangle
probabilities to near machine precision, the two closed-form Gaussian
acceptance integrals that drive every dimensional limit in this package,
and counter-based random streams for reproducible sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "exp_times_cdf",
    "bvn_low",
    "bvn_up",
    "GaussianIntegrals",
    "gaussian_integrals",
    "RngStream",
]

_TWO_PI = 2.0 * math.pi


def std_normal_cdf(x):
    """Standard normal CDF, vectorized; accurate in both tails."""
    return ndtr(x)


def std_normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def exp_times_cdf(c: float, u: float) -> float:
    """exp(c) * Phi(u), computed as exp(c + log Phi(u)).

    The two factors routinely over/underflow separately while their product
    is order one; going through log Phi keeps the product stable.
    """
    return math.exp(c + float(log_ndtr(u)))


# ---------------------------------------------------------------------------
# Bivariate normal rectangle probabilities.
#
# Single-integral reduction (Drezner & Wesolowsky's theta integral for
# moderate correlation, Genz's transformed tail integral for |rho| >= 0.925)
# with fixed-order Gauss-Legendre quadrature.  Absolute error is below 5e-16
# across the parameter space, which the test suite verifies against a
# high-precision quadrature oracle.


def _gl_half(n: int):
    # positive half of the order-n Gauss-Legendre rule on (-1, 1)
    x, w = np.polynomial.legendre.leggauss(n)
    keep = x > 0
    return x[keep], w[keep]


_GL_RULES = {6: _gl_half(6), 12: _gl_half(12), 20: _gl_half(20)}


def _bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for a standard bivariate normal pair, Corr = r."""
    if dh == math.inf or dk == math.inf:
        return 0.0
    if dh == -math.inf:
        return 1.0 if dk == -math.inf else float(ndtr(-dk))
    if dk == -math.inf:
        return float(ndtr(-dh))
    if r == 0.0:
        return float(ndtr(-dh) * ndtr(-dk))
    if r == 1.0:
        return float(ndtr(-max(dh, dk)))
    if r == -1.0:
        return max(0.0, float(ndtr(-dh)) + float(ndtr(-dk)) - 1.0)

    if abs(r) < 0.3:
        xh, wh = _GL_RULES[6]
    elif abs(r) < 0.75:
        xh, wh = _GL_RULES[12]
    else:
        xh, wh = _GL_RULES[20]

    h, k = float(dh), float(dk)
    hk = h * k

    if abs(r) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = 0.5 * math.asin(r)
        total = 0.0
        for sign in (-1.0, 1.0):
            sn = np.sin(asr * (1.0 + sign * xh))
            total += float(np.sum(wh * np.exp((sn * hk - hs) / (1.0 - sn * sn))))
        p = total * asr / _TWO_PI + float(ndtr(-h) * ndtr(-k))
        return min(1.0, max(0.0, p))

    # tail-transformed branch, 0.925 <= |r| < 1
    if r < 0.0:
        k = -k
        hk = -hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = math.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -0.5 * (bs / a_sq + hk)
    bvn = 0.0
    if asr0 > -100.0:
        bvn = a * math.exp(asr0) * (
            1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
            + c * d * a_sq * a_sq / 5.0
        )
    if -hk < 100.0:
        b = math.sqrt(bs)
        bvn -= (
            math.exp(-0.5 * hk)
            * math.sqrt(_TWO_PI)
            * float(ndtr(-b / a))
            * b
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        )
    a_half = 0.5 * a
    for sign in (-1.0, 1.0):
        for xi, wi in zip(xh, wh):
            xs = (a_half * (sign * xi + 1.0)) ** 2
            rs = math.sqrt(1.0 - xs)
            asr1 = -0.5 * (bs / xs + hk)
            if asr1 > -100.0:
                bvn += (
                    a_half
                    * wi
                    * math.exp(asr1)
                    * (
                        math.exp(-hk * xs / (2.0 * (1.0 + rs) ** 2)) / rs
                        - (1.0 + c * xs * (1.0 + d * xs))
                    )
                )
    bvn = -bvn / _TWO_PI
    if r > 0.0:
        bvn += float(ndtr(-max(h, k)))
    else:
        bvn = -bvn
        if k > h:
            bvn += float(ndtr(k) - ndtr(h))
    return min(1.0, max(0.0, bvn))


def bvn_low(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard bivariate normal with correlation rho.

    Exact closed forms at rho in {-1, 0, 1}; elsewhere the fixed-order
    quadrature reduction.  Infinite limits are allowed.
    """
    if math.isnan(rho) or abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return _bvn_upper(-float(a), -float(b), float(rho))


def bvn_up(a: float, b: float, rho: float) -> float:
    """P(X > a, Y > b) = bvn_low(-a, -b, rho)."""
    if math.isnan(rho) or abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return _bvn_upper(float(a), float(b), float(rho))


# ---------------------------------------------------------------------------
# Acceptance integrals.


class GaussianIntegrals(NamedTuple):
    first: float
    second: float


def gaussian_integrals(alpha: float, beta: float, l: float) -> GaussianIntegrals:
    """Closed forms of the two Gaussian acceptance expectations.

    For Z standard normal and alpha, beta, l > 0:

      first  = E[ Z * (1 ^ e^{-l alpha Z - l^2/2}) ]
             = -l alpha e^{l^2 (alpha^2 - 1)/2} Phi(l/(2 alpha) - l alpha)

      second = E[ 1 ^ e^{-l alpha Z - l^2/2} ^ e^{-l beta Z - l^2/2} ]
             = Phi(-l/(2m)) + e^{l^2(m^2-1)/2} {Phi(l/(2m) - lm) - Phi(-lm)}
               + e^{l^2(M^2-1)/2} Phi(-lM),   m = alpha ^ beta, M = alpha v beta

    where ^ and v denote min and max.  Products of huge exponentials with
    tiny tail probabilities are evaluated in log space.
    """
    if alpha <= 0.0 or beta <= 0.0 or l <= 0.0:
        raise ValueError("gaussian_integrals requires alpha, beta, l > 0")
    first = -l * alpha * exp_times_cdf(
        0.5 * l * l * (alpha * alpha - 1.0), l / (2.0 * alpha) - l * alpha
    )
    m, big = min(alpha, beta), max(alpha, beta)
    cm = 0.5 * l * l * (m * m - 1.0)
    second = (
        float(ndtr(-l / (2.0 * m)))
        + exp_times_cdf(cm, l / (2.0 * m) - l * m)
        - exp_times_cdf(cm, -l * m)
        + exp_times_cdf(0.5 * l * l * (big * big - 1.0), -l * big)
    )
    second = min(second, 1.0)
    if second <= 0.0:
        raise ArithmeticError("acceptance integral underflowed to a nonpositive value")
    return GaussianIntegrals(float(first), float(second))


# ---------------------------------------------------------------------------
# Random streams.


@dataclass
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce bit-identical sequences; distinct stream ids
    give statistically independent streams.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not (0 <= int(value) < 2**64):
                raise ValueError(f"{name} must be an integer in [0, 2^64)")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        return self._gen.random(size)  # the doubles of uniform(0, 1), minus its affine map
