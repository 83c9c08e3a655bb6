"""Gaussian building blocks shared across the package.

Standard normal CDF/quantile wrappers, bivariate normal rectangle
probabilities to near machine precision (over arrays, with scalar batches
of one), the one-dimensional Gaussian acceptance integrals that drive every
dimensional limit in this package, and counter-based random streams for
reproducible sampling.  The acceptance integrals have one implementation,
elementwise array code over rows of scaled squared norms: the ODE drifts
in `ode_limits` run it on whole batches, and `gaussian_integrals` is a
batch of one.
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
    "bvn",
    "bvn_columns",
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


# ---------------------------------------------------------------------------
# Bivariate normal rectangle probabilities.
#
# Single-integral reduction (Drezner & Wesolowsky's theta integral for
# moderate correlation, Genz's transformed tail integral for |rho| >= 0.925)
# with one 20-node Gauss-Legendre rule in both branches.  `bvn_columns`
# sorts the columns (h, k, r) of a (3, n) array into the two branches and
# the closed forms at the edges; each branch is elementwise array
# arithmetic over its columns, so a column's value is the same whatever
# the batch around it.  Absolute error is below 5e-16 across the parameter
# space, which the test suite verifies against a high-precision quadrature
# oracle.

# the 20-node Gauss-Legendre rule on (-1, 1); _GL_X1 holds its nodes shifted
# to (0, 2), _GL_HALF_X1 half of that
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_GL_X1 = _GL_X + 1.0
_GL_HALF_X1 = 0.5 * _GL_X1
_GL_W_4PI = _GL_W / (2.0 * _TWO_PI)
_TAIL_R = 0.925
_SQRT_TWO_PI = math.sqrt(_TWO_PI)
# up to this many tail columns go one by one on numpy scalars, which costs
# less than array arithmetic on a masked 1- or 2-element array: a batch of
# one g near coalescence has one tail rectangle of its three (the timings
# that keep this path are in BENCH_7.json, "fast_paths")
_FEW_TAIL_COLUMNS = 2


def _bvn_edge(hkr):
    # infinite limits and r = +-1, where the quadratures do not apply
    h, k, r = hkr
    p = np.where(r == 1.0, ndtr(-np.maximum(h, k)), np.maximum(ndtr(-h) + ndtr(-k) - 1.0, 0.0))
    p = np.where(h == -math.inf, ndtr(-k), np.where(k == -math.inf, ndtr(-h), p))
    return np.where((h == math.inf) | (k == math.inf), 0.0, p)


def _bvn_moderate(hkr):
    # Drezner & Wesolowsky's theta integral over (0, asin r), |r| < 0.925
    h, k, r = hkr
    asr = np.arcsin(r)
    sn = np.sin(asr[..., None] * _GL_HALF_X1)
    hk = (h * k)[..., None]
    hs = (0.5 * (h * h + k * k))[..., None]
    terms = _GL_W_4PI * np.exp((sn * hk - hs) / (1.0 - sn * sn))
    phi = ndtr(-hkr[:2])
    return terms.sum(axis=-1) * asr + phi[0] * phi[1]


def _bvn_tail(hkr):
    # Genz's transformed tail integral, 0.925 <= |r| < 1; r < 0 reflects k.
    # Over (3, n) columns or one (3,) column.
    h, k, r = hkr
    sign = np.sign(r)
    k = sign * k
    hk = h * k
    hh = 0.5 * hk
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    bs = (h - k) * (h - k)
    b = np.sqrt(bs)
    c = 0.5 - 0.125 * hk
    d = 0.75 - 0.0625 * hk
    ct = c * (1.0 - 0.2 * d * bs) / 3.0
    bvn = a * np.exp(-(0.5 * bs / a_sq + hh)) * (1.0 - ct * (bs - a_sq) + 0.2 * c * d * a_sq * a_sq)
    bvn -= np.exp(log_ndtr(-b / a) - hh) * _SQRT_TWO_PI * b * (1.0 - ct * bs)
    # the node terms, written so that no factor can overflow
    a_half = (0.5 * a)[..., None]
    c, d, hh, bs = c[..., None], d[..., None], hh[..., None], bs[..., None]
    xs = a_half * _GL_X1
    xs = xs * xs
    rs = np.sqrt(1.0 - xs)
    asr = -(0.5 * bs / xs + hh)
    terms = (a_half * _GL_W) * (
        np.exp(asr - hh * xs / ((1.0 + rs) * (1.0 + rs))) / rs
        - np.exp(asr) * (1.0 + c * xs * (1.0 + d * xs))
    )
    bvn = (bvn + terms.sum(axis=-1)) / -_TWO_PI
    neg = sign < 0.0
    n_neg = np.count_nonzero(neg)
    if n_neg == 0:
        return bvn + ndtr(-np.maximum(h, k))
    # r < 0: the integral above was for (h, -k); reflect back
    down = np.maximum(ndtr(k) - ndtr(h), 0.0) - bvn
    if n_neg == np.size(r):
        return down
    return np.where(neg, down, bvn + ndtr(-np.maximum(h, k)))


def bvn_columns(hkr: np.ndarray) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal pairs with Corr = r,
    elementwise over the columns (h, k, r) of a (3, n) float array, n >= 1.

    Unchecked: h and k must be finite and |r| <= 1.  The array core of
    `bvn`, for callers that build the columns themselves.
    """
    ar = np.abs(hkr[2])
    top = ar.max()
    if top < _TAIL_R:
        # the common case, every column in one branch: no masks
        p = _bvn_moderate(hkr)
    else:
        p = np.empty(ar.size)
        tail = ar >= _TAIL_R
        if not tail.all():
            p[~tail] = _bvn_moderate(hkr[:, ~tail])
        if top == 1.0:
            edge = ar == 1.0
            p[edge] = _bvn_edge(hkr[:, edge])
            tail &= ~edge
        if np.count_nonzero(tail) > _FEW_TAIL_COLUMNS:
            p[tail] = _bvn_tail(hkr[:, tail])
        else:
            for i in np.flatnonzero(tail):
                p[i] = _bvn_tail(hkr[:, i])
    return np.minimum(1.0, np.maximum(0.0, p))


def bvn(h, k, r) -> np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal pairs with correlation r,
    elementwise over equal-shape arrays.

    Infinite limits are allowed, NaN limits raise; r = -1, 0, 1 take exact
    closed forms or their quadrature limits.  Each element's value is the
    same whatever the batch around it.  bvn_low(a, b, r) is bvn(-a, -b, r).
    """
    try:
        hkr = np.array((h, k, r), dtype=float)
    except ValueError as exc:
        raise ValueError(f"bvn needs equal shapes: {exc}") from None
    shape = hkr.shape[1:]
    hkr = hkr.reshape(3, -1)
    valid = np.abs(hkr[2]) <= 1.0
    if not valid.all():
        raise ValueError(f"correlation must lie in [-1, 1], got {hkr[2][~valid]}")
    if np.isnan(hkr[:2]).any():
        raise ValueError("bvn limits must not be NaN")
    finite = np.isfinite(hkr[:2]).all(axis=0)
    p = np.empty(finite.shape)
    if finite.any():
        p[finite] = bvn_columns(hkr[:, finite])
    if not finite.all():
        p[~finite] = _bvn_edge(hkr[:, ~finite])
    return p.reshape(shape)


def bvn_low(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard bivariate normal with correlation rho,
    as a batch of one through `bvn`.  Infinite limits are allowed."""
    return float(bvn(-float(a), -float(b), rho))


def bvn_up(a: float, b: float, rho: float) -> float:
    """P(X > a, Y > b) = bvn_low(-a, -b, rho), as a batch of one through `bvn`."""
    return float(bvn(float(a), float(b), rho))


# ---------------------------------------------------------------------------
# Acceptance integrals.
#
# The underscored functions are the package-internal array core: the ODE
# drifts in `ode_limits` run them on whole batches of rows.


def _row_constants(l):
    # (l, l/2, l^2/2) for step parameters l: an array of rows, or one float
    return l, 0.5 * l, 0.5 * l * l


def _coordinate_terms(X, lc):
    """Per-coordinate acceptance terms of scaled squared norms X >= 0.

    X broadcasts against the `_row_constants` lc on its last axis.  Returns
    sX = sqrt(X), lsX = l sX, R = l/(2 sX), U = R - l sX, c = l^2 (X - 1)/2,
    P = Phi(-R) and Q = q(X) = e^c Phi(U), the tilted part of the limiting
    acceptance probability P + Q (q(1) = Phi(-l/2)).  At X = 0, where R
    divides by zero, P = 0 and Q = e^{-l^2/2}, the continuous limits.  The
    products of huge exponentials with tiny tail probabilities are taken in
    log space.
    """
    l, half_l, hl2 = lc
    sX = np.sqrt(X)
    lsX = l * sX
    R = half_l / sX
    U = R - lsX
    c = hl2 * (X - 1.0)
    return sX, lsX, R, U, c, ndtr(-R), np.exp(c + log_ndtr(U))


def _tail_exp(terms):
    # E = e^c Phi(-l sqrt x) per coordinate, from `_coordinate_terms`
    return np.exp(terms[4] + log_ndtr(-terms[1]))


def _g_aligned(E, P, Q):
    # the joint acceptance E[1 ^ e^{A_x} ^ e^{A_y}] of perfectly aligned
    # proposals (rho = 1), elementwise over the (x, y) first axis of the
    # `_tail_exp` E and the `_coordinate_terms` P, Q: P + Q - E at the
    # smaller norm plus E at the larger (the other order's sum is never
    # smaller); raises where the value underflows
    F = P + Q - E
    g = np.minimum(np.minimum(F[0] + E[1], F[1] + E[0]), 1.0)
    if not g.min() > 0.0:
        raise ArithmeticError("acceptance integral underflowed to a nonpositive value")
    return g


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

    where ^ and v denote min and max.  A batch of one of the code the ODE
    drifts run: first is -l alpha q(alpha^2) and second equals
    `ode_limits.g_value(alpha^2, beta^2, 1, l)` bit for bit.
    """
    if alpha <= 0.0 or beta <= 0.0 or l <= 0.0:
        raise ValueError("gaussian_integrals requires alpha, beta, l > 0")
    X = np.array([alpha * alpha, beta * beta], dtype=float)
    terms = _coordinate_terms(X, _row_constants(float(l)))
    P, Q = terms[5], terms[6]
    second = _g_aligned(_tail_exp(terms), P, Q)
    return GaussianIntegrals(float(-terms[1][0] * Q[0]), float(second))


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
