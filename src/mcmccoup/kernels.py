"""Single-chain Markov transition kernels.

Random walk Metropolis driven by externally supplied randomness (so that
couplings can share it), plus the gradient-bouncing Hug kernel and the
gradient-scaled Hop kernel used for the multiscale sampler.  Every move,
single or coupled, accepts through the one Metropolis-Hastings test in
`metropolis`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .targets import TargetModel

__all__ = [
    "accept_log_ratio",
    "metropolis",
    "direction",
    "reflect",
    "rwm_step",
    "HugParams",
    "HopParams",
    "hug_step",
    "hop_step",
    "hop_accept",
    "AnisotropicGaussian",
    "hop_proposal_law",
]


def accept_log_ratio(log_ratio: float, u: float) -> bool:
    """Metropolis test: accept iff u <= exp(log_ratio), overflow-safe."""
    if log_ratio >= 0.0:
        return True
    return math.log(u) <= log_ratio if u > 0.0 else True


def metropolis(x, lp_x: float, prop, lp_prop: float, u: float, *correction: float):
    """Metropolis-Hastings test of prop against x with acceptance uniform u.

    The log ratio is lp_prop - lp_x with each correction term added in
    order (the proposal-density terms of a non-symmetric proposal).
    Returns the kept position and its log density.
    """
    log_ratio = lp_prop - lp_x
    for term in correction:
        log_ratio += term
    if accept_log_ratio(log_ratio, u):
        return prop, lp_prop
    return x, lp_x


def direction(v: np.ndarray, sq: Optional[float] = None):
    """(v / ||v||, ||v||), or (None, ||v||) when the norm is zero or not finite.

    sq is float(v.dot(v)) when the caller has already formed it.
    """
    n = math.sqrt(float(v.dot(v)) if sq is None else sq)  # np.linalg.norm, bit for bit
    if n == 0.0 or not math.isfinite(n):
        return None, n
    return v / n, n


def reflect(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reflection v - 2 (u'v) u of v in the hyperplane orthogonal to the unit vector u."""
    return v - 2.0 * float(np.dot(u, v)) * u


def rwm_step(x: np.ndarray, z: np.ndarray, u: float, h: float, target: TargetModel):
    """One random walk Metropolis step x -> x + h z, accepted with the usual test.

    z is the standard normal increment and u the acceptance uniform; both are
    passed in so coupled chains can share them.  Returns (x_next, accepted).
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    if z.shape != x.shape:
        raise ValueError("increment z must match the shape of x")
    if not 0.0 <= u <= 1.0:
        raise ValueError("acceptance uniform must lie in [0, 1]")
    prop = x + h * z
    x_next, _ = metropolis(x, target.log_density(x), prop, target.log_density(prop), u)
    return x_next, x_next is prop


@dataclass(frozen=True)
class HugParams:
    """Total integration time and number of bounces; delta = total_time/bounces."""

    total_time: float = 0.5
    bounces: int = 10

    def __post_init__(self):
        if self.total_time <= 0 or self.bounces < 1:
            raise ValueError("need total_time > 0 and bounces >= 1")

    @property
    def delta(self) -> float:
        return self.total_time / self.bounces


@dataclass(frozen=True)
class HopParams:
    """Scales of the proposal along (lam) and orthogonal to (mu) the gradient."""

    lam: float = 20.0
    mu: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("need lam > 0 and mu > 0")


def hug_proposal(x: np.ndarray, v: np.ndarray, params: HugParams, target: TargetModel):
    """Run the bounce dynamics; returns (x_prop, v_out) or None on a zero gradient.

    Each bounce advances half a step, reflects the velocity in the local
    gradient direction, then advances the other half.  Reflections preserve
    ||v||, so the momentum density cancels from the acceptance ratio.
    """
    delta = params.delta
    xp = np.array(x, dtype=float, copy=True)
    vp = np.asarray(v, dtype=float)
    for _ in range(params.bounces):
        xp += 0.5 * delta * vp
        ghat, _ = direction(target.grad(xp))
        if ghat is None:
            return None
        vp = reflect(vp, ghat)
        xp += 0.5 * delta * vp
    return xp, vp


def hug_step(x: np.ndarray, v: np.ndarray, params: HugParams, u: float, target: TargetModel):
    """One Hug step with velocity v and acceptance uniform u.

    Returns (x_next, accepted).  A vanishing gradient anywhere along the
    trajectory rejects outright (with a warning) since the bounce is undefined.
    """
    out = hug_proposal(x, v, params, target)
    if out is None:
        warnings.warn("hug bounce hit a zero/non-finite gradient; rejecting", RuntimeWarning)
        return x, False
    xp, _ = out
    x_next, _ = metropolis(x, target.log_density(x), xp, target.log_density(xp), u)
    return x_next, x_next is xp


@dataclass(frozen=True)
class AnisotropicGaussian:
    """Gaussian with one standard deviation along a unit axis, another orthogonal.

    log_density omits the common -(d/2) log(2 pi) so differences and ratios
    between two such laws are exact.
    """

    center: np.ndarray
    axis: np.ndarray
    sd_axis: float
    sd_orth: float

    def log_density(self, w: np.ndarray) -> float:
        diff = w - self.center
        t = float(np.dot(diff, self.axis))
        sq = float(np.dot(diff, diff))
        d = self.center.size
        return (
            -math.log(self.sd_axis)
            - (d - 1) * math.log(self.sd_orth)
            - 0.5 * (t * t / self.sd_axis**2 + (sq - t * t) / self.sd_orth**2)
        )

    def displacement(self, z: np.ndarray, z1: float) -> np.ndarray:
        """Map driving noise (z, z1) to an offset from the center."""
        z_orth = z - float(np.dot(z, self.axis)) * self.axis
        return self.sd_axis * z1 * self.axis + self.sd_orth * z_orth

    def sample(self, rng) -> np.ndarray:
        z = rng.standard_normal(self.center.size)
        z1 = float(rng.standard_normal())
        return self.center + self.displacement(z, z1)


def hop_proposal_law(x: np.ndarray, params: HopParams, target: TargetModel):
    """Hop proposal law at x, or None when the gradient vanishes.

    The proposal is Gaussian with standard deviation lam/||g|| along the
    gradient direction and mu/||g|| orthogonal to it: big jumps along the
    gradient where the density is flat, small careful ones where it is steep.
    """
    axis, gn = direction(target.grad(x))
    if axis is None:
        return None
    return AnisotropicGaussian(
        center=np.array(x, dtype=float, copy=True),
        axis=axis,
        sd_axis=params.lam / gn,
        sd_orth=params.mu / gn,
    )


def hop_step(
    x: np.ndarray,
    z: np.ndarray,
    z1: float,
    u: float,
    params: HopParams,
    target: TargetModel,
):
    """One Hop step driven by (z, z1, u); returns (x_next, accepted).

    Full Metropolis-Hastings correction: the proposal scale depends on the
    local gradient norm, so the ratio includes the d log||g|| volume term.
    """
    law_x = hop_proposal_law(x, params, target)
    if law_x is None:
        warnings.warn("hop proposal undefined at a zero-gradient point; rejecting", RuntimeWarning)
        return x, False
    w = law_x.center + law_x.displacement(z, z1)
    x_next, _ = hop_accept(x, target.log_density(x), law_x, w, u, params, target)
    return x_next, x_next is w


def hop_accept(
    x, lp_x: float, law_x: AnisotropicGaussian, w, u: float, params: HopParams, target: TargetModel
):
    """Metropolis-Hastings test of the Hop proposal w ~ law_x from x.

    Returns the kept position and its log density; a vanishing gradient
    at w rejects, since the reverse proposal law is undefined there.
    """
    law_w = hop_proposal_law(w, params, target)
    if law_w is None:
        return x, lp_x
    return metropolis(
        x, lp_x, w, target.log_density(w), u, law_w.log_density(x), -law_x.log_density(w)
    )
