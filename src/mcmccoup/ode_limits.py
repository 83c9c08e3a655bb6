"""Deterministic high-dimensional limits of coupled random walk Metropolis.

With step size h = l d^{-1/2} and a Gaussian target, the scaled summary
W = (||X||^2, ||Y||^2, X'Y)/d converges to the solution of a 3-D ODE
w' = l^2 (a(x), a(y), b(x,y,v)) as d grows.  This module evaluates those
drifts for each coupling, integrates the ODE (also in squared-distance
form), and extends the construction to elliptical targets: the raw
per-index infinitesimals of the expected changes in the Omega^k-weighted
norms, and the closed six-component system for targets whose covariance
has exactly two distinct eigenvalues of equal multiplicity.

All acceptance expectations reduce to one-dimensional Gaussian integrals
plus bivariate normal rectangle probabilities; everything is evaluated in
log space so the exponential tilts cannot overflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .core_math import bvn_low, bvn_up, exp_times_cdf, gaussian_integrals

__all__ = [
    "OdeState",
    "OdeTrajectory",
    "TwoEigTrajectory",
    "accept_prob",
    "drift_a",
    "rho_limit",
    "g_value",
    "drift_c",
    "integrate_w",
    "elliptical_infinitesimal",
    "two_eigenvalue_ode",
]

DRIFT_KINDS = ("crn", "reflection", "gcrn", "optimal")


class OdeState(NamedTuple):
    """Point of the scaled summary space S: x,y >= 0 and |v| <= sqrt(xy)."""

    x: float
    y: float
    v: float

    @property
    def s(self) -> float:
        return self.x + self.y - 2.0 * self.v


class OdeTrajectory(NamedTuple):
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    s: np.ndarray


class TwoEigTrajectory(NamedTuple):
    """Block coordinates (unit-eigenvalue block a, sigma^2 block b) plus the
    scaled squared distance s = x_{-1} + y_{-1} - 2 v_{-1}."""

    t: np.ndarray
    x_a: np.ndarray
    y_a: np.ndarray
    v_a: np.ndarray
    x_b: np.ndarray
    y_b: np.ndarray
    v_b: np.ndarray
    s: np.ndarray


def _q(x: float, l: float) -> float:
    # q(x) = e^{l^2 (x-1)/2} Phi(l/(2 sqrt x) - l sqrt x), the tilted part of
    # the limiting acceptance probability; q(1) = Phi(-l/2)
    if x == 0.0:
        return math.exp(-0.5 * l * l)
    rx = math.sqrt(x)
    return exp_times_cdf(0.5 * l * l * (x - 1.0), l / (2.0 * rx) - l * rx)


def accept_prob(x: float, l: float) -> float:
    """Limiting acceptance probability given scaled squared norm x."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if l <= 0:
        raise ValueError("l must be positive")
    if x == 0.0:
        # from the mode every proposal costs exactly l^2/2 in log density
        return math.exp(-0.5 * l * l)
    return float(ndtr(-l / (2.0 * math.sqrt(x)))) + _q(x, l)


def drift_a(x: float, l: float) -> float:
    """Drift of the scaled squared norm: (1-2x) q(x) + Phi(-l/(2 sqrt x)).

    Zero exactly at x = 1; positive below, negative above.  The x = 0
    boundary takes the continuous limit e^{-l^2/2}.
    """
    if l <= 0:
        raise ValueError("l must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return math.exp(-0.5 * l * l)
    return (1.0 - 2.0 * x) * _q(x, l) + float(ndtr(-l / (2.0 * math.sqrt(x))))


def rho_limit(kind: str, w1, w0=None, wm1=None, eps: float = 1.0) -> float:
    """Limiting correlation of the two acceptance projections.

    w1, w0, wm1: the (x_k, y_k, v_k) at k = 1, 0, -1, proportional to
    (X'Omega^{k+1}X, Y'Omega^{k+1}Y, X'Omega^{k+1}Y); a spherical state is all
    three (the default).  crn: v_1 / sqrt(x_1 y_1); reflection adds
    2 (x_0 - v_0)(y_0 - v_0) / (eps sqrt(x_1 y_1) (x_-1 + y_-1 - 2 v_-1));
    gcrn: 1.  On raw inner products with eps = 1 this is the finite-d
    `couplings.grad_projection_correlation` of a centred Gaussian target.
    Convention rho = 1 when x_1 = 0 or y_1 = 0, and at the reflection
    boundary x = y = v where the expression is 0/0.
    """
    x_1, y_1, v_1 = w1
    if kind == "gcrn":
        return 1.0
    if x_1 < 0 or y_1 < 0:
        raise ValueError("state outside S: negative squared norm")
    if x_1 == 0.0 or y_1 == 0.0:
        return 1.0
    rho = v_1 / math.sqrt(x_1 * y_1)
    if kind == "reflection":
        x_0, y_0, v_0 = w1 if w0 is None else w0
        x_m1, y_m1, v_m1 = w1 if wm1 is None else wm1
        denom = x_m1 + y_m1 - 2.0 * v_m1
        if denom <= 1e-14 * (x_m1 + y_m1):
            return 1.0
        rho += 2.0 * (x_0 - v_0) * (y_0 - v_0) / (eps * math.sqrt(x_1 * y_1) * denom)
    elif kind != "crn":
        raise ValueError(f"no projection correlation for kind {kind!r}")
    return min(1.0, max(-1.0, rho))


_RHO_CROSSOVER = 1.0 - 1e-6


def _g_tilt_term(x: float, y: float, rho: float, l: float) -> float:
    # E[e^{A_1}; A_1 < 0, A_1 <= A_2] with A_i = -l sqrt(.) Z_i - l^2/2,
    # written as an exponentially tilted bivariate normal rectangle
    b = -(math.sqrt(x / y) - rho) / math.sqrt(1.0 - rho * rho)
    rb = math.sqrt(1.0 + b * b)
    a = b * l * math.sqrt(x)
    upper = l / (2.0 * math.sqrt(x)) - l * math.sqrt(x)
    rect = bvn_low(a / rb, upper, -b / rb)
    if rect <= 0.0:
        return 0.0
    return math.exp(0.5 * l * l * (x - 1.0) + math.log(rect))


def g_value(x: float, y: float, rho: float, l: float) -> float:
    """E[1 ^ e^{-l sqrt(x) Z1 - l^2/2} ^ e^{-l sqrt(y) Z2 - l^2/2}] for a
    correlated standard normal pair (Z1, Z2) with correlation rho.

    |rho| < 1 reduces to three bivariate normal rectangles; the aligned and
    anti-aligned boundaries use one-dimensional closed forms (the reduction
    divides by sqrt(1 - rho^2)).
    """
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    if l <= 0:
        raise ValueError("l must be positive")
    if math.isnan(rho) or abs(rho) > 1.0 + 1e-12:
        raise ValueError("rho must lie in [-1, 1]")
    rho = min(1.0, max(-1.0, rho))
    if rho >= _RHO_CROSSOVER:
        return gaussian_integrals(math.sqrt(x), math.sqrt(y), l).second
    if rho <= -_RHO_CROSSOVER:
        # antithetic boundary Z2 = -Z1: the two exponentials split at Z1 = 0
        return exp_times_cdf(0.5 * l * l * (x - 1.0), -l * math.sqrt(x)) + exp_times_cdf(
            0.5 * l * l * (y - 1.0), -l * math.sqrt(y)
        )
    rect = bvn_up(l / (2.0 * math.sqrt(x)), l / (2.0 * math.sqrt(y)), rho)
    return rect + _g_tilt_term(x, y, rho, l) + _g_tilt_term(y, x, rho, l)


def drift_c(state: OdeState, l: float, kind: str) -> np.ndarray:
    """Full drift vector l^2 (a(x), a(y), b(x,y,v)) of the 3-D limit.

    b = g(x, y, rho_kind) - v [q(x) + q(y)]; for kind="optimal" the g term
    is the upper bound p(x) ^ p(y) on any coupling's joint acceptance.
    """
    if kind not in DRIFT_KINDS:
        raise ValueError(f"unknown drift kind {kind!r}")
    state = OdeState(*state)
    x, y, v = state.x, state.y, state.v
    a_x = drift_a(x, l)
    a_y = drift_a(y, l)
    if kind == "optimal":
        g = min(accept_prob(x, l), accept_prob(y, l))
    else:
        g = g_value(x, y, rho_limit(kind, state), l)
    b = g - v * (_q(x, l) + _q(y, l))
    return l * l * np.array([a_x, a_y, b])


def _clip_state(w: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    # keep the trajectory inside S; loud failure if it strays materially
    x, y, v = w
    if x < -tol or y < -tol:
        raise RuntimeError(f"trajectory left S: negative norm coordinate {w}")
    x, y = max(x, 0.0), max(y, 0.0)
    bound = math.sqrt(x * y)
    if abs(v) > bound + tol:
        raise RuntimeError(f"trajectory left S: |v| exceeds sqrt(xy) at {w}")
    v = min(bound, max(-bound, v))
    return np.array([x, y, v])


def _rk4(rhs, state: np.ndarray, dt: float, n_steps: int, project) -> np.ndarray:
    """Fixed-step classical Runge-Kutta path of shape (n_steps + 1, dim).

    project maps each new state back onto the admissible set.
    """
    out = np.empty((n_steps + 1, state.size))
    out[0] = state
    for i in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = project(state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out[i + 1] = state
    return out


def integrate_w(
    w0,
    l: float,
    kind: str,
    t_end: float,
    dt: float = 1e-3,
    form: str = "w",
    check_dt: bool = False,
) -> OdeTrajectory:
    """Fixed-step 4th-order integration of the 3-D limit from w0.

    form="w" integrates (x, y, v); form="sd" integrates the squared-distance
    change of variables (x, y, s) and reports v = (x + y - s)/2.  The two
    agree pointwise to well below 1e-9.  check_dt=True reruns at dt/2 and
    raises if the endpoint moves by more than 1e-8.
    """
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    if form not in ("w", "sd"):
        raise ValueError(f"unknown form {form!r}")
    w0 = OdeState(*w0)
    if w0.x < 0 or w0.y < 0 or abs(w0.v) > math.sqrt(w0.x * w0.y) + 1e-12:
        raise ValueError("initial state outside S")

    if form == "w":
        def rhs(w):
            return drift_c(OdeState(*w), l, kind)

        state = np.array([w0.x, w0.y, w0.v])
    else:
        def rhs(w):
            x, y, s = w
            v = 0.5 * (x + y - s)
            c = drift_c(OdeState(x, y, v), l, kind)
            return np.array([c[0], c[1], c[0] + c[1] - 2.0 * c[2]])

        state = np.array([w0.x, w0.y, w0.s])

    n_steps = int(round(t_end / dt))
    project = _clip_state if form == "w" else (lambda w: w)
    out = _rk4(rhs, state, dt, n_steps, project)

    t = dt * np.arange(n_steps + 1)
    if form == "w":
        x, y, v = out[:, 0], out[:, 1], out[:, 2]
        s = x + y - 2.0 * v
    else:
        x, y, s = out[:, 0], out[:, 1], out[:, 2]
        v = 0.5 * (x + y - s)
    traj = OdeTrajectory(t=t, x=x, y=y, v=v, s=s)

    if check_dt:
        fine = integrate_w(w0, l, kind, t_end, dt=dt / 2.0, form=form, check_dt=False)
        gap = max(
            abs(traj.x[-1] - fine.x[-1]),
            abs(traj.y[-1] - fine.y[-1]),
            abs(traj.v[-1] - fine.v[-1]),
        )
        if gap > 1e-8:
            raise RuntimeError(f"dt-halving moved the endpoint by {gap:.3e}")
    return traj


def elliptical_infinitesimal(k: int, quantities, l1: float):
    """Raw drifts of the Omega^k-weighted summaries for elliptical targets.

    quantities = (x_k, y_k, v_k, x1, y1, rho).  Returns (a_k, a_k, b_k)
    evaluated at the given point:

      a_k(x_k; x1) = (1 - 2 x_k) q1(x1) + Phi(-l1/(2 sqrt(x1)))
      b_k(v_k; x1, y1, rho) = g(x1, y1, rho; l1) - v_k [q1(x1) + q1(y1)]

    The index k only selects which coordinates are passed in; the functional
    form is the same for every k.  Callers assemble the coordinate ODE as
    dx_{k-1}/dt = l^2 (z_k^2 / z_{k-1}^2) a_k.
    """
    x_k, y_k, v_k, x1, y1, rho = (float(c) for c in quantities)
    if x1 <= 0 or y1 <= 0:
        raise ValueError("x1 and y1 must be positive")
    q1x = _q(x1, l1)
    q1y = _q(y1, l1)
    a_x = (1.0 - 2.0 * x_k) * q1x + float(ndtr(-l1 / (2.0 * math.sqrt(x1))))
    a_y = (1.0 - 2.0 * y_k) * q1y + float(ndtr(-l1 / (2.0 * math.sqrt(y1))))
    b_v = g_value(x1, y1, rho, l1) - v_k * (q1x + q1y)
    return a_x, a_y, b_v


def two_eigenvalue_ode(
    sigma2: float,
    w0_blocks,
    l: float,
    kind: str,
    t_end: float,
    dt: float = 1e-3,
) -> TwoEigTrajectory:
    """Six-component limit for Sigma = diag(1, sigma^2, 1, sigma^2, ...).

    Tracks per-block summaries (x, y, v) for the unit-eigenvalue block and
    the sigma^2 block, each normalized to 1 at stationarity.  The drifts of
    the Omega^k-weighted combinations at k = 0 and k = 1 determine the two
    block drifts through an invertible 2x2 weight map (singular at
    sigma^2 = 1, where the target is spherical and the blocks collapse).

    w0_blocks = (x_a, y_a, v_a, x_b, y_b, v_b).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if kind not in ("crn", "reflection", "gcrn"):
        raise ValueError(f"unsupported coupling kind {kind!r}")
    w0 = np.asarray(w0_blocks, dtype=float)
    if w0.shape != (6,):
        raise ValueError("w0_blocks must have six components")

    if abs(sigma2 - 1.0) < 1e-12:
        # spherical degeneracy: the block map is singular; valid only when
        # the two blocks start identically, in which case they stay equal
        if not (np.allclose(w0[:3], w0[3:], atol=1e-12)):
            raise ValueError("sigma2 = 1 requires identical block starts")
        traj3 = integrate_w(OdeState(w0[0], w0[1], w0[2]), l, kind, t_end, dt=dt)
        return TwoEigTrajectory(
            t=traj3.t,
            x_a=traj3.x, y_a=traj3.y, v_a=traj3.v,
            x_b=traj3.x.copy(), y_b=traj3.y.copy(), v_b=traj3.v.copy(),
            s=traj3.s,
        )

    lam = np.array([1.0, sigma2])
    # suffix-k coordinate weights: w_b^{(k)} = lam_b^{1-k} / sum lam^{1-k},
    # for k = 0, 1, 2 (giving coordinates x_{-1}, x_0, x_1)
    weights = {}
    for k in (0, 1, 2):
        raw = lam ** (1 - k)
        weights[k] = raw / raw.sum()
    # z_k^2 = tr(Omega^k)/d for this spectrum
    z2 = {k: 0.5 * float((lam ** (-k)).sum()) for k in (-1, 0, 1)}
    eps = z2[1] * z2[-1]
    amap = np.array([weights[0], weights[1]])  # rows: x_{-1}, x_0 equations
    amap_inv = np.linalg.inv(amap)
    l1 = l * math.sqrt(z2[1])

    def suffix(block_x, k):
        return float(np.dot(weights[k + 1], block_x))

    def rhs(w):
        xa, ya, va, xb, yb, vb = w
        bx = np.array([xa, xb])
        by = np.array([ya, yb])
        bv = np.array([va, vb])
        coords = []
        for k in (-1, 0, 1):
            coords.append((suffix(bx, k), suffix(by, k), suffix(bv, k)))
        rho = rho_limit(kind, coords[2], coords[1], coords[0], eps)
        x1, y1 = coords[2][0], coords[2][1]
        # drifts of the suffix coordinates x_{k-1} at k = 0 and k = 1
        rx = np.empty(2)
        ry = np.empty(2)
        rv = np.empty(2)
        for idx, k in enumerate((0, 1)):
            x_k, y_k, v_k = coords[k + 1]
            a_x, a_y, b_v = elliptical_infinitesimal(
                k, (x_k, y_k, v_k, x1, y1, rho), l1
            )
            scale = l * l * (z2[k] / z2[k - 1])
            rx[idx] = scale * a_x
            ry[idx] = scale * a_y
            rv[idx] = scale * b_v
        dxa, dxb = amap_inv @ rx
        dya, dyb = amap_inv @ ry
        dva, dvb = amap_inv @ rv
        return np.array([dxa, dya, dva, dxb, dyb, dvb])

    def project(w):
        return np.concatenate([_clip_state(w[:3]), _clip_state(w[3:])])

    n_steps = int(round(t_end / dt))
    out = _rk4(rhs, w0.copy(), dt, n_steps, project)

    t = dt * np.arange(n_steps + 1)
    w0_weights = weights[0]
    s = (
        out[:, 0] * w0_weights[0] + out[:, 3] * w0_weights[1]
        + out[:, 1] * w0_weights[0] + out[:, 4] * w0_weights[1]
        - 2.0 * (out[:, 2] * w0_weights[0] + out[:, 5] * w0_weights[1])
    )
    return TwoEigTrajectory(
        t=t,
        x_a=out[:, 0], y_a=out[:, 1], v_a=out[:, 2],
        x_b=out[:, 3], y_b=out[:, 4], v_b=out[:, 5],
        s=s,
    )
