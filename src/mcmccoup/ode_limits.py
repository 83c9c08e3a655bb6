"""Deterministic high-dimensional limits of coupled random walk Metropolis.

With step size h = l d^{-1/2} and a Gaussian target, the scaled summary
W = (||X||^2, ||Y||^2, X'Y)/d converges to the solution of a 3-D ODE
w' = l^2 (a(x), a(y), b(x,y,v)) as d grows.  This module evaluates those
drifts for each coupling, integrates the ODE for a batch of trajectories
at once (also in squared-distance form), and extends the construction to
elliptical targets: the raw per-index infinitesimals of the expected
changes in the Omega^k-weighted norms, and the closed six-component system
for targets whose covariance has exactly two distinct eigenvalues of equal
multiplicity, in which each eigenvalue block moves by its own closed-form
drift.

All acceptance expectations reduce to the one-dimensional Gaussian
integrals and bivariate normal rectangle probabilities of `core_math`;
everything is evaluated in log space so the exponential tilts cannot
overflow.  The drift code is elementwise array arithmetic over rows of
states, so the scalar functions are batches of one of the same code and
agree with any batch bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core_math import _coordinate_terms, _g_aligned, _row_constants, _tail_exp, bvn_columns

__all__ = [
    "OdeState",
    "OdeTrajectory",
    "TwoEigTrajectory",
    "accept_prob",
    "drift_a",
    "rho_limit",
    "g_value",
    "drift_c",
    "integrate_rows",
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


@np.errstate(divide="ignore")
def accept_prob(x: float, l: float) -> float:
    """Limiting acceptance probability given scaled squared norm x.

    At x = 0 every proposal from the mode costs exactly l^2/2 in log
    density, so the probability is e^{-l^2/2}.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if l <= 0:
        raise ValueError("l must be positive")
    *_, P, Q = _coordinate_terms(np.float64(x), _row_constants(float(l)))
    return float(P + Q)


@np.errstate(divide="ignore")
def drift_a(x: float, l: float) -> float:
    """Drift of the scaled squared norm: (1-2x) q(x) + Phi(-l/(2 sqrt x)).

    Zero exactly at x = 1; positive below, negative above.  The x = 0
    boundary takes the continuous limit e^{-l^2/2}.
    """
    if l <= 0:
        raise ValueError("l must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    x = np.float64(x)
    *_, P, Q = _coordinate_terms(x, _row_constants(float(l)))
    return float((1.0 - 2.0 * x) * Q + P)


def _rho_rows(kind: str, w1, w0, wm1, eps):
    # rho_limit elementwise over scalars or arrays with x_1, y_1 > 0
    x_1, y_1, v_1 = w1
    sxy = np.sqrt(x_1 * y_1)
    rho = v_1 / sxy
    if kind == "reflection":
        x_0, y_0, v_0 = w0
        x_m1, y_m1, v_m1 = wm1
        denom = x_m1 + y_m1 - 2.0 * v_m1
        # at the boundary x = y = v the tilt is 0/0: rho = 1 there
        flat = denom <= 1e-14 * (x_m1 + y_m1)
        denom = np.where(flat, 1.0, denom)
        rho = np.where(flat, 1.0, rho + 2.0 * (x_0 - v_0) * (y_0 - v_0) / (eps * sxy * denom))
    return np.minimum(1.0, np.maximum(-1.0, rho))


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
    x_1, y_1, _ = w1
    if kind == "gcrn":
        return 1.0
    if kind not in ("crn", "reflection"):
        raise ValueError(f"no projection correlation for kind {kind!r}")
    if x_1 < 0 or y_1 < 0:
        raise ValueError("state outside S: negative squared norm")
    if x_1 == 0.0 or y_1 == 0.0:
        return 1.0
    w0 = w1 if w0 is None else w0
    wm1 = w1 if wm1 is None else wm1
    return float(_rho_rows(kind, w1, w0, wm1, eps))


_RHO_CROSSOVER = 1.0 - 1e-6
_LEAST_POSITIVE = np.nextafter(0.0, 1.0)


def _g_rectangles(rho, sX, lsX, R, U, c):
    # |rho| < 1: P(both accept outright) plus, for each chain, the tilted
    # rectangle E[e^{A_1}; A_1 < 0, A_1 <= A_2] with A_i = -l sqrt(.) Z_i -
    # l^2/2; the three rectangles go through one bvn call
    nb = (sX / sX[::-1] - rho) / np.sqrt(1.0 - rho * rho)
    r_tilt = nb / np.sqrt(1.0 + nb * nb)
    hkr = np.empty((3, 3) + rho.shape)  # (h, k, r) x (both, tilt x, tilt y)
    hkr[0, 0], hkr[1, 0], hkr[2, 0] = R[0], R[1], rho
    np.multiply(lsX, r_tilt, out=hkr[0, 1:])
    np.negative(U, out=hkr[1, 1:])
    hkr[2, 1:] = r_tilt
    rect = bvn_columns(hkr.reshape(3, -1)).reshape(hkr.shape[1:])
    tilt = np.exp(c + np.log(rect[1:]))
    return rect[0] + tilt[0] + tilt[1]


def _g_rows(rho, terms):
    """g elementwise over rows with norms x, y > 0 and rho in [-1, 1], from
    the rows' `_coordinate_terms` (x and y stacked on their first axis).
    Rows are arrays, or numpy scalars for a single row.

    |rho| < 1 - 1e-6 reduces to three bivariate normal rectangles; the
    aligned and anti-aligned boundaries beyond use one-dimensional closed
    forms (the reduction divides by sqrt(1 - rho^2)).  Rows all inside or
    all aligned (a single row always is one or the other, or anti-aligned)
    take that branch alone; a mixed batch is split by masks.
    """
    sX, lsX, R, U, c, P, Q = terms
    hi = rho >= _RHO_CROSSOVER
    mid = ~hi & (rho > -_RHO_CROSSOVER)
    if mid.all():
        return _g_rectangles(rho, sX, lsX, R, U, c)
    E = _tail_exp(terms)
    if hi.all():
        return _g_aligned(E, P, Q)
    # the anti-aligned boundary Z2 = -Z1 splits the two exponentials at
    # Z1 = 0, giving E(x) + E(y)
    g = E[0] + E[1]
    if hi.any():
        g[hi] = _g_aligned(E[:, hi], P[:, hi], Q[:, hi])
    if mid.any():
        g[mid] = _g_rectangles(
            rho[mid], sX[:, mid], lsX[:, mid], R[:, mid], U[:, mid], c[:, mid]
        )
    return g


def _check_g_arguments(x: float, y: float, rho: float, l: float) -> float:
    # g's domain; returns rho with rounding beyond [-1, 1] clipped off
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    if l <= 0:
        raise ValueError("l must be positive")
    if math.isnan(rho) or abs(rho) > 1.0 + 1e-12:
        raise ValueError("rho must lie in [-1, 1]")
    return min(1.0, max(-1.0, rho))


@np.errstate(divide="ignore")
def g_value(x: float, y: float, rho: float, l: float) -> float:
    """E[1 ^ e^{-l sqrt(x) Z1 - l^2/2} ^ e^{-l sqrt(y) Z2 - l^2/2}] for a
    correlated standard normal pair (Z1, Z2) with correlation rho.

    A batch of one through the array code that `integrate_rows` runs.
    """
    rho = _check_g_arguments(x, y, rho, l)
    terms = _coordinate_terms(np.array([x, y], dtype=float), _row_constants(float(l)))
    return float(_g_rows(np.float64(rho), terms))


def _drift_rows(X, v, kind: str, lc):
    # drift_c before the l^2 factor, as (a(x), a(y)) and b, for rows of one
    # kind: norms X = (x, y) > 0 (>= 0 for optimal) stacked on the first
    # axis, inner products v and `_row_constants` lc
    terms = _coordinate_terms(X, lc)
    P, Q = terms[5], terms[6]
    A = (1.0 - 2.0 * X) * Q + P
    if kind == "optimal":
        PQ = P + Q
        g = np.minimum(PQ[0], PQ[1])
    elif kind == "gcrn":
        g = _g_aligned(_tail_exp(terms), P, Q)
    else:
        w = (X[0], X[1], v)
        g = _g_rows(_rho_rows(kind, w, w, w, 1.0), terms)
    return A, g - v * (Q[0] + Q[1])


def _check_drift_kind(kind: str) -> None:
    if kind not in DRIFT_KINDS:
        raise ValueError(f"unknown drift kind {kind!r}")


@np.errstate(divide="ignore")
def drift_c(state: OdeState, l: float, kind: str) -> np.ndarray:
    """Full drift vector l^2 (a(x), a(y), b(x,y,v)) of the 3-D limit.

    b = g(x, y, rho_kind) - v [q(x) + q(y)]; for kind="optimal" the g term
    is the upper bound p(x) ^ p(y) on any coupling's joint acceptance.  A
    batch of one through the array code that `integrate_rows` runs.
    """
    _check_drift_kind(kind)
    if l <= 0:
        raise ValueError("l must be positive")
    x, y, v = (float(c) for c in state)
    if x < 0 or y < 0:
        raise ValueError("x and y must be nonnegative")
    if kind != "optimal" and (x == 0 or y == 0):
        raise ValueError(f"x and y must be positive for kind {kind!r}")
    l = float(l)
    A, b = _drift_rows(np.array([x, y]), np.float64(v), kind, _row_constants(l))
    return np.array([A[0], A[1], b]) * (l * l)


def _clip_state(w: np.ndarray, name, tol: float = 1e-8) -> np.ndarray:
    """Project rows (x, y, v) of w onto S; a row that strays materially
    (or is not a number) raises, with name(i) naming row i."""
    out = np.maximum(w, 0.0)
    xy, v = w[:, :2], w[:, 2]
    bound = np.sqrt(out[:, 0] * out[:, 1])
    if not (xy.min() >= -tol and (np.abs(v) - bound).max() <= tol):
        i = int(np.flatnonzero(~((xy >= -tol).all(axis=1) & (np.abs(v) - bound <= tol)))[0])
        raise RuntimeError(f"trajectory left S at {w[i]} ({name(i)})")
    out[:, 2] = np.minimum(bound, np.maximum(-bound, v))
    return out


def _check_run(starts, t_end: float, dt: float, name) -> None:
    """Raise ValueError unless dt > 0 and t_end >= 0 are finite and each start i lies in S."""
    if not (0 < dt < math.inf and 0 <= t_end < math.inf):
        raise ValueError("need finite dt > 0 and t_end >= 0")
    for i, (x, y, v) in enumerate(starts):
        if not (x >= 0 and y >= 0 and abs(v) <= math.sqrt(x * y) + 1e-12):
            raise ValueError(f"initial state outside S ({name(i)})")


def _rk4(rhs, state: np.ndarray, dt: float, n_steps: int, project) -> np.ndarray:
    """Fixed-step classical Runge-Kutta path of shape (n_steps + 1,) + state.shape.

    project maps each new state back onto the admissible set.
    """
    out = np.empty((n_steps + 1,) + state.shape)
    out[0] = state
    half = 0.5 * dt
    for i in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + half * k1)
        k3 = rhs(state + half * k2)
        k4 = rhs(state + dt * k3)
        state = project(state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out[i + 1] = state
    return out


@np.errstate(divide="ignore")
def integrate_rows(rows, t_end: float, dt: float = 1e-3, form: str = "w") -> list:
    """Fixed-step 4th-order integration of the 3-D limit for a batch of rows.

    rows: a sequence of (w0, l, kind), each a start in S, a step parameter
    and a drift kind.  All rows advance together as one (n, 3) state.  Rows
    are grouped by kind once, so each RK4 stage evaluates one array drift
    per kind (on numpy scalars for a kind with a single row).
    Returns one `OdeTrajectory` per row, in order, each equal bit for bit to
    `integrate_w` on that row alone.  A row whose drift leaves its domain or
    whose path leaves S raises, naming its (w0, l, kind).

    form="w" integrates (x, y, v); form="sd" integrates the squared-distance
    change of variables (x, y, s) and reports v = (x + y - s)/2.
    """
    if form not in ("w", "sd"):
        raise ValueError(f"unknown form {form!r}")
    starts, ls, kinds = [], [], []
    for w0, l, kind in rows:
        w0 = OdeState(*(float(c) for c in w0))
        _check_drift_kind(kind)
        if not l > 0:
            raise ValueError(f"l must be positive (row {len(starts)}: l={l}, kind={kind})")
        starts.append(w0)
        ls.append(float(l))
        kinds.append(kind)

    def name(i):
        return f"row {i}: w0={tuple(starts[i])}, l={ls[i]}, kind={kinds[i]}"

    _check_run(starts, t_end, dt, name)
    if not starts:
        return []

    l_all = np.array(ls)
    l2 = (l_all * l_all)[:, None]
    # (kind, its row numbers, their index into the state, their row
    # constants, the least norm its drift takes: 0 for optimal, else the
    # least positive double); a kind with a single row indexes it by an int,
    # so that its drift runs on numpy scalars, several times faster than on
    # 1-element arrays
    groups = []
    for kind in dict.fromkeys(kinds):
        members = np.flatnonzero(np.array(kinds) == kind)
        idx = int(members[0]) if members.size == 1 else members
        least = 0.0 if kind == "optimal" else _LEAST_POSITIVE
        groups.append((kind, members, idx, _row_constants(l_all[idx]), least))

    def drift(w):
        out = np.empty(w.shape)
        for kind, members, idx, lc, least in groups:
            X, v = w[idx, :2].T, w[idx, 2]
            if not X.min() >= least:
                i = members[~(np.atleast_1d(X.min(axis=0)) >= least)][0]
                raise ValueError(f"drift outside its domain at {w[i]} ({name(i)})")
            A, b = _drift_rows(X, v, kind, lc)
            out[idx, :2], out[idx, 2] = A.T, b
        out *= l2
        return out

    state = np.array(starts)
    if form == "w":
        rhs = drift

        def project(w):
            return _clip_state(w, name)
    else:
        state[:, 2] = [w0.s for w0 in starts]

        def rhs(w):
            wv = w.copy()
            wv[:, 2] = 0.5 * (w[:, 0] + w[:, 1] - w[:, 2])
            c = drift(wv)
            c[:, 2] = c[:, 0] + c[:, 1] - 2.0 * c[:, 2]
            return c

        def project(w):
            return w

    n_steps = int(round(t_end / dt))
    out = _rk4(rhs, state, dt, n_steps, project)

    t = dt * np.arange(n_steps + 1)
    trajs = []
    for i in range(len(starts)):
        x, y, third = out[:, i, 0], out[:, i, 1], out[:, i, 2]
        if form == "w":
            v, s = third, x + y - 2.0 * third
        else:
            v, s = 0.5 * (x + y - third), third
        trajs.append(OdeTrajectory(t=t, x=x, y=y, v=v, s=s))
    return trajs


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

    The batch of one of `integrate_rows`: the trajectory equals, bit for
    bit, that row's trajectory in any batch.  form="w" integrates (x, y, v);
    form="sd" integrates the squared-distance change of variables (x, y, s)
    and reports v = (x + y - s)/2.  The two agree pointwise to well below
    1e-9.  check_dt=True reruns at dt/2 and raises if the endpoint moves by
    more than 1e-8.
    """
    (traj,) = integrate_rows([(w0, l, kind)], t_end, dt=dt, form=form)
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


@np.errstate(divide="ignore")
def _elliptical_rows(w, x1, y1, rho, l1) -> np.ndarray:
    # (a(x), a(y), b(v)) of each row (x, y, v) of w (elliptical_infinitesimal), all sharing
    # the acceptance terms of x1, y1 > 0, step l1 and the numpy float rho in [-1, 1]
    terms = _coordinate_terms(np.array([x1, y1], dtype=float), _row_constants(float(l1)))
    P, Q = terms[5], terms[6]
    out = np.empty(w.shape)
    out[..., :2] = (1.0 - 2.0 * w[..., :2]) * Q + P
    out[..., 2] = _g_rows(rho, terms) - w[..., 2] * (Q[0] + Q[1])
    return out


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
    rho = _check_g_arguments(x1, y1, rho, l1)
    drifts = _elliptical_rows(np.array([x_k, y_k, v_k]), x1, y1, np.float64(rho), l1)
    return tuple(float(c) for c in drifts)


def two_eigenvalue_ode(
    sigma2: float,
    w0_blocks,
    l: float,
    kind: str,
    t_end: float,
    dt: float = 1e-3,
) -> TwoEigTrajectory:
    """Six-component limit for Sigma = diag(1, sigma^2, 1, sigma^2, ...).

    The state holds the (x, y, v) of the unit-eigenvalue block and of the
    sigma^2 block, each normalized to 1 at stationarity, as (2, 3) rows.
    With lambda = (1, sigma^2), the weighted coordinates w_k = sum_b
    lambda_b^{-k} w_b / sum_b lambda_b^{-k} at k = 1, 0, -1 give rho
    (`rho_limit`, eps = z_1^2 z_{-1}^2 with z_k^2 the mean of lambda^{-k})
    and the acceptance terms at (x_1, y_1) with l_1 = l z_1 that the blocks
    share.  Block b moves by its own closed-form drift (l^2 / lambda_b)
    (a(x_b), a(y_b), b(v_b)), with a and b those of
    `elliptical_infinitesimal`; weighted by row k these give its coordinate
    ODE.  At sigma^2 = 1 the block averages follow `integrate_w`.

    w0_blocks = (x_a, y_a, v_a, x_b, y_b, v_b).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if l <= 0:
        raise ValueError("l must be positive")
    if kind not in ("crn", "reflection", "gcrn"):
        raise ValueError(f"unsupported coupling kind {kind!r}")
    w0 = np.asarray(w0_blocks, dtype=float)
    if w0.shape != (6,):
        raise ValueError("w0_blocks must have six components")
    w0 = w0.reshape(2, 3)
    name = ("unit-eigenvalue block", "sigma^2 block").__getitem__
    _check_run(w0, t_end, dt, name)

    lam = np.array([1.0, sigma2])
    # rows k = 1, 0, -1 are proportional to lam^{-k}; z_k^2 is their mean
    powers = np.array([1.0 / lam, np.ones(2), lam])
    weights = powers / powers.sum(axis=1, keepdims=True)
    z2 = powers.mean(axis=1)
    eps = z2[0] * z2[2]
    l1 = l * math.sqrt(z2[0])
    scale = (l * l / lam)[:, None]

    def drift(w):
        # as Python floats: _rho_rows' scalar arithmetic is slower on numpy scalars
        c1, c0, cm1 = (weights @ w).tolist()
        if not (c1[0] > 0 and c1[1] > 0):
            raise ValueError(f"drift outside its domain at weighted norms {c1[:2]}")
        rho = np.float64(1.0) if kind == "gcrn" else _rho_rows(kind, c1, c0, cm1, eps)
        return scale * _elliptical_rows(w, c1[0], c1[1], rho, l1)

    n_steps = int(round(t_end / dt))
    out = _rk4(drift, w0, dt, n_steps, lambda w: _clip_state(w, name))
    s = (out[..., 0] + out[..., 1] - 2.0 * out[..., 2]) @ weights[2]
    return TwoEigTrajectory(
        t=dt * np.arange(n_steps + 1),
        x_a=out[:, 0, 0], y_a=out[:, 0, 1], v_a=out[:, 0, 2],
        x_b=out[:, 1, 0], y_b=out[:, 1, 1], v_b=out[:, 1, 2],
        s=s,
    )
