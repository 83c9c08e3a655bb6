"""Couplings of Metropolis chains targeting the same (or two different) laws.

Every coupling here keeps each chain marginally exact: the pair of proposal
increments is built so each component is N(0, I_d), and the two acceptance
tests share one uniform.  Meetings are exact (bitwise) because coalescing
branches hand both chains the same proposal array and, once met, both
chains advance with one shared draw.

Increment couplings:

  crn          same increment for both chains
  reflection   increment reflected in the normalized difference X - Y
  gcrn         both increments forced to share their component along the
               local (normalized) gradient direction of their own chain
  gcrn-rotation / gcrn-reflect
               rotate / reflect the increment so the gradient projections
               agree; same projection law as gcrn, different residuals
  reflection-maximal    maximal coupling of the two proposal laws with
               reflected residuals (can propose identical points)
  maximal-independent   maximal coupling with independent residuals
  two-scale    gcrn far apart, reflection-maximal once ||X-Y||^2 < delta
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core_math import RngStream
from .kernels import (
    AnisotropicGaussian,
    HopParams,
    HugParams,
    accept_log_ratio,
    direction,
    hop_accept,
    hop_proposal_law,
    hug_proposal,
    metropolis,
    reflect,
)
from .targets import TargetModel

__all__ = [
    "COUPLING_KINDS",
    "CouplingSpec",
    "CoupledChainState",
    "couple_increments",
    "grad_projection_correlation",
    "reflection_maximal_pair",
    "maximal_independent_pair",
    "coupled_rwm_step",
    "cross_target_coupled_step",
    "coupled_hug_step",
    "coupled_hug_hop_step",
]

COUPLING_KINDS = (
    "crn",
    "reflection",
    "gcrn",
    "gcrn-rotation",
    "gcrn-reflect",
    "reflection-maximal",
    "maximal-independent",
    "two-scale",
)

_GRAD_KINDS = ("gcrn", "gcrn-rotation", "gcrn-reflect")
_INCREMENT_KINDS = ("crn", "reflection") + _GRAD_KINDS


@dataclass(frozen=True)
class CouplingSpec:
    """Which increment coupling to run; delta is the two-scale switch level."""

    kind: str
    delta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "two-scale":
            if self.delta is None or self.delta <= 0:
                raise ValueError("two-scale coupling needs delta > 0")
        elif self.delta is not None:
            raise ValueError(f"delta only applies to two-scale, not {self.kind!r}")


@dataclass
class CoupledChainState:
    """Positions of the two chains, iteration count, and the meeting flag.

    Once met is True both fields reference one array and stay bit-identical.
    branch records the coupling the last step actually used: the two-scale
    sub-coupling, "common" once met, and "crn" where a vanishing gradient
    or difference made an increment coupling fall back to it.
    lp_x and lp_y are the log densities of x and y, each under its own
    chain's target.  A step fills a missing (None) one once, raising
    ValueError if it is not finite, and passes both on to the next state,
    so no step re-evaluates the density of the current positions.
    """

    x: np.ndarray
    y: np.ndarray
    t: int = 0
    met: bool = False
    branch: Optional[str] = field(default=None, compare=False)
    lp_x: Optional[float] = field(default=None, compare=False)
    lp_y: Optional[float] = field(default=None, compare=False)


def _start_density(lp, pos: np.ndarray, target: TargetModel, chain: str) -> float:
    """The cached log density of one chain, evaluated when missing."""
    if lp is None:
        lp = target.log_density(pos)
        if not math.isfinite(lp):
            raise ValueError(
                f"chain {chain} sits where its log density is {lp}; start it inside the support"
            )
    return lp


def _start_densities(state: CoupledChainState, target_x: TargetModel, target_y: TargetModel):
    """(lp_x, lp_y) of a pair; a met pair shares x's."""
    lp_x = _start_density(state.lp_x, state.x, target_x, "x")
    lp_y = lp_x if state.met else _start_density(state.lp_y, state.y, target_y, "y")
    return lp_x, lp_y


def _next_state(state, x, lp_x, y, lp_y, branch, meets=True) -> CoupledChainState:
    """The state after one step; a pair met before or now (bitwise) moves as one."""
    met = meets and (state.met or x is y or bool((x == y).all()))
    if met:
        y, lp_y = x, lp_x
    return CoupledChainState(x=x, y=y, t=state.t + 1, met=met, branch=branch, lp_x=lp_x, lp_y=lp_y)


def couple_increments(
    kind: str,
    z: np.ndarray,
    z1: Optional[float] = None,
    n_x: Optional[np.ndarray] = None,
    n_y: Optional[np.ndarray] = None,
    e: Optional[np.ndarray] = None,
):
    """Turn base randomness (z, z1) into a coupled increment pair (z_x, z_y).

    z is standard normal in R^d and z1 an independent scalar standard
    normal (used only by gcrn).  n_x, n_y are the unit gradient directions
    of each chain, e the unit vector along X - Y.  Each returned increment
    is marginally N(0, I_d).
    """
    if kind == "crn":
        return z, z
    if kind == "reflection":
        if e is None:
            raise ValueError("reflection coupling needs the unit difference e")
        return z, reflect(z, e)
    if kind == "gcrn":
        if n_x is None or n_y is None or z1 is None:
            raise ValueError("gcrn needs both gradient directions and z1")
        zx = z - float(np.dot(n_x, z)) * n_x + z1 * n_x
        zy = z - float(np.dot(n_y, z)) * n_y + z1 * n_y
        return zx, zy
    if kind == "gcrn-rotation":
        if n_x is None or n_y is None:
            raise ValueError("gcrn-rotation needs both gradient directions")
        c = float(np.dot(n_x, n_y))
        if 1.0 - abs(c) < 1e-12:
            if c > 0:  # directions coincide: rotation is the identity
                return z, z
            # antipodal: reflect in n_x, which maps n_x to n_y = -n_x
            return z, reflect(z, n_x)
        w, _ = direction(n_y - c * n_x)
        s = math.sqrt(max(0.0, 1.0 - c * c))
        a, b = float(np.dot(n_x, z)), float(np.dot(w, z))
        zy = z + (c - 1.0) * (a * n_x + b * w) + s * (a * w - b * n_x)
        return z, zy
    if kind == "gcrn-reflect":
        if n_x is None or n_y is None:
            raise ValueError("gcrn-reflect needs both gradient directions")
        e_tilde, _ = direction(n_x - n_y)
        if e_tilde is None:  # directions coincide, nothing to reflect in
            return z, z
        return z, reflect(z, e_tilde)
    raise ValueError(f"couple_increments does not handle kind {kind!r}")


def grad_projection_correlation(
    kind: str,
    state: CoupledChainState,
    target: TargetModel,
    target_y: Optional[TargetModel] = None,
) -> float:
    """Correlation of the two acceptance projections n_x' Z_x and n_y' Z_y.

    For any target this is n_x'n_y under crn, n_x'n_y - 2(n_x'e)(n_y'e)
    = n_x'(reflect(n_y, e)) under reflection (e the unit difference), and
    exactly 1 under the gcrn family.  With a Gaussian target the gradient
    is -(Sigma^-1) x, so these reduce to the precision-weighted inner
    products of the positions, which `ode_limits.rho_limit` takes as input.
    Convention: 1 when the chains have already met.
    """
    x, y = state.x, state.y
    if kind in _GRAD_KINDS or state.met or np.array_equal(x, y):
        return 1.0
    n_x, _ = direction(target.grad(x))
    n_y, _ = direction((target_y or target).grad(y))
    if n_x is None or n_y is None:
        raise ValueError("gradient vanishes; projection correlation undefined")
    if kind == "reflection":
        n_y = reflect(n_y, direction(x - y)[0])
    elif kind != "crn":
        raise ValueError(f"no projection correlation for kind {kind!r}")
    return float(np.dot(n_x, n_y))


def reflection_maximal_pair(x: np.ndarray, y: np.ndarray, h: float, rng: RngStream):
    """Reflection-maximal coupling of the proposal laws N(x, h^2 I), N(y, h^2 I).

    Returns (prop_x, prop_y, coalesced).  With probability
    min(1, phi(z + delta)/phi(z)), delta = (x - y)/h, the proposals are the
    identical array; otherwise the residual is reflected in delta.
    The coalescence probability at distance r is 2 Phi(-r / (2h)).
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    delta = (x - y) / h
    z = rng.standard_normal(x.size)
    u = float(rng.uniform())
    log_accept = -float(np.dot(delta, z)) - 0.5 * float(np.dot(delta, delta))
    prop_x = x + h * z
    if accept_log_ratio(log_accept, u):
        return prop_x, prop_x, True
    return prop_x, y + h * reflect(z, direction(delta)[0]), False


def maximal_independent_pair(law_x, law_y, rng: RngStream):
    """Maximal coupling with independent residuals of two proposal laws.

    Laws need .sample(rng) and .log_density(w) (consistent up to a shared
    constant).  Returns (w_x, w_y, coalesced); on coalescence both entries
    are the identical array.  P(coalesce) = integral of min(q_x, q_y).
    """
    w_x = law_x.sample(rng)
    u1 = float(rng.uniform())
    if accept_log_ratio(law_y.log_density(w_x) - law_x.log_density(w_x), u1):
        return w_x, w_x, True
    for _ in range(100_000):
        w_y = law_y.sample(rng)
        u2 = float(rng.uniform())
        if not accept_log_ratio(law_x.log_density(w_y) - law_y.log_density(w_y), u2):
            return w_x, w_y, False
    raise RuntimeError("maximal coupling rejection loop exceeded 100000 tries")


def _increment_proposals(kind, x, y, h, target_x, target_y, rng: RngStream):
    """Proposals x + h z_x, y + h z_y from one shared draw (z, and z1 for gcrn).

    Each chain takes its gradient direction from its own target.  A
    vanishing gradient or difference falls back to crn, which keeps both
    chains marginally exact.  Returns (prop_x, prop_y, kind actually used).
    """
    z = rng.standard_normal(x.size)
    z1 = float(rng.standard_normal()) if kind == "gcrn" else None
    n_x = n_y = e = None
    if kind in _GRAD_KINDS:
        n_x, _ = direction(target_x.grad(x))
        n_y, _ = direction(target_y.grad(y))
        if n_x is None or n_y is None:
            kind = "crn"
    if kind == "reflection":
        e, _ = direction(x - y)
        if e is None:
            kind = "crn"
    zx, zy = couple_increments(kind, z, z1=z1, n_x=n_x, n_y=n_y, e=e)
    return x + h * zx, y + h * zy, kind


def _rwm_pair_step(state, kind, delta, h, target_x, target_y, rng: RngStream):
    """One RWM step of each chain, on its own target, under coupling kind.

    Both acceptance tests use one shared uniform, so each chain is
    marginally an exact RWM(h) chain.  delta is the two-scale switch
    level.  A pair on one target (target_y is target_x) meets when its
    positions coincide and from then on moves with one shared draw.
    """
    if h <= 0:
        raise ValueError("step size h must be positive")
    lp_x, lp_y = _start_densities(state, target_x, target_y)
    x, y = state.x, state.y
    if state.met:
        kind = "common"
    elif kind == "two-scale":
        kind = "gcrn" if float(np.dot(x - y, x - y)) >= delta else "reflection-maximal"

    if kind == "common":
        # both chains move with one shared draw, staying identical
        prop_x = prop_y = x + h * rng.standard_normal(x.size)
    elif kind in _INCREMENT_KINDS:
        prop_x, prop_y, kind = _increment_proposals(kind, x, y, h, target_x, target_y, rng)
    elif kind == "reflection-maximal":
        prop_x, prop_y, _ = reflection_maximal_pair(x, y, h, rng)
    else:  # maximal-independent; the public steps validate kinds
        axis = np.eye(1, x.size)[0]  # any unit axis: equal sds make the law N(., h^2 I)
        law_x, law_y = (AnisotropicGaussian(c, axis, h, h) for c in (x, y))
        prop_x, prop_y, _ = maximal_independent_pair(law_x, law_y, rng)

    u = float(rng.uniform())
    # coalesced proposals are one array, so its density is evaluated once
    lp_prop_x = target_x.log_density(prop_x)
    lp_prop_y = lp_prop_x if prop_y is prop_x else target_y.log_density(prop_y)
    x, lp_x = metropolis(x, lp_x, prop_x, lp_prop_x, u)
    y, lp_y = metropolis(y, lp_y, prop_y, lp_prop_y, u)
    return _next_state(state, x, lp_x, y, lp_y, kind, meets=target_y is target_x)


def coupled_rwm_step(
    state: CoupledChainState,
    cspec: CouplingSpec,
    h: float,
    target: TargetModel,
    rng: RngStream,
) -> CoupledChainState:
    """One synchronous step of two RWM chains under the requested coupling.

    Both acceptance tests use one shared uniform.  Marginally each chain is
    an exact RWM(h) chain.  Meetings are sticky: once positions coincide the
    chains are advanced together forever.
    """
    return _rwm_pair_step(state, cspec.kind, cspec.delta, h, target, target, rng)


def cross_target_coupled_step(
    state: CoupledChainState,
    h: float,
    target_x: TargetModel,
    target_y: TargetModel,
    kind: str,
    rng: RngStream,
) -> CoupledChainState:
    """Couple an RWM chain on target_x with one on target_y (bias mode).

    Supports crn, reflection and the gcrn family; each chain uses its own
    target in both the gradient direction and the acceptance ratio.  The
    chains never meet (the targets differ), so met is never set.
    """
    if kind not in _INCREMENT_KINDS:
        raise ValueError(f"cross-target coupling does not support kind {kind!r}")
    return _rwm_pair_step(state, kind, None, h, target_x, target_y, rng)


def _hug_move(x, lp_x, v, u, hug, target):
    out = hug_proposal(x, v, hug, target)
    if out is None:
        return x, lp_x  # zero gradient: this chain rejects its hug move
    return metropolis(x, lp_x, out[0], target.log_density(out[0]), u)


def _hug_phase(state, hug, target, rng):
    """Shared-velocity, shared-uniform Hug moves; returns (x, lp_x, y, lp_y)."""
    lp_x, lp_y = _start_densities(state, target, target)
    v = rng.standard_normal(state.x.size)
    u_hug = float(rng.uniform())
    x, lp_x = _hug_move(state.x, lp_x, v, u_hug, hug, target)
    y, lp_y = (x, lp_x) if state.met else _hug_move(state.y, lp_y, v, u_hug, hug, target)
    return x, lp_x, y, lp_y


def coupled_hug_step(
    state: CoupledChainState,
    hug: HugParams,
    target: TargetModel,
    rng: RngStream,
) -> CoupledChainState:
    """One coupled Hug move: both chains share the velocity and uniform."""
    x_new, lp_x, y_new, lp_y = _hug_phase(state, hug, target, rng)
    branch = "common" if state.met else "hug"
    return _next_state(state, x_new, lp_x, y_new, lp_y, branch)


def coupled_hug_hop_step(
    state: CoupledChainState,
    hug: HugParams,
    hop: HopParams,
    delta_hop: float,
    target: TargetModel,
    rng: RngStream,
) -> CoupledChainState:
    """One Hug move then one Hop move, both coupled, with shared uniforms.

    Hug shares the velocity draw (common random numbers; bounces use each
    chain's own gradients).  Hop couples the proposal laws with shared
    (z, z1) through each chain's gradient frame while the chains are far
    apart, and switches to a maximal coupling with independent residuals
    once ||X-Y||^2 < delta_hop, which is what produces exact meetings.
    """
    if delta_hop <= 0:
        raise ValueError("delta_hop must be positive")
    x_cur, lp_x, y_cur, lp_y = _hug_phase(state, hug, target, rng)

    # Hop phase
    law_x = hop_proposal_law(x_cur, hop, target)
    law_y = None if state.met else hop_proposal_law(y_cur, hop, target)
    sq = float(np.dot(x_cur - y_cur, x_cur - y_cur))
    branch = "hop-gcrn" if sq >= delta_hop else "hop-maximal"
    if state.met:
        branch = "common"
    elif law_x is None or law_y is None:
        # degenerate gradient: shared draws, each defined chain proposes alone
        branch = "hop-degenerate"
    if branch == "hop-maximal":
        prop_x, prop_y, _ = maximal_independent_pair(law_x, law_y, rng)
    else:
        z = rng.standard_normal(x_cur.size)
        z1 = float(rng.standard_normal())
        prop_x = law_x.center + law_x.displacement(z, z1) if law_x is not None else None
        prop_y = law_y.center + law_y.displacement(z, z1) if law_y is not None else None

    u_hop = float(rng.uniform())
    if law_x is not None:
        x_cur, lp_x = hop_accept(x_cur, lp_x, law_x, prop_x, u_hop, hop, target)
    if law_y is not None:
        y_cur, lp_y = hop_accept(y_cur, lp_y, law_y, prop_y, u_hop, hop, target)
    return _next_state(state, x_cur, lp_x, y_cur, lp_y, branch)
