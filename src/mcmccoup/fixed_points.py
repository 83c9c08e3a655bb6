"""Stationary fixed points of the coupled limit dynamics.

With both chains marginally stationary (x = y = 1), the inner-product
coordinate of the deterministic limit obeys v' = l^2 [h(rho(v)) - 2 v
Phi(-l/2)], where rho(v) is the coupling's projection correlation and h is
the joint acceptance expectation on the stationary diagonal.  The stable
root v* gives the long-time scaled squared distance s_inf = 2 (1 - v*).
Elliptical targets enter through a single ellipticity number eps: under the
reflection coupling rho(v) = v + (1 - v)/eps, so eps = 1 recovers GCRN and
eps -> infinity degrades to CRN.  Here l is the effective (acceptance
scale) step parameter; for an elliptical target pass l_1 = l z_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from scipy.special import ndtr

from .core_math import bvn

__all__ = [
    "FixedPointResult",
    "SweepRow",
    "h_rho",
    "solve_fixed_point",
    "sweep_asymptotes",
]

FIXED_POINT_KINDS = ("crn", "reflection", "gcrn")

_V_LO = 1e-9
_V_HI = 1.0 - 1e-9


def h_rho(rho: float, l: float) -> float:
    """Joint acceptance expectation E[1 ^ e^{-lZ1-l^2/2} ^ e^{-lZ2-l^2/2}]
    for standard normal (Z1, Z2) with correlation rho.

    Evaluated as two bivariate normal rectangles in one `bvn` call;
    h(1; l) = 2 Phi(-l/2).  This is `ode_limits.g_value(1, 1, rho, l)`, but
    g takes its aligned closed form from rho >= 1 - 1e-6 on, while the
    fixed-point bracket reaches 1 - 1e-9 and needs the sqrt(1 - rho) cusp
    that the rectangles keep up to rho = 1.
    """
    if not -1.0 <= rho <= 1.0 or math.isnan(rho):
        raise ValueError("rho must lie in [-1, 1]")
    if l <= 0:
        raise ValueError("l must be positive")
    r = math.sqrt(0.5 * (1.0 - rho))
    p = bvn((0.5 * l, 0.5 * l), (0.5 * l, l * r), (rho, r))
    return float(p[0] + 2.0 * p[1])


@dataclass(frozen=True)
class FixedPointResult:
    v_star: float
    s_inf: float
    stability: str
    kind: str
    l: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.v_star <= 1.0:
            raise ValueError("v_star must lie in (0, 1]")
        if abs(self.s_inf - 2.0 * (1.0 - self.v_star)) > 1e-15:
            raise ValueError("s_inf must equal 2 (1 - v_star)")


def _bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    # precondition f(lo) > 0 > f(hi); resolve to |interval| <= 1e-13
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_bracketed(f, lo, hi):
    # returns (root, saturated); saturates at an edge when the root falls
    # outside double-precision resolution (extreme l underflows the h side)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0.0 > f_hi:
        return _bisect_root(f, lo, hi), False
    if f_lo <= 0.0 and f_hi < 0.0:
        return lo, True
    if f_lo > 0.0 and f_hi >= 0.0:
        return hi, True
    raise RuntimeError(
        f"no sign change on bracket ({lo:.3g}, {hi:.3g}): f = {f_lo:.3g}, {f_hi:.3g}"
    )


def _stability(f, root, lo, hi) -> str:
    step = min(1e-7, 0.25 * (root - lo), 0.25 * (hi - root))
    if step <= 0:
        return "stable"  # saturated at an edge; the flow points into the edge
    slope = (f(root + step) - f(root - step)) / (2.0 * step)
    return "stable" if slope < 0 else "unstable"


def solve_fixed_point(kind: str, l: float, epsilon: float = 1.0) -> FixedPointResult:
    """Stable fixed point of the stationary inner-product dynamics.

    gcrn: v = 1 for every l and epsilon.  crn: the interior root of
    h(v; l) = 2 v Phi(-l/2) (independent of epsilon).  reflection: the root
    of h(rho; l) = h(1; l) (rho - 1/eps)/(1 - 1/eps) on (1/eps, 1), mapped
    back through v = (rho - 1/eps)/(1 - 1/eps); epsilon = 1 returns v = 1
    exactly (the coupling degenerates to GCRN).
    """
    if kind not in FIXED_POINT_KINDS:
        raise ValueError(f"unknown coupling kind {kind!r}")
    if l <= 0:
        raise ValueError("l must be positive")
    if epsilon < 1.0:
        raise ValueError("epsilon must be >= 1")

    if kind == "gcrn":
        return FixedPointResult(1.0, 0.0, "stable", kind, l, epsilon)

    phi_half = float(ndtr(-0.5 * l))

    if kind == "crn":
        def f(v):
            return h_rho(v, l) - 2.0 * v * phi_half

        root, saturated = _solve_bracketed(f, _V_LO, _V_HI)
        stability = "stable" if saturated else _stability(f, root, _V_LO, _V_HI)
        return FixedPointResult(root, 2.0 * (1.0 - root), stability, kind, l, epsilon)

    # reflection
    if epsilon == 1.0:
        return FixedPointResult(1.0, 0.0, "stable", kind, l, epsilon)
    inv = 1.0 / epsilon
    h_one = h_rho(1.0, l)

    def f_rho(rho):
        return h_rho(rho, l) - h_one * (rho - inv) / (1.0 - inv)

    lo = inv + (1.0 - inv) * _V_LO
    hi = _V_HI
    if lo >= hi:
        raise RuntimeError(f"rho bracket collapsed for epsilon = {epsilon}")
    rho_star, saturated = _solve_bracketed(f_rho, lo, hi)
    v_star = (rho_star - inv) / (1.0 - inv)
    v_star = min(1.0, max(_V_LO, v_star))
    stability = "stable" if saturated else _stability(f_rho, rho_star, lo, hi)
    return FixedPointResult(v_star, 2.0 * (1.0 - v_star), stability, kind, l, epsilon)


class SweepRow(NamedTuple):
    l: float
    epsilon: float
    kind: str
    v_star: float
    s_inf: float
    esjd: float


def sweep_asymptotes(
    kind: str, l_grid: Sequence[float], eps_grid: Sequence[float] = (1.0,)
) -> list[SweepRow]:
    """Fixed-point asymptotes over a grid, with the marginal chains' expected
    squared jump distance 2 l^2 Phi(-l/2) as a context column."""
    if len(l_grid) == 0 or len(eps_grid) == 0:
        raise ValueError("grids must be non-empty")
    rows = []
    for eps in eps_grid:
        for l in l_grid:
            res = solve_fixed_point(kind, l, eps)
            esjd = 2.0 * l * l * float(ndtr(-0.5 * l))
            rows.append(SweepRow(l, eps, kind, res.v_star, res.s_inf, esjd))
    return rows
