"""Output checks for each benchmarked experiment.

Every check compares the written CSVs with an independent computation or
with a property the method must have; none compares with a stored copy of
earlier output.  A check returns {operation key: reason} for the
operations whose output failed it; an empty mapping means every operation
passed.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ndtr

from workloads import (
    cmp_names,
    elliptical_targets,
    ode_traj_names,
    operations,
    read_rows,
)

# ODE trajectories: fixed-step RK4 against an adaptive reference
ODE_X_TOL = 1e-6
ORDER_SLACK = 1e-12
# sup |mean MCMC trace - ODE limit| <= NOISE_C / sqrt(d R) + BIAS_C / sqrt(d):
# the first term is replicate noise of s = |X - Y|^2 / d (s <= 2 here), the
# second the finite-d lag of the reflection coupling, which replicates do
# not average away
SUP_GAP_NOISE_C = 10.0
SUP_GAP_BIAS_C = 5.0
# |plateau - predicted fixed point| <= C / sqrt(d R); the reflection
# plateau fluctuates far more than the crn one (across seeds at d = 400
# with one replicate its SD is about 0.2, crn's under 0.1).  gcrn has no
# such check: its fixed point is 0, but at the end of the run it is still
# contracting, more slowly the larger epsilon, and chi-square spectra give
# heavy-tailed epsilon; it must lie below the measured reflection plateau.
PLATEAU_C = {"crn": 8.0, "reflection": 16.0}
EPS_REL_TOL = 1e-9


def _col(rows: List[Dict[str, str]], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _fail_all(cfg: Dict, reason: str) -> Dict[str, str]:
    return {op: reason for op in operations(cfg)}


def marginal_x(x0: float, l: float, t: np.ndarray) -> np.ndarray:
    """dx/dt = l^2 [(1-2x) e^{l^2(x-1)/2} Phi(l/(2 sqrt x) - l sqrt x) + Phi(-l/(2 sqrt x))]."""

    def rhs(_, x):
        rx = math.sqrt(max(x[0], 1e-300))
        tilt = math.exp(0.5 * l * l * (x[0] - 1.0)) * ndtr(l / (2.0 * rx) - l * rx)
        return [l * l * ((1.0 - 2.0 * x[0]) * tilt + ndtr(-l / (2.0 * rx)))]

    sol = solve_ivp(rhs, (0.0, float(t[-1])), [x0], method="DOP853",
                    rtol=1e-11, atol=1e-13, t_eval=t)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[0]


def check_ode_spherical(cfg: Dict, rundir: str) -> Dict[str, str]:
    failed: Dict[str, str] = {}
    reference: Dict = {}
    s_end: Dict = {}
    for s_idx, l, kind, name in ode_traj_names(cfg):
        path = os.path.join(rundir, name)
        if not os.path.exists(path):
            failed[name] = "missing"
            continue
        rows = read_rows(path)
        t, x, y, v, s = (_col(rows, c) for c in ("t", "x", "y", "v", "s"))
        x0 = cfg["starts"][s_idx][0]
        key = (s_idx, l)
        if key not in reference:
            reference[key] = marginal_x(x0, l, t)
        gap = float(np.max(np.abs(x - reference[key])))
        if gap > ODE_X_TOL:
            failed[name] = f"x deviates from the marginal limit by {gap:.3e}"
        elif np.any(np.abs(v) > np.sqrt(np.maximum(x * y, 0.0)) + ORDER_SLACK):
            failed[name] = "|v| exceeds sqrt(xy)"
        elif np.max(np.abs(s - (x + y - 2.0 * v))) > 1e-12:
            failed[name] = "s is not x + y - 2v"
        s_end[(s_idx, l, kind)] = float(s[-1])
    ladder = ("optimal", "gcrn", "reflection", "crn")
    for s_idx, l, kind, name in ode_traj_names(cfg):
        if kind != "optimal":
            continue
        ends = [s_end.get((s_idx, l, k)) for k in ladder]
        if any(e is None for e in ends):
            continue
        if any(a > b + ORDER_SLACK for a, b in zip(ends, ends[1:])):
            for k in ladder:
                name_k = name.replace("_optimal.csv", f"_{k}.csv")
                failed.setdefault(name_k, f"s_end order optimal<=gcrn<=reflection<=crn broken: {ends}")
    return failed


def sup_gap_tolerance(d: int, replicates: int) -> float:
    return SUP_GAP_NOISE_C / math.sqrt(d * replicates) + SUP_GAP_BIAS_C / math.sqrt(d)


def check_mcmc_vs_ode(cfg: Dict, rundir: str) -> Dict[str, str]:
    failed: Dict[str, str] = {}
    tol = sup_gap_tolerance(cfg["d"], cfg["replicates"])
    summary_path = os.path.join(rundir, "summary.csv")
    if not os.path.exists(summary_path):
        return _fail_all(cfg, "summary.csv missing")
    summary = read_rows(summary_path)
    names = cmp_names(cfg)
    if len(summary) != len(names):
        return _fail_all(cfg, "summary.csv has the wrong number of rows")
    for name, row in zip(names, summary):
        path = os.path.join(rundir, name)
        if not os.path.exists(path):
            failed[name] = "missing"
            continue
        rows = read_rows(path)
        gap = float(np.max(np.abs(_col(rows, "s_mcmc") - _col(rows, "s_ode"))))
        reported = float(row["sup_gap"])
        if abs(gap - reported) > 1e-12:
            failed[name] = f"summary sup_gap {reported} != recomputed {gap}"
        elif not gap <= tol:
            failed[name] = f"sup_gap {gap:.3f} above tolerance {tol:.3f}"
    return failed


def tv_reference(taus: np.ndarray, lag: int, t: np.ndarray) -> np.ndarray:
    """mean over replicates of max(0, ceil((tau - L - t) / L))."""
    vals = np.empty((taus.size, t.size))
    for i, tau in enumerate(taus):
        for j, tj in enumerate(t):
            vals[i, j] = max(0.0, math.ceil((tau - lag - tj) / lag))
    return vals.mean(axis=0)


def check_meetings(cfg: Dict, rundir: str) -> Dict[str, str]:
    failed: Dict[str, str] = {}
    path = os.path.join(rundir, "meetings.csv")
    if not os.path.exists(path):
        return _fail_all(cfg, "meetings.csv missing")
    rows = read_rows(path)
    lag = cfg["lag"]
    if len(rows) != cfg["replicates"]:
        return _fail_all(cfg, "meetings.csv has the wrong number of rows")
    taus = []
    for row in rows:
        op = f"replicate {row['replicate']}"
        tau = float(row["tau"])
        if int(row["capped"]) or not math.isfinite(tau):
            failed[op] = "capped"
        elif tau != int(tau) or not tau > lag or int(row["lag"]) != lag:
            failed[op] = f"tau {tau} is not an integer above the lag {lag}"
        taus.append(tau)
    if failed:
        return failed
    taus_arr = np.array(taus)
    curve_problem = None
    tv_path = os.path.join(rundir, "tv_curve.csv")
    w2_path = os.path.join(rundir, "w2_curve.csv")
    if not (os.path.exists(tv_path) and os.path.exists(w2_path)):
        curve_problem = "bound curves missing"
    else:
        tv = read_rows(tv_path)
        t = _col(tv, "t")
        est = _col(tv, "estimate")
        t_hi = float(np.max(taus_arr)) - lag
        if t[0] != 0.0 or t[-1] != t_hi:
            curve_problem = f"tv grid spans [{t[0]}, {t[-1]}], expected [0, {t_hi}]"
        elif not np.array_equal(est, tv_reference(taus_arr, lag, t)):
            curve_problem = "tv estimates differ from the meeting-time formula"
        elif np.any(np.diff(est) > 0.0) or est[-1] != 0.0:
            curve_problem = "tv curve is not non-increasing to 0"
        elif any(int(r["n_capped"]) != 0 or int(r["n_replicates"]) != cfg["replicates"] for r in tv):
            curve_problem = "tv curve replicate counts are wrong"
        else:
            w2 = read_rows(w2_path)
            w_est, w_lo, w_hi = (_col(w2, c) for c in ("estimate", "ci_low", "ci_high"))
            if np.any(w_est < 0.0) or w_est[-1] != 0.0:
                curve_problem = "w2 curve is negative or does not end at 0"
            elif np.any(w_lo > w_est) or np.any(w_hi < w_est):
                curve_problem = "w2 estimate lies outside its interval"
    if curve_problem:
        return _fail_all(cfg, curve_problem)
    return failed


def check_svm_bias(cfg: Dict, rundir: str) -> Dict[str, str]:
    failed: Dict[str, str] = {}
    path = os.path.join(rundir, "bias.csv")
    if not os.path.exists(path):
        return _fail_all(cfg, "bias.csv missing")
    rows = {r["kind"]: r for r in read_rows(path)}
    est = {}
    for kind in cfg["couplings"]:
        op = f"arm {kind}"
        row = rows.get(kind)
        if row is None:
            failed[op] = "missing"
            continue
        e, lo, hi = (float(row[c]) for c in ("estimate", "ci_low", "ci_high"))
        if not all(math.isfinite(v) for v in (e, lo, hi)):
            failed[op] = "non-finite estimate or interval"
        elif not lo <= e <= hi:
            failed[op] = f"estimate {e} outside [{lo}, {hi}]"
        est[kind] = e
    if "gcrn" in est:
        for other in ("crn", "reflection"):
            if other in est and not est["gcrn"] < est[other]:
                failed.setdefault("arm gcrn", f"gcrn {est['gcrn']:.4g} not below {other} {est[other]:.4g}")
    return failed


def epsilon_reference(target: str, d: int):
    """epsilon = (tr Sigma / d)(tr Sigma^-1 / d) where it has an independent form."""
    name, _, arg = target.partition(":")
    if name == "two-eig":
        sigma2 = float(arg) if arg else 24.0
        return 0.25 * (1.0 + sigma2) * (1.0 + 1.0 / sigma2)
    if name == "ar1":
        corr = float(arg) if arg else 0.5
        idx = np.arange(d)
        lam = np.linalg.eigvalsh(corr ** np.abs(idx[:, None] - idx[None, :]))
        return float(np.mean(lam) * np.mean(1.0 / lam))
    return None


def plateau_tolerance(kind: str, d: int, replicates: int) -> float:
    return PLATEAU_C[kind] / math.sqrt(d * replicates)


def check_mcmc_elliptical(cfg: Dict, rundir: str) -> Dict[str, str]:
    failed: Dict[str, str] = {}
    path = os.path.join(rundir, "summary.csv")
    if not os.path.exists(path):
        return _fail_all(cfg, "summary.csv missing")
    rows = {(r["target"], r["kind"]): r for r in read_rows(path)}
    for target in elliptical_targets(cfg):
        plateau, predicted = {}, {}
        eps_ref = epsilon_reference(target, cfg["d"])
        for kind in cfg["couplings"]:
            op = f"plateau {target} {kind}"
            row = rows.get((target, kind))
            tag = target.replace(":", "-").replace(".", "p")
            if row is None or not os.path.exists(os.path.join(rundir, f"trace_{tag}_{kind}.csv")):
                failed[op] = "missing"
                continue
            eps, p, pred = (float(row[c]) for c in ("epsilon", "plateau", "predicted"))
            plateau[kind], predicted[kind] = p, pred
            if eps_ref is not None and abs(eps - eps_ref) > EPS_REL_TOL * eps_ref:
                failed[op] = f"epsilon {eps} != independent value {eps_ref}"
            elif kind in PLATEAU_C:
                tol = plateau_tolerance(kind, cfg["d"], cfg["replicates"])
                if not abs(p - pred) <= tol:
                    failed[op] = f"plateau {p:.4f} further than {tol:.3f} from fixed point {pred:.4f}"
        # measured: gcrn below reflection; predicted: gcrn < reflection < crn
        order = [k for k in ("gcrn", "reflection", "crn") if k in plateau]
        if "gcrn" in plateau and "reflection" in plateau and not plateau["gcrn"] < plateau["reflection"]:
            for k in ("gcrn", "reflection"):
                failed.setdefault(f"plateau {target} {k}", "measured plateau gcrn not below reflection")
        pred_order = [predicted[k] for k in order]
        if any(not a < b for a, b in zip(pred_order, pred_order[1:])):
            for k in order:
                failed.setdefault(f"plateau {target} {k}", f"predicted order {order} broken: {pred_order}")
    return failed


CHECKS = {
    "ode-spherical": check_ode_spherical,
    "mcmc-vs-ode": check_mcmc_vs_ode,
    "svm-convergence": check_meetings,
    "hug-hop-convergence": check_meetings,
    "svm-bias": check_svm_bias,
    "mcmc-elliptical": check_mcmc_elliptical,
}


def check_experiment(cfg: Dict, rundir: str) -> Dict[str, str]:
    return CHECKS[cfg["experiment"]](cfg, rundir)
