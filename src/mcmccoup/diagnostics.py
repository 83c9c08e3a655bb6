"""Coupling-based convergence and bias diagnostics.

`run_replicates` is the one driver that steps replicates of a coupled pair
from a start pair (x0, y0): with lag L >= 1 it advances x0 alone L steps and
then runs the pair jointly until exact meeting; with L = 0 it couples the
pair from (x0, y0) itself, as the contraction and bias runs do.  On top of
it sit total variation bounds from meeting times and squared Wasserstein
bounds from telescoping distance sums (both need L >= 1), stationary bias
bounds for chains driven toward two different targets, and the closed-form
lower bound for Gaussian laws used to sanity check the empirical ones.

Meetings are exact events (bit-identical positions), so meeting times are
well defined integers.  Replicates are keyed by (seed, replicate index),
so each is reproducible on its own and they run one after another in
index order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh

from .core_math import RngStream
from .couplings import CoupledChainState

__all__ = [
    "MeetingRecord",
    "BoundCurve",
    "SummaryStats",
    "run_replicates",
    "tv_bound_curve",
    "w2_bound_curve",
    "stationary_bias_bound",
    "gelbrich_bound",
    "summary_stats",
]

BOUND_METRICS = ("tv", "w2sq")

# replicate-resampling bootstrap for the nonlinear W2 functional
_N_BOOTSTRAP = 200
_BOOTSTRAP_KEY = 1729


@dataclass(frozen=True)
class MeetingRecord:
    """Outcome of one lag-L replicate, L >= 0.

    tau is the meeting time on the leading chain's clock, so tau = lag + u
    when the pair met after u joint steps; it is inf when the iteration
    budget ran out first (capped).
    """

    replicate: int
    tau: float
    lag: int
    capped: bool

    def __post_init__(self):
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")
        if self.capped:
            if math.isfinite(self.tau):
                raise ValueError("capped records carry tau = inf")
        else:
            if not self.tau > self.lag:
                raise ValueError("meeting time must exceed the lag")
            if self.tau != int(self.tau):
                raise ValueError("meeting times are integer step counts")


@dataclass
class BoundCurve:
    """A bound estimate over a grid of time points with 95% intervals."""

    metric: str
    t: np.ndarray
    estimate: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_replicates: int
    n_capped: int

    def __post_init__(self):
        if self.metric not in BOUND_METRICS:
            raise ValueError(f"metric must be one of {BOUND_METRICS}")
        self.t = np.asarray(self.t, dtype=float)
        self.estimate = np.asarray(self.estimate, dtype=float)
        self.ci_low = np.asarray(self.ci_low, dtype=float)
        self.ci_high = np.asarray(self.ci_high, dtype=float)
        n = self.t.size
        for name in ("estimate", "ci_low", "ci_high"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must match the time grid length")
        if np.any(self.estimate < 0.0):
            raise ValueError("bound estimates cannot be negative")
        if np.any(self.ci_low > self.estimate) or np.any(self.ci_high < self.estimate):
            raise ValueError("interval must contain the estimate")


def run_replicates(
    step: Callable[[CoupledChainState, RngStream], CoupledChainState],
    start: Callable[[RngStream], Tuple[np.ndarray, np.ndarray]],
    lag: int,
    n_replicates: int,
    max_iter: int,
    seed: int,
    store_trace: bool = True,
) -> Tuple[List[MeetingRecord], List[np.ndarray]]:
    """Run lag-L replicates of a coupled pair and collect times and distance traces.

    Each replicate r uses its own stream RngStream(seed, r): draw the start
    pair (x0, y0) = start(rng), advance x0 alone for `lag` steps (via the
    step closure on a met state, which every coupling here advances as a
    single chain), then step the pair jointly until it meets exactly or
    `max_iter` joint steps have been spent.  With lag = 0 there is no lead
    phase and the pair is coupled from (x0, y0) itself.  Running out of
    budget caps the replicate; that is flagged, not fatal.  Replicates
    r = 0, ..., n - 1 run in that order.

    Returns (records, traces) where traces[r] holds the squared distance
    ||X_{u+lag} - Y_u||^2 at every joint step u = 0, 1, 2, ... strictly
    before the meeting (so a capped replicate has max_iter + 1 entries, and
    the trace is empty when store_trace is False).
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if n_replicates < 1:
        raise ValueError("need at least one replicate")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    records: List[MeetingRecord] = []
    traces: List[np.ndarray] = []
    for r in range(n_replicates):
        rng = RngStream(seed, r)
        pair = start(rng)
        try:
            x0, y0 = (np.asarray(c, dtype=float) for c in pair)
            ok = x0.ndim == 1 and x0.shape == y0.shape
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(
                f"start must return (x0, y0), two 1-d arrays of one shape; got {pair!r:.60}"
            )
        lead = CoupledChainState(x=x0, y=x0, t=0, met=True)
        for _ in range(lag):
            lead = step(lead, rng)

        state = CoupledChainState(x=lead.x, y=y0, t=0, met=False, lp_x=lead.lp_x)
        trace: List[float] = []
        tau = math.inf
        for u in range(1, max_iter + 2):
            if store_trace:
                trace.append(state.difference()[1])
            if u > max_iter:
                break
            state = step(state, rng)
            if state.met:
                tau = lag + u
                break
        records.append(MeetingRecord(replicate=r, tau=tau, lag=lag, capped=tau == math.inf))
        traces.append(np.asarray(trace, dtype=float))
    return records, traces


def _time_grid(t_grid, integers: bool = False) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d grid")
    if not np.all((t_grid >= 0) & (t_grid < math.inf)):
        raise ValueError("time points must be finite and nonnegative")
    if integers and np.any(t_grid != np.round(t_grid)):
        raise ValueError("time points must be nonnegative integers")
    return t_grid


def _usable(records: Sequence[MeetingRecord], caller: str):
    if not records:
        raise ValueError("no replicates given")
    lags = {rec.lag for rec in records}
    if len(lags) != 1:
        raise ValueError("all records must share one lag")
    if 0 in lags:
        raise ValueError(f"{caller}: the bound divides by the lag; lag-0 records have none")
    kept = [rec for rec in records if not rec.capped]
    n_capped = len(records) - len(kept)
    if not kept:
        raise RuntimeError(f"{caller}: every replicate was capped; nothing to estimate")
    if n_capped:
        warnings.warn(
            f"{caller}: excluding {n_capped} capped replicate(s) of {len(records)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return kept, n_capped, lags.pop()


def tv_bound_curve(records: Sequence[MeetingRecord], t_grid) -> BoundCurve:
    """Total variation bound curve from meeting times.

    estimate(t) = mean over replicates of max(0, ceil((tau - lag - t)/lag)),
    with a 95% normal interval across replicates.  Capped replicates are
    excluded (with a warning); if all are capped there is nothing to
    estimate and a RuntimeError is raised.
    """
    t_grid = _time_grid(t_grid)
    kept, n_capped, lag = _usable(records, "tv_bound_curve")

    taus = np.array([rec.tau for rec in kept], dtype=float)
    vals = np.maximum(0.0, np.ceil((taus[:, None] - lag - t_grid) / lag))
    est = vals.mean(axis=0)
    half = 1.96 * vals.std(axis=0, ddof=1) / math.sqrt(len(kept)) if len(kept) > 1 else 0.0
    return BoundCurve(
        metric="tv",
        t=t_grid,
        estimate=est,
        ci_low=np.maximum(0.0, est - half),
        ci_high=est + half,
        n_replicates=len(kept),
        n_capped=n_capped,
    )


def w2_bound_curve(
    records: Sequence[MeetingRecord],
    traces: Sequence[np.ndarray],
    t_grid,
) -> BoundCurve:
    """Squared Wasserstein-2 bound curve from distance traces.

    estimate(t) = ( sum_{j>=1} sqrt( mean_r ||X^r_{t+j lag} - Y^r_{t+(j-1) lag}||^2 ) )^2

    where the inner distances are read from the stored traces (zero after a
    replicate's meeting), and the sum truncates once every replicate has
    met.  The 95% interval comes from a replicate-resampling bootstrap,
    since the estimate is a nonlinear functional of replicate means.
    """
    if len(records) != len(traces):
        raise ValueError("need one trace per record")
    t_grid = _time_grid(t_grid, integers=True)
    kept, n_capped, lag = _usable(records, "w2_bound_curve")

    # each kept replicate's trace before its meeting, at joint steps u < met
    met_at = [int(rec.tau) - lag for rec in kept]
    rows = [np.asarray(traces[i]) for i, rec in enumerate(records) if not rec.capped]
    if any(row.size < met for row, met in zip(rows, met_at)):
        raise ValueError(
            "distance traces were not stored; rerun the replicates with store_trace=True"
        )
    last_met = max(met_at)

    boot_rng = RngStream(_BOOTSTRAP_KEY, 0).generator
    n = len(kept)
    resamples = boot_rng.integers(0, n, size=(_N_BOOTSTRAP, n))

    est, lo, hi = np.zeros((3, t_grid.size))
    for j_t, t in enumerate(t_grid.astype(int)):
        # columns: all offsets u = t + (j-1) lag before the last meeting,
        # zero once a replicate has met
        n_terms = math.ceil((last_met - t) / lag)
        if n_terms <= 0:
            continue
        mat = np.zeros((n, n_terms))
        for i, (row, met) in enumerate(zip(rows, met_at)):
            terms = row[t:met:lag]
            mat[i, : terms.size] = terms
        est[j_t] = float(np.sum(np.sqrt(mat.mean(axis=0))) ** 2)
        boot_means = mat[resamples].mean(axis=1)
        boot_vals = np.sum(np.sqrt(np.maximum(boot_means, 0.0)), axis=1) ** 2
        lo[j_t] = min(float(np.percentile(boot_vals, 2.5)), est[j_t])
        hi[j_t] = max(float(np.percentile(boot_vals, 97.5)), est[j_t])
    return BoundCurve(
        metric="w2sq",
        t=t_grid,
        estimate=est,
        ci_low=np.maximum(0.0, lo),
        ci_high=hi,
        n_replicates=n,
        n_capped=n_capped,
    )


def stationary_bias_bound(traces, burn_in: int) -> Tuple[float, Tuple[float, float]]:
    """Time-averaged squared distance between chains on two targets.

    traces may be one 1-d array of ||X_t - Y_t||^2 values or a list of them
    (one per replicate).  Steps t <= burn_in are discarded; the estimate is
    the average of the per-replicate time averages, with a 95% normal
    interval across replicates (degenerate for a single replicate).
    """
    if isinstance(traces, np.ndarray) and traces.ndim == 1:
        traces = [traces]
    traces = [np.asarray(tr, dtype=float) for tr in traces]
    if not traces:
        raise ValueError("no traces given")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    rep_means = []
    for tr in traces:
        if tr.ndim != 1:
            raise ValueError("each trace must be a 1-d squared-distance series")
        if tr.size <= burn_in:
            raise ValueError(
                f"trace of length {tr.size} too short for burn_in {burn_in}"
            )
        rep_means.append(float(tr[burn_in:].mean()))
    rep_means = np.asarray(rep_means)
    est = float(rep_means.mean())
    if rep_means.size > 1:
        half = 1.96 * float(rep_means.std(ddof=1)) / math.sqrt(rep_means.size)
    else:
        half = 0.0
    return est, (max(0.0, est - half), est + half)


def _check_covariance(sigma: np.ndarray, name: str) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    scale = max(1.0, float(np.abs(sigma).max()))
    if float(np.abs(sigma - sigma.T).max()) > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (sigma + sigma.T)


def _psd_eigh(sigma: np.ndarray, name: str):
    w, v = eigh(sigma)
    floor = -1e-12 * max(1.0, float(np.abs(w).max()))
    if float(w.min()) < floor:
        raise ValueError(f"{name} is not positive semidefinite")
    return np.maximum(w, 0.0), v


def gelbrich_bound(mu1, sigma1, mu2, sigma2) -> float:
    """Squared W2 distance between two Gaussian laws.

    ||mu1 - mu2||^2 + tr(S1) + tr(S2) - 2 tr((S1^{1/2} S2 S1^{1/2})^{1/2})

    All matrix square roots go through symmetric eigendecompositions.  This
    is the exact squared Wasserstein-2 distance for Gaussians, hence a lower
    bound for the empirical stationary bias estimates.
    """
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    if mu1.shape != mu2.shape:
        raise ValueError("means must have the same length")
    s1 = _check_covariance(sigma1, "sigma1")
    s2 = _check_covariance(sigma2, "sigma2")
    d = mu1.size
    if s1.shape != (d, d) or s2.shape != (d, d):
        raise ValueError("covariances must match the mean dimension")

    w1, v1 = _psd_eigh(s1, "sigma1")
    _psd_eigh(s2, "sigma2")  # domain check only
    root1 = v1 @ (np.sqrt(w1)[:, None] * v1.T)
    inner = root1 @ s2 @ root1
    w_inner, _ = _psd_eigh(0.5 * (inner + inner.T), "inner product matrix")
    dmu = mu1 - mu2
    val = (
        float(np.dot(dmu, dmu))
        + float(np.trace(s1))
        + float(np.trace(s2))
        - 2.0 * float(np.sum(np.sqrt(w_inner)))
    )
    return max(0.0, val)


@dataclass(frozen=True)
class SummaryStats:
    """Acceptance rate, expected squared jump, and scaled squared norm.

    The *_se fields are standard errors: across replicates when several
    traces are given, batch means within the single trace otherwise.  The
    band properties are the matching 95% intervals.
    """

    acceptance: float
    esjd: float
    norm_mean: float
    acceptance_se: float
    esjd_se: float
    norm_se: float
    n_steps: int

    def _band(self, value: float, se: float) -> Tuple[float, float]:
        return (value - 1.96 * se, value + 1.96 * se)

    @property
    def acceptance_band(self):
        return self._band(self.acceptance, self.acceptance_se)

    @property
    def esjd_band(self):
        return self._band(self.esjd, self.esjd_se)

    @property
    def norm_band(self):
        return self._band(self.norm_mean, self.norm_se)


def _batch_se(series: np.ndarray, n_batches: int = 30) -> float:
    """Batch-means standard error of the mean of a correlated series."""
    n = series.size
    if n < 4:
        return 0.0
    b = min(n_batches, n // 2)
    width = n // b
    trimmed = series[: b * width].reshape(b, width)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1)) / math.sqrt(b)


def summary_stats(trace) -> SummaryStats:
    """Chain summaries from one position trace or a list of them.

    Each trace is an array of shape (T+1, d) of successive positions.
    Rejections are identified as exact repeats, so the acceptance rate is
    the fraction of steps that moved; ESJD is the mean squared jump
    ||X_{t+1} - X_t||^2 (zero jumps included) and norm_mean averages
    ||X_t||^2 / d over the whole trace.
    """
    if isinstance(trace, np.ndarray):
        traces = [trace]
    else:
        traces = list(trace)
    if not traces:
        raise ValueError("no trace given")
    traces = [np.asarray(tr, dtype=float) for tr in traces]
    for tr in traces:
        if tr.ndim != 2:
            raise ValueError("each trace must have shape (steps + 1, dim)")
        if tr.shape[0] < 2:
            raise ValueError("a trace needs at least two states")

    acc, jump, norm = [], [], []
    acc_series = jump_series = norm_series = None
    n_steps = 0
    for tr in traces:
        d = tr.shape[1]
        diffs = np.diff(tr, axis=0)
        moved = np.any(diffs != 0.0, axis=1).astype(float)
        sq = np.einsum("ij,ij->i", diffs, diffs)
        nrm = np.einsum("ij,ij->i", tr, tr) / d
        acc.append(float(moved.mean()))
        jump.append(float(sq.mean()))
        norm.append(float(nrm.mean()))
        n_steps += moved.size
        acc_series, jump_series, norm_series = moved, sq, nrm

    if len(traces) > 1:
        rt = math.sqrt(len(traces))
        ses = [float(np.std(v, ddof=1)) / rt for v in (acc, jump, norm)]
    else:
        ses = [_batch_se(s) for s in (acc_series, jump_series, norm_series)]
    return SummaryStats(
        acceptance=float(np.mean(acc)),
        esjd=float(np.mean(jump)),
        norm_mean=float(np.mean(norm)),
        acceptance_se=ses[0],
        esjd_se=ses[1],
        norm_se=ses[2],
        n_steps=n_steps,
    )
