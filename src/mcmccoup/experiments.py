"""Config-driven experiment runner.

Each experiment reproduces the data behind one family of figures: ODE
trajectory panels, MCMC-vs-ODE overlays, fixed-point sweeps, elliptical
plateau runs, stochastic volatility meeting-time and bias studies, and the
Hug and Hop counterparts.  Everything is seeded; outputs are CSV files plus
a JSON manifest holding the fully resolved configuration, so a run can be
replayed byte for byte from its manifest.

Scales: "desk" keeps every experiment within minutes on one machine while
preserving the qualitative claims (orderings, plateaus, monotonicities);
"paper" restores the full-size constants and may run for hours.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core_math import RngStream
from .couplings import (
    COUPLING_KINDS,
    CoupledChainState,
    CouplingSpec,
    coupled_hug_hop_step,
    coupled_rwm_step,
    cross_target_coupled_step,
)
from .diagnostics import run_replicates, stationary_bias_bound, tv_bound_curve, w2_bound_curve
from .fixed_points import FIXED_POINT_KINDS, solve_fixed_point, sweep_asymptotes
from .kernels import HopParams, HugParams
from .ode_limits import integrate_rows
from .targets import (
    Ar1Gaussian,
    DiagonalGaussian,
    SphericalGaussian,
    SvmPosterior,
    DEFAULT_SVM_PARAMS,
    laplace_fit,
    spectral_summary,
    svm_simulate,
)

SCALES = ("desk", "paper")

# the four (x0, y0, rho0) starting cases used throughout
START_CASES = (
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 0.9),
    (1.5, 0.5, 0.0),
    (0.4, 0.01, -0.5),
)

# dedicated stream ids for artifacts that must not collide with replicates
_TARGET_STREAM = 10**6
_DATA_STREAM = 10**6 + 1


class ConfigError(ValueError):
    """Configuration problem attributed to one field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully explicit experiment description.

    Optional fields left as None are filled with the experiment's desk or
    paper defaults by resolve(); seed is always mandatory, and couplings
    may name only the kinds the experiment runs.
    """

    experiment: str
    seed: int
    scale: str = "desk"
    out: str = "results"
    d: Optional[int] = None
    l: Optional[float] = None
    target: Optional[str] = None
    couplings: Optional[Tuple[str, ...]] = None
    starts: Optional[Tuple[Tuple[float, float, float], ...]] = None
    lag: Optional[int] = None
    replicates: Optional[int] = None
    delta: Optional[float] = None
    delta_grid: Optional[Tuple[float, ...]] = None
    l_grid: Optional[Tuple[float, ...]] = None
    eps_grid: Optional[Tuple[float, ...]] = None
    max_iter: Optional[int] = None
    n_steps: Optional[int] = None
    t_end: Optional[float] = None
    dt: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "experiment", f"unknown experiment {self.experiment!r};"
                f" choose one of {', '.join(EXPERIMENTS)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed", "a seed integer is mandatory")
        if not 0 <= self.seed < 2**63:
            raise ConfigError("seed", "seed must be an integer in [0, 2^63)")
        if self.scale not in SCALES:
            raise ConfigError("scale", f"must be one of {SCALES}")
        for name in _fields_parsed_by(_parse_int):
            value = getattr(self, name)
            if name != "seed" and value is not None and value < 1:
                raise ConfigError(name, "must be a positive integer")
        for name in _fields_parsed_by(float):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(name, "must be positive")
        for name in _fields_parsed_by(_parse_float_tuple):
            grid = getattr(self, name)
            if grid is not None:
                if len(grid) == 0:
                    raise ConfigError(name, "grid cannot be empty")
                if any(not g > 0 for g in grid):
                    raise ConfigError(name, "grid values must be positive")
        kinds = _TABLE[self.experiment].kinds
        for kind in self.couplings or ():
            if kind not in kinds:
                fix = f"choose from {', '.join(kinds)}" if kinds else "leave couplings unset"
                raise ConfigError(
                    "couplings", f"{self.experiment} does not run coupling kind {kind!r}; {fix}"
                )
        for s in self.starts or ():
            if len(s) != 3:
                raise ConfigError("starts", "each start is a (x0, y0, rho0) triple")
            x0, y0, rho0 = s
            if x0 < 0 or y0 < 0 or abs(rho0) > 1:
                raise ConfigError("starts", "need x0 >= 0, y0 >= 0 and |rho0| <= 1")
            # only the optimal envelope is defined where a norm is zero
            if self.couplings and (x0 == 0 or y0 == 0):
                raise ConfigError("starts", "coupling kinds need x0 > 0 and y0 > 0")


def _parse_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError("boolean is not an integer")
    return int(str(value))


def _parse_float_tuple(value) -> Tuple[float, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return tuple(float(tok) for tok in str(value).split(",") if tok.strip())


def _parse_str_tuple(value) -> Tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(tok.strip() for tok in str(value).split(",") if tok.strip())


def _parse_starts(value) -> Tuple[Tuple[float, float, float], ...]:
    if isinstance(value, (list, tuple)):
        return tuple(tuple(float(v) for v in triple) for triple in value)
    out = []
    for chunk in str(value).split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(tuple(float(tok) for tok in chunk.split(",")))
    return tuple(out)


# every config field's parser, in declaration order; the range checks in
# ExperimentConfig.__post_init__ pick their fields from this table too
_FIELD_PARSERS = {
    "experiment": str,
    "seed": _parse_int,
    "scale": str,
    "out": str,
    "d": _parse_int,
    "l": float,
    "target": str,
    "couplings": _parse_str_tuple,
    "starts": _parse_starts,
    "lag": _parse_int,
    "replicates": _parse_int,
    "delta": float,
    "delta_grid": _parse_float_tuple,
    "l_grid": _parse_float_tuple,
    "eps_grid": _parse_float_tuple,
    "max_iter": _parse_int,
    "n_steps": _parse_int,
    "t_end": float,
    "dt": float,
}


def _fields_parsed_by(parser) -> List[str]:
    return [name for name, p in _FIELD_PARSERS.items() if p is parser]


def make_config(data: Dict) -> ExperimentConfig:
    """Build a config from a plain mapping with field-level error messages."""
    cleaned = {}
    for key, value in data.items():
        key = str(key).strip().replace("-", "_")
        # retired: replicates run in index order, but older configs and
        # manifests still carry a worker count; it is checked, then dropped
        retired = key == "threads"
        if key not in _FIELD_PARSERS and not retired:
            raise ConfigError(key, "unknown configuration field")
        if value is None:
            continue
        try:
            parsed = _parse_int(value) if retired else _FIELD_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, f"cannot parse value {value!r} ({exc})") from None
        if not retired:
            cleaned[key] = parsed
        elif parsed < 1:
            raise ConfigError(key, "must be a positive integer")
    if "experiment" not in cleaned:
        raise ConfigError("experiment", "an experiment name is required")
    if "seed" not in cleaned:
        raise ConfigError("seed", "a seed integer is mandatory")
    return ExperimentConfig(**cleaned)


def parse_config_file(path: str) -> Dict:
    """Read a config mapping from JSON or key=value text.

    A manifest written by a previous run is accepted too: its nested
    "config" object is what gets replayed.
    """
    with open(path, "r") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        return {k: v for k, v in data.items() if v is not None}
    out: Dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Output plumbing: tracked writers with cleanup on failure.


class _RunDir:
    """Collects files written by one run so failures can clean up."""

    def __init__(self, root: str):
        self.root = root
        self.written: List[str] = []
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        self.written.append(name)
        return os.path.join(self.root, name)

    def discard_all(self):
        for name in self.written:
            full = os.path.join(self.root, name)
            if os.path.exists(full):
                os.remove(full)
        self.written = []


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _write_manifest(rundir: _RunDir, config: ExperimentConfig) -> None:
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "version": __version__,
        "config": asdict(config),
        "files": sorted(rundir.written),
    }
    path = rundir.path("manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _l_tag(l: float) -> str:
    return f"{l:.4g}".replace(".", "p")


# ---------------------------------------------------------------------------
# Shared simulation helpers.


def _start_pair(x0: float, y0: float, rho0: float, d: int, rng: RngStream):
    """Draw (X0, Y0) with ||X0||^2/d ~ x0, ||Y0||^2/d ~ y0, correlation rho0."""
    z = rng.standard_normal(d)
    z_star = rng.standard_normal(d)
    x = math.sqrt(x0) * z
    y = math.sqrt(y0) * (rho0 * z + math.sqrt(max(0.0, 1.0 - rho0 * rho0)) * z_star)
    return x, y


def _build_target(spec: str, d: int, seed: int):
    """Instantiate a target from its short spec string.

    Forms: "spherical", "ar1:<corr>", "chi2:<df>", "two-eig:<sigma2>", "svm".
    Randomized spectra and datasets draw from dedicated streams keyed by the
    run seed, so the target is part of the reproducible state.
    """
    name, _, arg = spec.partition(":")
    if name == "spherical":
        return SphericalGaussian(d)
    if name == "ar1":
        corr = float(arg) if arg else 0.5
        return Ar1Gaussian(d, corr)
    if name == "chi2":
        df = float(arg) if arg else 3.0
        if df <= 2:
            raise ConfigError("target", "chi2 eigenvalue spectra need df > 2")
        gen = RngStream(seed, _TARGET_STREAM).generator
        lams = gen.chisquare(df, size=d) / df
        return DiagonalGaussian(lams)
    if name == "two-eig":
        sigma2 = float(arg) if arg else 24.0
        if d % 2:
            raise ConfigError("d", "two-eig targets need an even dimension")
        return DiagonalGaussian(np.tile([1.0, sigma2], d // 2))
    if name == "svm":
        _, y = svm_simulate(d, DEFAULT_SVM_PARAMS, RngStream(seed, _DATA_STREAM))
        return SvmPosterior(y)
    raise ConfigError("target", f"unknown target spec {spec!r}")


def _svm_setup(cfg: ExperimentConfig):
    """Posterior, Laplace surrogate, and acceptance-calibrated step size."""
    post = _build_target("svm", cfg.d, cfg.seed)
    # step calibration does not need machine-tight gradients at the mode
    fit = laplace_fit(post, np.zeros(cfg.d), tol=1e-6, max_iter=50_000)
    z1 = spectral_summary(fit.as_target()).z(1)
    return post, fit, cfg.l / (math.sqrt(cfg.d) * z1)


def _rwm_step(cspec: CouplingSpec, h: float, target):
    def step(state, rng):
        return coupled_rwm_step(state, cspec, h, target, rng)

    return step


def _gap_traces(step, start, n_steps: int, n_replicates: int, seed: int):
    """Squared gaps ||X_t - Y_t||^2, t = 0..n_steps, one array per replicate.

    Replicate r draws its starting pair start(rng) and then its steps from
    RngStream(seed, r); replicates run in index order.  Callers normalise;
    whether they divide before or after averaging replicates sets the last
    bits of their outputs.
    """
    traces = []
    for r in range(n_replicates):
        rng = RngStream(seed, r)
        x, y = start(rng)
        state = CoupledChainState(x=x, y=y)
        out = np.empty(n_steps + 1)
        gap = state.x - state.y
        out[0] = float(np.dot(gap, gap))
        for t in range(n_steps):
            state = step(state, rng)
            gap = state.x - state.y
            out[t + 1] = float(np.dot(gap, gap))
        traces.append(out)
    return traces


def _meeting_records(cfg: ExperimentConfig, step, init, n_replicates=None, store_trace=True):
    return run_replicates(
        step, init, lag=cfg.lag, n_replicates=n_replicates or cfg.replicates,
        max_iter=cfg.max_iter, seed=cfg.seed, store_trace=store_trace,
    )


def _write_meetings(cfg: ExperimentConfig, rundir: _RunDir, records, traces) -> None:
    """meetings.csv, plus TV and W2 bound curves when any replicate met."""
    _write_csv(
        rundir.path("meetings.csv"),
        ["replicate", "tau", "lag", "capped"],
        [[r.replicate, float(r.tau), r.lag, int(r.capped)] for r in records],
    )
    if not all(r.capped for r in records):
        t_hi = max(r.tau for r in records if not r.capped) - cfg.lag
        t_grid = np.unique(np.linspace(0, int(t_hi), 25).astype(int))
        curves = {
            "tv_curve.csv": tv_bound_curve(records, t_grid.astype(float)),
            "w2_curve.csv": w2_bound_curve(records, traces, t_grid),
        }
        for name, c in curves.items():
            _write_csv(
                rundir.path(name),
                ["metric", "t", "estimate", "ci_low", "ci_high", "n_replicates", "n_capped"],
                [[c.metric, *row, c.n_replicates, c.n_capped]
                 for row in zip(c.t, c.estimate, c.ci_low, c.ci_high)],
            )


def _write_threshold_sweep(cfg: ExperimentConfig, rundir: _RunDir, records_at) -> None:
    """sweep.csv of meeting-time summaries; records_at(delta) runs one threshold."""
    rows = []
    for delta in cfg.delta_grid:
        records = records_at(float(delta))
        met = [r.tau for r in records if not r.capped]
        rows.append([
            float(delta),
            len(records),
            len(records) - len(met),
            float(np.mean(met)) if met else math.inf,
            float(np.median(met)) if met else math.inf,
            float(np.max(met)) if met else math.inf,
        ])
    _write_csv(
        rundir.path("sweep.csv"),
        ["delta", "n_replicates", "n_capped", "tau_mean", "tau_median", "tau_max"],
        rows,
    )


# ---------------------------------------------------------------------------
# Experiments.


def _ode_rows(cfg: ExperimentConfig, kinds) -> list:
    """(w0, l, kind) for every start, step parameter and kind, in that nesting."""
    return [
        ((x0, y0, rho0 * math.sqrt(x0 * y0)), l, kind)
        for x0, y0, rho0 in cfg.starts
        for l in cfg.l_grid
        for kind in kinds
    ]


def _run_ode_spherical(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """ODE trajectories for every start, step parameter, and curve kind."""
    kinds = tuple(cfg.couplings) + ("optimal",)
    trajs = iter(integrate_rows(_ode_rows(cfg, kinds), cfg.t_end, dt=cfg.dt))
    summary = []
    for s_idx, (x0, y0, rho0) in enumerate(cfg.starts):
        for l in cfg.l_grid:
            for kind in kinds:
                traj = next(trajs)
                name = f"traj_s{s_idx}_l{_l_tag(l)}_{kind}.csv"
                _write_csv(rundir.path(name), traj._fields, zip(*traj))
                summary.append(
                    [s_idx, x0, y0, rho0, l, kind, traj.s[-1]]
                )
    _write_csv(
        rundir.path("summary.csv"),
        ["start", "x0", "y0", "rho0", "l", "kind", "s_end"],
        summary,
    )


def _run_mcmc_vs_ode(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Coupled RWM traces against the deterministic limit for each start."""
    d = cfg.d
    target = SphericalGaussian(d)
    trajs = iter(integrate_rows(_ode_rows(cfg, cfg.couplings), cfg.t_end, dt=cfg.dt))
    summary = []
    for s_idx, (x0, y0, rho0) in enumerate(cfg.starts):

        def start(rng):
            return _start_pair(x0, y0, rho0, d, rng)

        for l in cfg.l_grid:
            h = l / math.sqrt(d)
            n_steps = int(round(cfg.t_end * d))
            for kind in cfg.couplings:
                traj = next(trajs)
                traces = _gap_traces(
                    _rwm_step(CouplingSpec(kind), h, target), start, n_steps,
                    cfg.replicates, cfg.seed,
                )
                s_mcmc = np.mean([tr / d for tr in traces], axis=0)
                t_scaled = np.arange(n_steps + 1) / d
                s_ode = np.interp(t_scaled, traj.t, traj.s)
                sup_gap = float(np.abs(s_mcmc - s_ode).max())
                name = f"cmp_s{s_idx}_l{_l_tag(l)}_{kind}.csv"
                _write_csv(
                    rundir.path(name),
                    ["t_scaled", "s_mcmc", "s_ode"],
                    np.column_stack([t_scaled, s_mcmc, s_ode]),
                )
                summary.append([s_idx, x0, y0, rho0, l, kind, sup_gap])
    _write_csv(
        rundir.path("summary.csv"),
        ["start", "x0", "y0", "rho0", "l", "kind", "sup_gap"],
        summary,
    )


def _write_asymptotes(cfg: ExperimentConfig, rundir: _RunDir, l_grid, eps_grid) -> None:
    """sweep.csv of the fixed point of every kind over l_grid x eps_grid."""
    rows = []
    for kind in cfg.couplings:
        for row in sweep_asymptotes(kind, l_grid, eps_grid):
            rows.append([row.l, row.epsilon, row.kind, row.v_star, row.s_inf, row.esjd])
    _write_csv(
        rundir.path("sweep.csv"),
        ["l", "epsilon", "kind", "v_star", "s_inf", "esjd"],
        rows,
    )


def _run_asymptote_spherical(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Fixed points on round targets, over the sorted l grid."""
    _write_asymptotes(cfg, rundir, tuple(sorted(set(cfg.l_grid))), (1.0,))


def _run_asymptote_elliptical(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Fixed points over every (l, eps)."""
    _write_asymptotes(cfg, rundir, tuple(cfg.l_grid), tuple(cfg.eps_grid))


_ELLIPTICAL_TARGETS = ("ar1:0.5", "chi2:3", "two-eig:24")


def _run_mcmc_elliptical(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Plateau runs on eccentric Gaussian targets against predicted asymptotes.

    Reflection on the sigma^2 = 24 two-eigenvalue target equilibrates an
    order of magnitude slower than everything else, so that combination
    gets a longer horizon.
    """
    d = cfg.d
    targets = (cfg.target,) if cfg.target else _ELLIPTICAL_TARGETS
    summary = []
    for tgt_spec in targets:
        target = _build_target(tgt_spec, d, cfg.seed)
        ss = spectral_summary(target)
        eps = ss.epsilon
        z1 = ss.z(1)
        zm1_sq = ss.z(-1) ** 2
        h = cfg.l / (math.sqrt(d) * z1)

        def start(rng):
            return target.sample(rng), target.sample(rng)

        for kind in cfg.couplings:
            slow = tgt_spec.startswith("two-eig") and kind == "reflection"
            t_end = cfg.t_end if cfg.t_end is not None else (150.0 if slow else 30.0)
            n_steps = cfg.n_steps if cfg.n_steps is not None else int(round(t_end * d))
            traces = _gap_traces(
                _rwm_step(CouplingSpec(kind), h, target), start, n_steps,
                cfg.replicates, cfg.seed,
            )
            s_trace = np.mean(traces, axis=0) / (d * zm1_sq)
            tail = s_trace[-max(1, n_steps // 4):]
            plateau = float(tail.mean())
            fp = solve_fixed_point(kind, cfg.l, max(1.0, eps))
            tag = tgt_spec.replace(":", "-").replace(".", "p")
            keep = max(1, n_steps // 2000)
            idx = np.arange(0, n_steps + 1, keep)
            _write_csv(
                rundir.path(f"trace_{tag}_{kind}.csv"),
                ["t_scaled", "s"],
                np.column_stack([idx / d, s_trace[idx]]),
            )
            summary.append([tgt_spec, kind, eps, plateau, fp.s_inf, abs(plateau - fp.s_inf)])
    _write_csv(
        rundir.path("summary.csv"),
        ["target", "kind", "epsilon", "plateau", "predicted", "abs_gap"],
        summary,
    )


def _run_svm_convergence(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Meeting times and TV/W2 bound curves on the volatility posterior.

    The two-scale arm produces the curves; couplings without a coalescing
    branch are run on the same budget to report their capped fractions.
    """
    post, _, h = _svm_setup(cfg)
    two_scale = _rwm_step(CouplingSpec("two-scale", delta=cfg.delta), h, post)
    records, traces = _meeting_records(cfg, two_scale, post.prior_sample)
    _write_meetings(cfg, rundir, records, traces)

    rows = []
    comparator_reps = max(2, cfg.replicates // 2)
    for kind in cfg.couplings:
        if kind == "two-scale":
            n_capped = sum(r.capped for r in records)
            rows.append([kind, cfg.replicates, n_capped])
            continue
        recs, _ = _meeting_records(
            cfg, _rwm_step(CouplingSpec(kind), h, post), post.prior_sample,
            n_replicates=comparator_reps, store_trace=False,
        )
        rows.append([kind, comparator_reps, sum(r.capped for r in recs)])
    _write_csv(rundir.path("capped.csv"), ["kind", "n_replicates", "n_capped"], rows)


def _run_svm_bias(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Stationary bias bounds between the posterior and its Laplace fit."""
    post, fit, h = _svm_setup(cfg)
    surrogate = fit.as_target()
    burn_in = cfg.n_steps // 5

    def start(rng):
        return post.prior_sample(rng), surrogate.sample(rng)

    rows = []
    for kind in cfg.couplings:

        def step(state, rng):
            return cross_target_coupled_step(state, h, post, surrogate, kind, rng)

        traces = _gap_traces(step, start, cfg.n_steps, cfg.replicates, cfg.seed)
        est, (lo, hi) = stationary_bias_bound([tr[1:] for tr in traces], burn_in)
        rows.append([kind, est, lo, hi])
    _write_csv(rundir.path("bias.csv"), ["kind", "estimate", "ci_low", "ci_high"], rows)


def _run_svm_threshold_sweep(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Two-scale switching threshold sensitivity for the volatility posterior."""
    post, _, h = _svm_setup(cfg)

    def records_at(delta):
        step = _rwm_step(CouplingSpec("two-scale", delta=delta), h, post)
        return _meeting_records(cfg, step, post.prior_sample, store_trace=False)[0]

    _write_threshold_sweep(cfg, rundir, records_at)


def _hug_hop_runner(cfg: ExperimentConfig, delta_hop: float):
    target = _build_target(cfg.target or "spherical", cfg.d, cfg.seed)
    hug = HugParams(total_time=0.5, bounces=10)
    hop = HopParams(lam=20.0, mu=1.0)

    def step(state, rng):
        return coupled_hug_hop_step(state, hug, hop, delta_hop, target, rng)

    return step, target.sample


def _run_hug_hop_convergence(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Meeting times for the coupled Hug and Hop kernel pair."""
    records, traces = _meeting_records(cfg, *_hug_hop_runner(cfg, cfg.delta))
    _write_meetings(cfg, rundir, records, traces)


def _run_hop_threshold_sweep(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    def records_at(delta):
        return _meeting_records(cfg, *_hug_hop_runner(cfg, delta), store_trace=False)[0]

    _write_threshold_sweep(cfg, rundir, records_at)


# ---------------------------------------------------------------------------
# The experiment table and the entry point.


# a default that differs by scale; resolve() takes the value named by the scale
_Scaled = namedtuple("_Scaled", "desk paper")
# runner(cfg, rundir), the coupling kinds it runs, and the config defaults
_Experiment = namedtuple("_Experiment", "runner kinds defaults")
# crn, reflection and gcrn: the kinds with an ODE limit and a fixed point
_CURVE_KINDS = FIXED_POINT_KINDS
# defaults that several experiments share
_ODE = dict(l_grid=(2.38, math.sqrt(2.0)), couplings=_CURVE_KINDS, starts=START_CASES,
            t_end=5.0, dt=1e-3)
_SVM = dict(d=_Scaled(50, 360), l=2.38)
_SVM_MEET = dict(_SVM, lag=_Scaled(10_000, 2_000_000), max_iter=_Scaled(200_000, 4_000_000))
_HUG_HOP = dict(d=_Scaled(50, 500), lag=_Scaled(500, 5_000), max_iter=_Scaled(50_000, 500_000))

# every experiment, in CLI order
_TABLE = {
    "ode-spherical": _Experiment(_run_ode_spherical, _CURVE_KINDS, _ODE),
    "mcmc-vs-ode": _Experiment(_run_mcmc_vs_ode, _CURVE_KINDS, dict(
        _ODE, d=_Scaled(200, 1000), replicates=_Scaled(6, 20))),
    "asymptote-spherical": _Experiment(_run_asymptote_spherical, _CURVE_KINDS, dict(
        couplings=_CURVE_KINDS, l_grid=tuple(np.round(np.arange(0.2, 5.01, 0.2), 10)) + (2.38,))),
    "asymptote-elliptical": _Experiment(_run_asymptote_elliptical, _CURVE_KINDS, dict(
        couplings=("crn", "reflection"), l_grid=(0.5, 1.0, 1.7, 2.38, 3.0, 4.0, 5.0),
        eps_grid=(1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0))),
    "mcmc-elliptical": _Experiment(_run_mcmc_elliptical, _CURVE_KINDS, dict(
        d=_Scaled(500, 2000), l=2.38, couplings=_CURVE_KINDS, replicates=_Scaled(4, 20))),
    "svm-convergence": _Experiment(_run_svm_convergence, COUPLING_KINDS, dict(
        _SVM_MEET, replicates=20, delta=0.005, couplings=("two-scale", "crn", "reflection"))),
    "svm-bias": _Experiment(_run_svm_bias, _CURVE_KINDS + ("gcrn-rotation", "gcrn-reflect"), dict(
        _SVM, couplings=("gcrn", "crn", "reflection"), replicates=_Scaled(3, 10),
        n_steps=_Scaled(30_000, 200_000))),
    "svm-threshold-sweep": _Experiment(_run_svm_threshold_sweep, (), dict(
        _SVM_MEET, replicates=_Scaled(6, 20), delta_grid=(5e-4, 2e-3, 5e-3, 2e-2, 1e-1))),
    "hug-hop-convergence": _Experiment(_run_hug_hop_convergence, (), dict(
        _HUG_HOP, replicates=20, delta=1e-4)),
    "hop-threshold-sweep": _Experiment(_run_hop_threshold_sweep, (), dict(
        _HUG_HOP, replicates=_Scaled(8, 20), delta_grid=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2))),
}
EXPERIMENTS = tuple(_TABLE)
# run_experiment looks runners up here at call time, so they can be wrapped
_RUNNERS = {name: entry.runner for name, entry in _TABLE.items()}


def resolve(config: ExperimentConfig) -> ExperimentConfig:
    """Fill unset fields with the experiment's defaults from _TABLE.

    A default given as a _Scaled pair takes its desk or paper value.
    """
    updates = {}
    for name, default in _TABLE[config.experiment].defaults.items():
        if getattr(config, name) is None:
            is_pair = isinstance(default, _Scaled)
            updates[name] = getattr(default, config.scale) if is_pair else default
    return replace(config, **updates) if updates else config


def run_experiment(config: ExperimentConfig) -> int:
    """Run one experiment to completion and return the process exit code, 0.

    Output files land in <out>/<experiment>/ together with a manifest that
    replays the run.  A failure raises, after every file written so far is
    removed.
    """
    config = resolve(config)
    rundir = _RunDir(os.path.join(config.out, config.experiment))
    try:
        _RUNNERS[config.experiment](config, rundir)
        _write_manifest(rundir, config)
    except Exception:
        rundir.discard_all()
        raise
    return 0
