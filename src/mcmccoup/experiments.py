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
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .core_math import RngStream, gaussian_integrals, std_normal_cdf
from .couplings import (
    CoupledChainState,
    CouplingSpec,
    coupled_hug_hop_step,
    coupled_rwm_step,
    cross_target_coupled_step,
    maximal_independent_pair,
    reflection_maximal_pair,
)
from .diagnostics import (
    _psd_eigh,
    gelbrich_bound,
    run_replicates,
    stationary_bias_bound,
    tv_bound_curve,
    w2_bound_curve,
)
from .fixed_points import h_rho, solve_fixed_point, sweep_asymptotes
from .kernels import AnisotropicGaussian, HopParams, HugParams, hug_proposal, rwm_step
from .ode_limits import drift_c, g_value, integrate_rows, integrate_w, OdeState
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

EXPERIMENTS = (
    "ode-spherical",
    "mcmc-vs-ode",
    "asymptote-spherical",
    "asymptote-elliptical",
    "mcmc-elliptical",
    "svm-convergence",
    "svm-bias",
    "svm-threshold-sweep",
    "hug-hop-convergence",
    "hop-threshold-sweep",
    "validate",
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

    Optional fields left as None are filled by per-experiment, per-scale
    defaults in resolve(); seed is always mandatory.
    """

    experiment: str
    seed: int
    scale: str = "desk"
    out: str = "results"
    d: Optional[int] = None
    l: Optional[float] = None
    h: Optional[float] = None
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
        if self.couplings is not None:
            from .couplings import COUPLING_KINDS

            for kind in self.couplings:
                if kind not in COUPLING_KINDS:
                    raise ConfigError("couplings", f"unknown coupling kind {kind!r}")
        if self.starts is not None:
            for s in self.starts:
                if len(s) != 3:
                    raise ConfigError("starts", "each start is a (x0, y0, rho0) triple")
                x0, y0, rho0 = s
                if x0 < 0 or y0 < 0 or abs(rho0) > 1:
                    raise ConfigError(
                        "starts", "need x0 >= 0, y0 >= 0 and |rho0| <= 1"
                    )


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
    "h": float,
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
# Per-experiment, per-scale defaults.


def _defaults(experiment: str, scale: str) -> Dict:
    desk = scale == "desk"
    base: Dict = {}
    if experiment == "ode-spherical":
        base = dict(
            l_grid=(2.38, math.sqrt(2.0)),
            couplings=("crn", "reflection", "gcrn"),
            starts=START_CASES,
            t_end=5.0,
            dt=1e-3,
        )
    elif experiment == "mcmc-vs-ode":
        base = dict(
            d=200 if desk else 1000,
            l_grid=(2.38, math.sqrt(2.0)),
            couplings=("crn", "reflection", "gcrn"),
            starts=START_CASES,
            replicates=6 if desk else 20,
            t_end=5.0,
            dt=1e-3,
        )
    elif experiment == "asymptote-spherical":
        base = dict(
            couplings=("crn", "reflection", "gcrn"),
            l_grid=tuple(np.round(np.arange(0.2, 5.01, 0.2), 10)) + (2.38,),
        )
    elif experiment == "asymptote-elliptical":
        base = dict(
            couplings=("crn", "reflection"),
            l_grid=(0.5, 1.0, 1.7, 2.38, 3.0, 4.0, 5.0),
            eps_grid=(1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0),
        )
    elif experiment == "mcmc-elliptical":
        base = dict(
            d=500 if desk else 2000,
            l=2.38,
            couplings=("crn", "reflection", "gcrn"),
            replicates=4 if desk else 20,
        )
    elif experiment == "svm-convergence":
        base = dict(
            d=50 if desk else 360,
            l=2.38,
            lag=10_000 if desk else 2_000_000,
            replicates=20,
            max_iter=200_000 if desk else 4_000_000,
            delta=0.005,
            couplings=("two-scale", "crn", "reflection"),
        )
    elif experiment == "svm-bias":
        base = dict(
            d=50 if desk else 360,
            l=2.38,
            couplings=("gcrn", "crn", "reflection"),
            replicates=3 if desk else 10,
            n_steps=30_000 if desk else 200_000,
        )
    elif experiment == "svm-threshold-sweep":
        base = dict(
            d=50 if desk else 360,
            l=2.38,
            lag=10_000 if desk else 2_000_000,
            replicates=6 if desk else 20,
            max_iter=200_000 if desk else 4_000_000,
            delta_grid=(5e-4, 2e-3, 5e-3, 2e-2, 1e-1),
        )
    elif experiment == "hug-hop-convergence":
        base = dict(
            d=50 if desk else 500,
            lag=500 if desk else 5_000,
            replicates=20,
            max_iter=50_000 if desk else 500_000,
            delta=1e-4,
        )
    elif experiment == "hop-threshold-sweep":
        base = dict(
            d=50 if desk else 500,
            lag=500 if desk else 5_000,
            replicates=8 if desk else 20,
            max_iter=50_000 if desk else 500_000,
            delta_grid=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2),
        )
    return base


def resolve(config: ExperimentConfig) -> ExperimentConfig:
    """Fill unset fields with the experiment's defaults at the given scale."""
    filled = dict(_defaults(config.experiment, config.scale))
    updates = {}
    for name, default in filled.items():
        if getattr(config, name) is None:
            updates[name] = default
    return replace(config, **updates) if updates else config


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
    h = cfg.h if cfg.h is not None else cfg.l / (math.sqrt(cfg.d) * z1)
    return post, fit, h


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


def _run_asymptotes(cfg: ExperimentConfig, rundir: _RunDir) -> None:
    """Fixed-point sweeps: over sorted l on round targets, over l x eps otherwise."""
    if cfg.experiment == "asymptote-spherical":
        l_grid, eps_grid = tuple(sorted(set(cfg.l_grid))), (1.0,)
    else:
        l_grid, eps_grid = tuple(cfg.l_grid), tuple(cfg.eps_grid)
    rows = []
    for kind in cfg.couplings:
        for row in sweep_asymptotes(kind, l_grid, eps_grid):
            rows.append([row.l, row.epsilon, row.kind, row.v_star, row.s_inf, row.esjd])
    _write_csv(
        rundir.path("sweep.csv"),
        ["l", "epsilon", "kind", "v_star", "s_inf", "esjd"],
        rows,
    )


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
        h = cfg.h if cfg.h is not None else cfg.l / (math.sqrt(d) * z1)

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
# validate: fast reruns of the derived-value oracles.


def _validate_checks():
    """(name, callable) pairs; each returns True on success."""
    checks = []

    def check(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn
        return wrap

    @check("normal cdf symmetry and quantile roundtrip")
    def _cdf():
        xs = np.array([-3.0, -1.0, -0.1, 0.0, 0.7, 2.5])
        sym = np.abs(std_normal_cdf(xs) + std_normal_cdf(-xs) - 1.0).max() < 1e-14
        from .core_math import std_normal_quantile
        ps = np.array([0.01, 0.2, 0.5, 0.8, 0.99])
        rt = max(abs(std_normal_cdf(std_normal_quantile(p)) - p) for p in ps) < 1e-12
        return bool(sym and rt)

    @check("bivariate cdf factorizes at rho = 0")
    def _bvn():
        from .core_math import bvn_low
        pts = [(0.3, -0.7), (-1.2, 0.4), (1.5, 1.5)]
        return all(
            abs(bvn_low(a, b, 0.0) - std_normal_cdf(a) * std_normal_cdf(b)) < 1e-12
            for a, b in pts
        )

    @check("acceptance coupling value at the diagonal")
    def _gdiag():
        l = 2.38
        return (
            abs(g_value(1.0, 1.0, 1.0, l) - 2.0 * std_normal_cdf(-l / 2.0)) < 1e-13
            and abs(h_rho(1.0, l) - 2.0 * std_normal_cdf(-l / 2.0)) < 1e-13
        )

    @check("fixed-point forms agree (h_rho vs g_value)")
    def _hg():
        l = 2.38
        rhos = [0.0, 0.3, 0.709, 0.95]
        return all(abs(h_rho(r, l) - g_value(1.0, 1.0, r, l)) < 1e-10 for r in rhos)

    @check("crn spherical asymptote root")
    def _crn():
        res = solve_fixed_point("crn", 2.38)
        phi = std_normal_cdf(-1.19)
        resid = abs(h_rho(res.v_star, 2.38) - 2.0 * res.v_star * phi)
        return resid < 1e-10 and abs(res.s_inf - 0.9231814019691353) < 1e-6

    @check("reflection asymptote residuals on a grid")
    def _refl():
        for l in (1.0, 2.38, 4.0):
            for eps in (1.5, 3.0, 10.0):
                res = solve_fixed_point("reflection", l, eps)
                rho = res.v_star + (1.0 - res.v_star) / eps
                resid = abs(h_rho(rho, l) - 2.0 * res.v_star * std_normal_cdf(-l / 2.0))
                if resid > 1e-9:
                    return False
        return True

    @check("stationary pair is an ode rest point")
    def _rest():
        c = drift_c(OdeState(1.0, 1.0, 1.0), 2.38, "gcrn")
        return bool(np.abs(c[0] - c[2]) < 1e-14 and abs(c[0]) < 1e-14)

    @check("gcrn ode decay is the closed exponential")
    def _decay():
        l = 2.38
        traj = integrate_w((1.0, 1.0, 0.5), l, "gcrn", 2.0, dt=1e-3)
        rate = 2.0 * l * l * std_normal_cdf(-l / 2.0)
        ref = 1.0 * np.exp(-rate * traj.t)
        return float(np.abs(traj.s - ref).max()) < 1e-10

    @check("proposal coalescence probability matches")
    def _coal():
        rng = RngStream(2024, 9)
        h, r = 0.4, 0.3
        x = np.zeros(3)
        y = np.full(3, r / math.sqrt(3.0))
        n, hits = 20_000, 0
        for _ in range(n):
            _, _, same = reflection_maximal_pair(x, y, h, rng)
            hits += same
        p = 2.0 * std_normal_cdf(-r / (2.0 * h))
        se = math.sqrt(p * (1.0 - p) / n)
        return abs(hits / n - p) < 4.0 * se

    @check("maximal coupling equality probability matches")
    def _maximal():
        rng = RngStream(77, 3)
        axis = np.array([1.0, 0.0])  # N(0, I) and N(axis, I), one unit apart
        law_x, law_y = (AnisotropicGaussian(c, axis, 1.0, 1.0) for c in (np.zeros(2), axis))
        n, hits = 20_000, 0
        for _ in range(n):
            _, _, same = maximal_independent_pair(law_x, law_y, rng)
            hits += same
        p = 2.0 * std_normal_cdf(-0.5)
        se = math.sqrt(p * (1.0 - p) / n)
        return abs(hits / n - p) < 4.0 * se

    @check("gaussian closed-form lower bound on commuting pair")
    def _gelb():
        val = gelbrich_bound(
            np.zeros(2), np.diag([1.0, 4.0]), np.zeros(2), np.diag([9.0, 1.0])
        )
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        w, v = _psd_eigh(a, "a")
        ok = float(np.abs(v @ np.diag(w) @ v.T - a).max()) < 1e-11
        return abs(val - 5.0) < 1e-12 and ok

    @check("level sets preserved by bounce moves")
    def _hug():
        target = SphericalGaussian(100)
        rng = RngStream(5, 1)
        x = target.sample(rng)
        v = rng.standard_normal(100)
        out = hug_proposal(x, v, HugParams(total_time=0.5, bounces=10), target)
        if out is None:
            return False
        xp, _ = out
        return abs(target.log_density(xp) - target.log_density(x)) < 1e-10

    @check("stationary acceptance rate near 0.234")
    def _acc():
        d, l = 1000, 2.38
        target = SphericalGaussian(d)
        h = l / math.sqrt(d)
        rng = RngStream(99, 0)
        x = target.sample(rng)
        hits = 0
        n = 2000
        for _ in range(n):
            z = rng.standard_normal(d)
            u = float(rng.uniform())
            x, acc = rwm_step(x, z, u, h, target)
            hits += acc
        return abs(hits / n - 2.0 * std_normal_cdf(-l / 2.0)) < 0.035

    @check("meeting-time bound arithmetic")
    def _tv():
        from .diagnostics import MeetingRecord
        rec = [MeetingRecord(replicate=0, tau=301, lag=100, capped=False)]
        return tv_bound_curve(rec, [0.0]).estimate[0] == 3.0

    @check("optimal coupling term dominates at the rest point")
    def _opt():
        l = 2.38
        g_opt = gaussian_integrals(1.0, 1.0, l).second
        return (
            g_opt >= g_value(1.0, 1.0, 0.99, l) - 1e-12
            and abs(g_opt - 2.0 * std_normal_cdf(-l / 2.0)) < 1e-12
        )

    return checks


def _run_validate(cfg: ExperimentConfig, rundir: _RunDir) -> int:
    rows = []
    failures = 0
    for name, fn in _validate_checks():
        try:
            ok = bool(fn())
        except Exception as exc:  # a crashed oracle is a failed oracle
            ok = False
            print(f"FAIL {name} ({exc})")
        else:
            print(("ok   " if ok else "FAIL ") + name)
        failures += not ok
        rows.append([name, int(ok)])
    _write_csv(rundir.path("validate.csv"), ["check", "passed"], rows)
    print(f"{len(rows) - failures}/{len(rows)} oracle checks passed")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# Entry point.


_RUNNERS = {
    "ode-spherical": _run_ode_spherical,
    "mcmc-vs-ode": _run_mcmc_vs_ode,
    "asymptote-spherical": _run_asymptotes,
    "asymptote-elliptical": _run_asymptotes,
    "mcmc-elliptical": _run_mcmc_elliptical,
    "svm-convergence": _run_svm_convergence,
    "svm-bias": _run_svm_bias,
    "svm-threshold-sweep": _run_svm_threshold_sweep,
    "hug-hop-convergence": _run_hug_hop_convergence,
    "hop-threshold-sweep": _run_hop_threshold_sweep,
}


def run_experiment(config: ExperimentConfig) -> int:
    """Run one experiment to completion; returns the process exit code.

    Output files land in <out>/<experiment>/ together with a manifest that
    replays the run.  On failure every file written so far is removed.
    """
    config = resolve(config)
    rundir = _RunDir(os.path.join(config.out, config.experiment))
    try:
        if config.experiment == "validate":
            code = _run_validate(config, rundir)
        else:
            _RUNNERS[config.experiment](config, rundir)
            code = 0
        _write_manifest(rundir, config)
    except Exception:
        rundir.discard_all()
        raise
    return code
