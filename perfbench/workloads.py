"""The benchmark's workloads: which experiments run, with which overrides.

A workload is a fixed list of CLI invocations of `mcmccoup.cli.main`.  One
round of a workload runs the whole list once in a fresh process.  Each
experiment also knows how many operations it attempts (trajectories,
replicates, bias arms, plateau traces) and how many coupled chain steps it
performs; both come from the resolved config and the written outputs, never
from tracing.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Dict, List, Tuple

# (experiment, --set overrides); every run also gets --threads 1 and a seed.
WORKLOADS: Dict[str, List[Tuple[str, Dict[str, str]]]] = {
    "ode-limit": [
        ("ode-spherical", {"t_end": "2", "dt": "0.01"}),
        ("mcmc-vs-ode", {"t_end": "2", "dt": "0.01", "replicates": "2", "l_grid": "2.38"}),
    ],
    "meet": [
        ("svm-convergence", {
            "couplings": "two-scale", "d": "10", "lag": "4000",
            "replicates": "1", "max_iter": "100000",
        }),
        ("hug-hop-convergence", {"lag": "2000", "replicates": "8"}),
    ],
    "svm-bias": [
        ("svm-bias", {
            "couplings": "gcrn,crn,reflection", "d": "10",
            "replicates": "1", "n_steps": "20000",
        }),
    ],
    "gauss-ellip": [
        ("mcmc-elliptical", {"couplings": "gcrn,crn,reflection", "d": "400", "replicates": "1"}),
    ],
}

# the targets mcmc-elliptical runs when no single target is configured
ELLIPTICAL_TARGETS = ("ar1:0.5", "chi2:3", "two-eig:24")


def cli_argv(experiment: str, overrides: Dict[str, str], seed: int, out: str) -> List[str]:
    argv = [experiment, "--seed", str(seed), "--out", out, "--threads", "1"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def config_mapping(experiment: str, overrides: Dict[str, str], seed: int, out: str) -> Dict:
    """The mapping `mcmccoup.cli.main` builds from the same arguments."""
    data: Dict = {"experiment": experiment, "seed": seed, "out": out, "threads": 1}
    data.update(overrides)
    return data


def read_rows(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def l_tag(l: float) -> str:
    return f"{l:.4g}".replace(".", "p")


def ode_traj_names(cfg: Dict) -> List[Tuple[int, float, str, str]]:
    kinds = tuple(cfg["couplings"]) + ("optimal",)
    return [
        (s_idx, l, kind, f"traj_s{s_idx}_l{l_tag(l)}_{kind}.csv")
        for s_idx in range(len(cfg["starts"]))
        for l in cfg["l_grid"]
        for kind in kinds
    ]


def cmp_names(cfg: Dict) -> List[str]:
    return [
        f"cmp_s{s_idx}_l{l_tag(l)}_{kind}.csv"
        for s_idx in range(len(cfg["starts"]))
        for l in cfg["l_grid"]
        for kind in cfg["couplings"]
    ]


def elliptical_targets(cfg: Dict) -> Tuple[str, ...]:
    return (cfg["target"],) if cfg.get("target") else ELLIPTICAL_TARGETS


def elliptical_steps(cfg: Dict, target: str, kind: str) -> int:
    """Chain steps of one plateau trace, by the rule mcmc-elliptical documents."""
    if cfg.get("n_steps") is not None:
        return int(cfg["n_steps"])
    slow = target.startswith("two-eig") and kind == "reflection"
    t_end = cfg["t_end"] if cfg.get("t_end") is not None else (150.0 if slow else 30.0)
    return int(round(t_end * cfg["d"]))


def operations(cfg: Dict) -> List[str]:
    """Operation keys one experiment attempts."""
    exp = cfg["experiment"]
    if exp == "ode-spherical":
        return [name for *_, name in ode_traj_names(cfg)]
    if exp == "mcmc-vs-ode":
        return cmp_names(cfg)
    if exp in ("svm-convergence", "hug-hop-convergence"):
        return [f"replicate {r}" for r in range(cfg["replicates"])]
    if exp == "svm-bias":
        return [f"arm {kind}" for kind in cfg["couplings"]]
    if exp == "mcmc-elliptical":
        return [f"plateau {t} {k}" for t in elliptical_targets(cfg) for k in cfg["couplings"]]
    raise ValueError(f"no operation rule for experiment {exp!r}")


def chain_steps(cfg: Dict, rundir: str) -> int:
    """Coupled chain steps one experiment performed."""
    exp = cfg["experiment"]
    if exp == "ode-spherical":
        return 0
    if exp == "mcmc-vs-ode":
        per = cfg["replicates"] * int(round(cfg["t_end"] * cfg["d"]))
        return len(cfg["starts"]) * len(cfg["l_grid"]) * len(cfg["couplings"]) * per
    if exp in ("svm-convergence", "hug-hop-convergence"):
        if exp == "svm-convergence" and tuple(cfg["couplings"]) != ("two-scale",):
            raise ValueError("step counting supports svm-convergence with couplings=two-scale only")
        total = 0
        for row in read_rows(os.path.join(rundir, "meetings.csv")):
            tau = float(row["tau"])
            total += int(tau) if math.isfinite(tau) else cfg["lag"] + cfg["max_iter"]
        return total
    if exp == "svm-bias":
        return len(cfg["couplings"]) * cfg["replicates"] * cfg["n_steps"]
    if exp == "mcmc-elliptical":
        return cfg["replicates"] * sum(
            elliptical_steps(cfg, t, k) for t in elliptical_targets(cfg) for k in cfg["couplings"]
        )
    raise ValueError(f"no step rule for experiment {exp!r}")
