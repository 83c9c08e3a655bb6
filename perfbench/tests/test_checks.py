"""Each output check passes on real workload output and rejects a perturbed copy.

Run from the root of the repository:
    python3 -m pytest perfbench/tests -q

The fixtures run every workload once through `mcmccoup.cli.main` (about
half a minute in total); each test then edits one CSV in a copy.
"""

import csv
import math
import os
import shutil
import sys
from dataclasses import asdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from run import round_seed  # noqa: E402
from workloads import WORKLOADS, cli_argv, config_mapping  # noqa: E402

SEED = round_seed(1, 0)


def _run_workload(name, out):
    from mcmccoup.cli import main
    from mcmccoup.experiments import make_config, resolve

    cfgs = {}
    for exp, overrides in WORKLOADS[name]:
        assert main(cli_argv(exp, overrides, SEED, out)) == 0
        cfgs[exp] = asdict(resolve(make_config(config_mapping(exp, overrides, SEED, out))))
    return cfgs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    cache = {}

    def get(workload):
        if workload not in cache:
            out = str(tmp_path_factory.mktemp(workload))
            cache[workload] = (out, _run_workload(workload, out))
        return cache[workload]

    return get


@pytest.fixture
def copy_of(outputs, tmp_path):
    """(cfg, rundir) for a fresh copy of one experiment's outputs."""

    def get(workload, experiment):
        out, cfgs = outputs(workload)
        dst = tmp_path / experiment
        shutil.copytree(os.path.join(out, experiment), dst)
        return cfgs[experiment], str(dst)

    return get


def edit_csv(path, change):
    """Apply change(rows) to a CSV's rows (dicts) and write it back."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_real_outputs_pass(outputs, workload):
    out, cfgs = outputs(workload)
    for exp, cfg in cfgs.items():
        assert checks.check_experiment(cfg, os.path.join(out, exp)) == {}


# ode-spherical -------------------------------------------------------------

def test_ode_rejects_shifted_marginal(copy_of):
    cfg, d = copy_of("ode-limit", "ode-spherical")
    name = "traj_s2_l2p38_crn.csv"

    def shift(rows):
        for r in rows[1:]:
            r["x"] = repr(float(r["x"]) + 1e-4)
            r["s"] = repr(float(r["x"]) + float(r["y"]) - 2 * float(r["v"]))

    edit_csv(os.path.join(d, name), shift)
    assert "marginal limit" in checks.check_ode_spherical(cfg, d)[name]


def test_ode_rejects_broken_order(copy_of):
    cfg, d = copy_of("ode-limit", "ode-spherical")
    crn, gcrn = (os.path.join(d, f"traj_s2_l2p38_{k}.csv") for k in ("crn", "gcrn"))
    os.replace(crn, crn + ".tmp")
    os.replace(gcrn, crn)
    os.replace(crn + ".tmp", gcrn)
    failed = checks.check_ode_spherical(cfg, d)
    assert "order" in failed["traj_s2_l2p38_gcrn.csv"]


def test_ode_rejects_point_outside_s(copy_of):
    cfg, d = copy_of("ode-limit", "ode-spherical")
    name = "traj_s0_l2p38_reflection.csv"

    def escape(rows):
        r = rows[50]
        r["v"] = repr(math.sqrt(float(r["x"]) * float(r["y"])) + 0.01)
        r["s"] = repr(float(r["x"]) + float(r["y"]) - 2 * float(r["v"]))

    edit_csv(os.path.join(d, name), escape)
    assert "sqrt(xy)" in checks.check_ode_spherical(cfg, d)[name]


# mcmc-vs-ode ---------------------------------------------------------------

def test_overlay_rejects_large_gap(copy_of):
    cfg, d = copy_of("ode-limit", "mcmc-vs-ode")
    name = "cmp_s1_l2p38_gcrn.csv"

    gap = []

    def lift(rows):
        for r in rows:
            r["s_mcmc"] = repr(float(r["s_mcmc"]) + 1.0)
        gap.append(max(abs(float(r["s_mcmc"]) - float(r["s_ode"])) for r in rows))

    edit_csv(os.path.join(d, name), lift)

    def restate(rows):
        for r in rows:
            if (r["start"], r["kind"]) == ("1", "gcrn"):
                r["sup_gap"] = repr(gap[0])

    edit_csv(os.path.join(d, "summary.csv"), restate)
    assert "tolerance" in checks.check_mcmc_vs_ode(cfg, d)[name]


def test_overlay_rejects_misreported_gap(copy_of):
    cfg, d = copy_of("ode-limit", "mcmc-vs-ode")

    def misreport(rows):
        rows[0]["sup_gap"] = repr(float(rows[0]["sup_gap"]) * 0.5)

    edit_csv(os.path.join(d, "summary.csv"), misreport)
    assert "recomputed" in checks.check_mcmc_vs_ode(cfg, d)["cmp_s0_l2p38_crn.csv"]


# meetings ------------------------------------------------------------------

@pytest.mark.parametrize("experiment", ["svm-convergence", "hug-hop-convergence"])
def test_meetings_reject_capped(copy_of, experiment):
    cfg, d = copy_of("meet", experiment)

    def cap(rows):
        rows[0]["capped"] = "1"
        rows[0]["tau"] = "inf"

    edit_csv(os.path.join(d, "meetings.csv"), cap)
    assert checks.check_meetings(cfg, d)["replicate 0"] == "capped"


@pytest.mark.parametrize("experiment", ["svm-convergence", "hug-hop-convergence"])
def test_meetings_reject_tau_within_lag(copy_of, experiment):
    cfg, d = copy_of("meet", experiment)

    def early(rows):
        rows[-1]["tau"] = repr(float(cfg["lag"]))

    edit_csv(os.path.join(d, "meetings.csv"), early)
    assert "above the lag" in checks.check_meetings(cfg, d)[f"replicate {cfg['replicates'] - 1}"]


@pytest.mark.parametrize("experiment", ["svm-convergence", "hug-hop-convergence"])
def test_meetings_reject_tv_mismatch(copy_of, experiment):
    cfg, d = copy_of("meet", experiment)

    def bump(rows):
        rows[3]["estimate"] = repr(float(rows[3]["estimate"]) + 1.0)
        rows[3]["ci_high"] = repr(float(rows[3]["ci_high"]) + 1.0)

    edit_csv(os.path.join(d, "tv_curve.csv"), bump)
    failed = checks.check_meetings(cfg, d)
    assert "meeting-time formula" in failed["replicate 0"]


@pytest.mark.parametrize("experiment", ["svm-convergence", "hug-hop-convergence"])
def test_meetings_reject_w2_outside_interval(copy_of, experiment):
    cfg, d = copy_of("meet", experiment)

    def squeeze(rows):
        rows[0]["ci_high"] = repr(float(rows[0]["estimate"]) * 0.5)

    edit_csv(os.path.join(d, "w2_curve.csv"), squeeze)
    assert "interval" in checks.check_meetings(cfg, d)["replicate 0"]


def test_meetings_reject_w2_not_ending_at_zero(copy_of):
    cfg, d = copy_of("meet", "hug-hop-convergence")

    def tail(rows):
        rows[-1]["estimate"] = rows[-1]["ci_high"] = "0.5"

    edit_csv(os.path.join(d, "w2_curve.csv"), tail)
    assert "end at 0" in checks.check_meetings(cfg, d)["replicate 0"]


# svm-bias ------------------------------------------------------------------

def test_bias_rejects_gcrn_above_crn(copy_of):
    cfg, d = copy_of("svm-bias", "svm-bias")

    def swap(rows):
        by_kind = {r["kind"]: r for r in rows}
        by_kind["gcrn"]["kind"], by_kind["crn"]["kind"] = "crn", "gcrn"

    edit_csv(os.path.join(d, "bias.csv"), swap)
    assert "not below" in checks.check_svm_bias(cfg, d)["arm gcrn"]


def test_bias_rejects_non_finite(copy_of):
    cfg, d = copy_of("svm-bias", "svm-bias")

    def spoil(rows):
        rows[1]["estimate"] = "nan"

    edit_csv(os.path.join(d, "bias.csv"), spoil)
    assert "non-finite" in checks.check_svm_bias(cfg, d)[f"arm {cfg['couplings'][1]}"]


def test_bias_rejects_estimate_outside_interval(copy_of):
    cfg, d = copy_of("svm-bias", "svm-bias")

    def move(rows):
        rows[2]["estimate"] = repr(float(rows[2]["ci_high"]) + 1.0)

    edit_csv(os.path.join(d, "bias.csv"), move)
    assert "outside" in checks.check_svm_bias(cfg, d)[f"arm {cfg['couplings'][2]}"]


# mcmc-elliptical -----------------------------------------------------------

@pytest.mark.parametrize("target", ["ar1:0.5", "two-eig:24"])
def test_elliptical_rejects_wrong_epsilon(copy_of, target):
    cfg, d = copy_of("gauss-ellip", "mcmc-elliptical")

    def nudge(rows):
        for r in rows:
            if r["target"] == target:
                r["epsilon"] = repr(float(r["epsilon"]) * (1.0 + 1e-6))

    edit_csv(os.path.join(d, "summary.csv"), nudge)
    assert "epsilon" in checks.check_mcmc_elliptical(cfg, d)[f"plateau {target} crn"]


def test_elliptical_rejects_plateau_off_fixed_point(copy_of):
    cfg, d = copy_of("gauss-ellip", "mcmc-elliptical")

    def lift(rows):
        for r in rows:
            if (r["target"], r["kind"]) == ("chi2:3", "crn"):
                r["plateau"] = repr(float(r["plateau"]) + 1.0)

    edit_csv(os.path.join(d, "summary.csv"), lift)
    assert "fixed point" in checks.check_mcmc_elliptical(cfg, d)["plateau chi2:3 crn"]


def test_elliptical_rejects_gcrn_above_reflection(copy_of):
    cfg, d = copy_of("gauss-ellip", "mcmc-elliptical")

    def swap(rows):
        by_kind = {r["kind"]: r for r in rows if r["target"] == "ar1:0.5"}
        g, r = by_kind["gcrn"], by_kind["reflection"]
        g["plateau"], r["plateau"] = r["plateau"], g["plateau"]

    edit_csv(os.path.join(d, "summary.csv"), swap)
    failed = checks.check_mcmc_elliptical(cfg, d)
    assert "plateau ar1:0.5 gcrn" in failed and "plateau ar1:0.5 reflection" in failed


def test_elliptical_rejects_broken_prediction_order(copy_of):
    cfg, d = copy_of("gauss-ellip", "mcmc-elliptical")

    def swap(rows):
        by_kind = {r["kind"]: r for r in rows if r["target"] == "two-eig:24"}
        c, r = by_kind["crn"], by_kind["reflection"]
        c["predicted"], r["predicted"] = r["predicted"], c["predicted"]
        c["plateau"], r["plateau"] = c["predicted"], r["predicted"]

    edit_csv(os.path.join(d, "summary.csv"), swap)
    assert "predicted order" in checks.check_mcmc_elliptical(cfg, d)["plateau two-eig:24 crn"]
