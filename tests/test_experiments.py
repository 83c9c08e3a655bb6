import dataclasses
import json
import math
import runpy
from pathlib import Path

import numpy as np
import pytest

from mcmccoup.cli import build_parser, main
from mcmccoup.core_math import RngStream
from mcmccoup.experiments import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    _FIELD_PARSERS,
    _start_pair,
    make_config,
    parse_config_file,
    resolve,
    run_experiment,
)


def test_defaults_fill_by_experiment_and_scale():
    desk = resolve(make_config({"experiment": "mcmc-vs-ode", "seed": 1}))
    paper = resolve(make_config({"experiment": "mcmc-vs-ode", "seed": 1, "scale": "paper"}))
    assert desk.d == 200 and paper.d == 1000
    assert desk.starts == paper.starts and len(desk.starts) == 4
    assert desk.replicates < paper.replicates
    # explicit values win over defaults
    custom = resolve(make_config({"experiment": "mcmc-vs-ode", "seed": 1, "d": 32}))
    assert custom.d == 32
    sweep = resolve(make_config({"experiment": "asymptote-elliptical", "seed": 1}))
    assert 2.38 in sweep.l_grid and min(sweep.eps_grid) > 1.0


def test_config_field_errors_are_attributed():
    with pytest.raises(ConfigError) as err:
        make_config({"experiment": "asymptote-spherical", "seed": 1, "bogus": 3})
    assert err.value.field == "bogus"
    with pytest.raises(ConfigError) as err:  # the step size h is retired
        make_config({"experiment": "mcmc-elliptical", "seed": 1, "h": 0.3})
    assert err.value.field == "h"
    with pytest.raises(ConfigError) as err:
        make_config({"experiment": "asymptote-spherical"})
    assert err.value.field == "seed"
    with pytest.raises(ConfigError) as err:
        make_config({"experiment": "not-a-thing", "seed": 1})
    assert err.value.field == "experiment"
    with pytest.raises(ConfigError) as err:
        make_config({"experiment": "asymptote-spherical", "seed": "twelve"})
    assert err.value.field == "seed"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment="mcmc-vs-ode", seed=1, d=-4)
    assert err.value.field == "d"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment="mcmc-vs-ode", seed=1, couplings=("banana",))
    assert err.value.field == "couplings"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment="mcmc-vs-ode", seed=1, scale="huge")
    assert err.value.field == "scale"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment="ode-spherical", seed=1, starts=((1.0, 1.0, 2.0),))
    assert err.value.field == "starts"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(experiment="svm-threshold-sweep", seed=1, delta_grid=())
    assert err.value.field == "delta_grid"


def test_every_config_field_has_one_parser():
    assert list(_FIELD_PARSERS) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_config_file_formats(tmp_path):
    kv = tmp_path / "run.cfg"
    kv.write_text(
        "# comment line\n"
        "experiment=mcmc-vs-ode\n"
        "seed=7\n"
        "d=10\n"
        "couplings=crn,gcrn\n"
        "delta_grid=0.1,0.2\n"
        "starts=1,1,0;0.5,0.5,0.2\n"
    )
    cfg = make_config(parse_config_file(str(kv)))
    assert cfg.seed == 7 and cfg.d == 10
    assert cfg.couplings == ("crn", "gcrn")
    assert cfg.delta_grid == (0.1, 0.2)
    assert cfg.starts == ((1.0, 1.0, 0.0), (0.5, 0.5, 0.2))

    # threads is retired: still accepted once checked, but not a config field
    js = tmp_path / "run.json"
    js.write_text(json.dumps({"experiment": "asymptote-spherical", "seed": 3, "threads": 2}))
    cfg = make_config(parse_config_file(str(js)))
    assert cfg == make_config({"experiment": "asymptote-spherical", "seed": 3})
    assert "threads" not in _FIELD_PARSERS
    assert not hasattr(cfg, "threads")
    for bad_threads in ("abc", 0, True):
        with pytest.raises(ConfigError) as err:
            make_config({"experiment": "asymptote-spherical", "seed": 3, "threads": bad_threads})
        assert err.value.field == "threads"

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 7\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_cli_error_exit_codes(tmp_path):
    assert main(["ode-spherical"]) == 2  # seed missing
    assert main(["ode-spherical", "--seed", "1", "--set", "d=banana"]) == 2
    assert main(["ode-spherical", "--seed", "1", "--set", "nonsense"]) == 2
    assert main(["mcmc-elliptical", "--seed", "1", "--set", "h=0.3"]) == 2
    assert main(["ode-spherical", "--seed", "1", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("experiment, kind", [
    ("mcmc-elliptical", "reflection-maximal"),
    ("ode-spherical", "two-scale"),
    ("mcmc-vs-ode", "two-scale"),
    ("svm-bias", "two-scale"),
    ("svm-threshold-sweep", "crn"),
    ("hug-hop-convergence", "crn"),
    ("hop-threshold-sweep", "gcrn"),
])
def test_couplings_an_experiment_cannot_run_are_config_errors(tmp_path, capsys, experiment, kind):
    argv = [experiment, "--seed", "1", "--out", str(tmp_path), "--set", f"couplings={kind}"]
    assert main(argv) == 2
    assert "config error: couplings:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_zero_norm_starts_with_couplings_are_config_errors(tmp_path, capsys):
    # couplings filled from the defaults are checked too
    for experiment in ("ode-spherical", "mcmc-vs-ode"):
        argv = [experiment, "--seed", "1", "--out", str(tmp_path), "--set", "starts=0,1,0"]
        for extra in ([], ["--set", "couplings=crn"]):
            assert main(argv + extra) == 2
            assert "config error: starts:" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []
    # the optimal envelope alone is defined on that boundary
    argv = ["ode-spherical", "--seed", "1", "--out", str(tmp_path), "--set", "starts=0,1,0",
            "--set", "couplings=", "--set", "t_end=0.05", "--set", "dt=0.01"]
    assert main(argv) == 0


def test_ode_spherical_writes_every_curve(tmp_path):
    code = main([
        "ode-spherical", "--seed", "5", "--out", str(tmp_path),
        "--set", "t_end=0.5", "--set", "dt=0.01",
    ])
    assert code == 0
    rundir = tmp_path / "ode-spherical"
    trajs = sorted(p.name for p in rundir.glob("traj_*.csv"))
    # four starts x two step parameters x (three couplings + optimal envelope)
    assert len(trajs) == 32
    header = (rundir / trajs[0]).read_text().splitlines()[0]
    assert header == "t,x,y,v,s"
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["experiment"] == "ode-spherical"
    assert manifest["seed"] == 5
    assert "summary.csv" in manifest["files"]
    assert len(manifest["files"]) == 33  # 32 curves + summary


def test_mcmc_vs_ode_traces_follow_limit(tmp_path):
    cfg = make_config({
        "experiment": "mcmc-vs-ode", "seed": 21, "out": str(tmp_path),
        "d": 100, "replicates": 4, "t_end": 1.0,
        "l_grid": [2.38], "couplings": "crn,gcrn",
    })
    assert run_experiment(cfg) == 0
    summary = np.genfromtxt(
        tmp_path / "mcmc-vs-ode" / "summary.csv", delimiter=",", names=True,
        dtype=None, encoding="utf-8",
    )
    assert summary.shape == (8,)  # 4 starts x 1 l x 2 couplings
    assert float(summary["sup_gap"].max()) < 0.35
    one = np.genfromtxt(
        tmp_path / "mcmc-vs-ode" / "cmp_s0_l2p38_crn.csv", delimiter=",", names=True,
    )
    assert one["t_scaled"][0] == 0.0
    assert one["s_mcmc"][0] == pytest.approx(one["s_ode"][0], abs=0.3)


def test_asymptote_sweeps(tmp_path):
    assert main(["asymptote-spherical", "--seed", "2", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(
        tmp_path / "asymptote-spherical" / "sweep.csv", delimiter=",", names=True,
        dtype=None, encoding="utf-8",
    )
    crn = rows[rows["kind"] == "crn"]
    assert np.all(crn["v_star"] > 0) and np.all(crn["v_star"] <= 1.0)
    assert float(crn["l"][np.argmax(crn["esjd"])]) == pytest.approx(2.38)

    assert main(["asymptote-elliptical", "--seed", "2", "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(
        tmp_path / "asymptote-elliptical" / "sweep.csv", delimiter=",", names=True,
        dtype=None, encoding="utf-8",
    )
    refl = rows[(rows["kind"] == "reflection") & (rows["l"] == 2.38)]
    order = np.argsort(refl["epsilon"])
    assert np.all(np.diff(refl["v_star"][order]) < 0)  # less coupled as eps grows


def test_mcmc_elliptical_output_schema(tmp_path):
    cfg = make_config({
        "experiment": "mcmc-elliptical", "seed": 4, "out": str(tmp_path),
        "d": 20, "replicates": 2, "n_steps": 300, "target": "ar1:0.5",
    })
    assert run_experiment(cfg) == 0
    summary = np.genfromtxt(
        tmp_path / "mcmc-elliptical" / "summary.csv", delimiter=",", names=True,
        dtype=None, encoding="utf-8",
    )
    assert summary.shape == (3,)
    assert set(summary["kind"]) == {"crn", "reflection", "gcrn"}
    assert np.all(summary["epsilon"] > 1.0)
    trace = np.genfromtxt(
        tmp_path / "mcmc-elliptical" / "trace_ar1-0p5_gcrn.csv",
        delimiter=",", names=True,
    )
    assert trace["s"][0] == pytest.approx(2.0, abs=1.2)


def test_threads_do_not_change_results(tmp_path):
    base = {
        "experiment": "mcmc-elliptical", "seed": 9, "d": 20,
        "replicates": 3, "n_steps": 200, "target": "two-eig:4",
    }
    run_experiment(make_config({**base, "out": str(tmp_path / "a"), "threads": 1}))
    run_experiment(make_config({**base, "out": str(tmp_path / "b"), "threads": 3}))
    argv = ["mcmc-elliptical", "--out", str(tmp_path / "c"), "--threads", "4"]
    for key, value in base.items():
        if key != "experiment":
            argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    # a manifest written while threads and the step size h were config
    # fields replays unchanged
    manifest = json.loads((tmp_path / "a" / "mcmc-elliptical" / "manifest.json").read_text())
    manifest["config"].update(threads=3, h=None)
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["mcmc-elliptical", "--config", str(old), "--out", str(tmp_path / "d")]) == 0
    names = sorted(p.name for p in (tmp_path / "a" / "mcmc-elliptical").glob("*.csv"))
    assert "summary.csv" in names and "trace_two-eig-4_crn.csv" in names
    for name in names:
        a = (tmp_path / "a" / "mcmc-elliptical" / name).read_bytes()
        for run in "bcd":
            assert (tmp_path / run / "mcmc-elliptical" / name).read_bytes() == a, (run, name)


def test_manifest_replay_reproduces_csvs(tmp_path):
    cfg = make_config({
        "experiment": "hug-hop-convergence", "seed": 12, "out": str(tmp_path / "one"),
        "d": 10, "lag": 50, "replicates": 3, "max_iter": 10_000,
    })
    assert run_experiment(cfg) == 0
    manifest_path = tmp_path / "one" / "hug-hop-convergence" / "manifest.json"
    replay = make_config({**parse_config_file(str(manifest_path)), "out": str(tmp_path / "two")})
    assert run_experiment(replay) == 0
    manifest = json.loads(manifest_path.read_text())
    for name in manifest["files"]:
        if name == "manifest.json":
            continue
        a = (tmp_path / "one" / "hug-hop-convergence" / name).read_bytes()
        b = (tmp_path / "two" / "hug-hop-convergence" / name).read_bytes()
        assert a == b, name


def test_svm_convergence_small_instance(tmp_path):
    cfg = make_config({
        "experiment": "svm-convergence", "seed": 12, "out": str(tmp_path),
        "d": 16, "lag": 200, "replicates": 3, "max_iter": 20_000,
    })
    assert run_experiment(cfg) == 0
    rundir = tmp_path / "svm-convergence"
    meetings = np.genfromtxt(rundir / "meetings.csv", delimiter=",", names=True)
    assert np.all(meetings["capped"] == 0)
    assert np.all(meetings["tau"] > meetings["lag"])
    capped = np.genfromtxt(
        rundir / "capped.csv", delimiter=",", names=True, dtype=None, encoding="utf-8",
    )
    for row in capped:
        if row["kind"] in ("crn", "reflection"):
            assert row["n_capped"] == row["n_replicates"]
    tv = np.genfromtxt(rundir / "tv_curve.csv", delimiter=",", names=True,
                       dtype=None, encoding="utf-8")
    assert np.all(np.diff(tv["estimate"]) <= 0)
    assert tv["estimate"][-1] == 0.0


def test_svm_bias_schema(tmp_path):
    cfg = make_config({
        "experiment": "svm-bias", "seed": 12, "out": str(tmp_path),
        "d": 16, "replicates": 2, "n_steps": 2_000,
    })
    assert run_experiment(cfg) == 0
    rows = np.genfromtxt(
        tmp_path / "svm-bias" / "bias.csv", delimiter=",", names=True,
        dtype=None, encoding="utf-8",
    )
    assert set(rows["kind"]) == {"gcrn", "crn", "reflection"}
    assert np.all(rows["estimate"] > 0)
    assert np.all(rows["ci_low"] <= rows["estimate"])
    assert np.all(rows["estimate"] <= rows["ci_high"])


def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch):
    import mcmccoup.experiments as exp

    real = exp._write_csv
    calls = {"n": 0}

    def failing(path, header, rows):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("disk full")
        real(path, header, rows)

    monkeypatch.setattr(exp, "_write_csv", failing)
    cfg = make_config({
        "experiment": "mcmc-elliptical", "seed": 4, "out": str(tmp_path),
        "d": 20, "replicates": 2, "n_steps": 100,
    })
    with pytest.raises(OSError):
        run_experiment(cfg)
    leftovers = list((tmp_path / "mcmc-elliptical").glob("*"))
    assert leftovers == []


def test_start_pair_matches_requested_moments():
    d = 40_000
    rng = RngStream(8, 0)
    x, y = _start_pair(1.5, 0.5, -0.4, d, rng)
    assert float(x @ x) / d == pytest.approx(1.5, abs=0.05)
    assert float(y @ y) / d == pytest.approx(0.5, abs=0.03)
    rho = float(x @ y) / (d * math.sqrt(1.5 * 0.5))
    assert rho == pytest.approx(-0.4, abs=0.03)


def test_benchmark_workloads_resolve_and_parse(tmp_path):
    # the benchmark builds its configs and command lines with these helpers;
    # a config field or CLI change that breaks them fails here, not in a round
    # (run_path compiles the file without writing bytecode beside it)
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    bench = runpy.run_path(str(workloads))
    parser = build_parser()
    out = str(tmp_path)
    steps = [step for steps in bench["WORKLOADS"].values() for step in steps]
    assert steps
    for experiment, overrides in steps:
        cfg = resolve(make_config(bench["config_mapping"](experiment, overrides, 1, out)))
        assert cfg.experiment == experiment
        args = parser.parse_args(bench["cli_argv"](experiment, overrides, 1, out))
        assert args.experiment == experiment and args.seed == 1
        assert len(args.overrides) == len(overrides)


def test_experiment_registry_is_complete():
    from mcmccoup.experiments import _RUNNERS

    # shared runners serve several keys; none of the experiments may drop out
    assert set(_RUNNERS) == set(EXPERIMENTS)
