"""perfbench's tracer still sees every coupled step the outputs imply.

A traced benchmark round fails when the tracer's count of coupled step calls
disagrees with the steps the written outputs imply.  This runs the tracer on
toy-size versions of each chain-running experiment the benchmark uses, in a
subprocess (installing the tracer rewires the package's modules), and checks
the two counts agree.  It only reads from perfbench/.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import json, os, sys
from dataclasses import asdict

root, out = sys.argv[1:3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from mcmccoup.cli import main
from mcmccoup.experiments import make_config, resolve
from tracer import Tracer
from workloads import chain_steps, cli_argv, config_mapping

steps = [
    ("svm-convergence", {"couplings": "two-scale", "d": "5", "lag": "50",
                         "replicates": "1", "max_iter": "1000"}),
    ("hug-hop-convergence", {"d": "5", "lag": "50", "replicates": "2", "max_iter": "500"}),
    ("svm-bias", {"couplings": "gcrn,crn,reflection", "d": "5", "replicates": "1",
                  "n_steps": "200"}),
    ("mcmc-elliptical", {"couplings": "gcrn,crn,reflection", "d": "20", "replicates": "1",
                         "n_steps": "100"}),
    ("mcmc-vs-ode", {"couplings": "crn", "d": "20", "replicates": "1", "t_end": "0.5",
                     "dt": "0.05", "l_grid": "2.38", "starts": "1,1,0"}),
]
tracer = Tracer("trace-check")
tracer.install()
codes, implied = [], 0
for exp, overrides in steps:
    codes.append(main(cli_argv(exp, overrides, 3, out)))
    cfg = asdict(resolve(make_config(config_mapping(exp, overrides, 3, out))))
    implied += chain_steps(cfg, os.path.join(out, exp))
print(json.dumps({"codes": codes, "implied": implied,
                  "traced": tracer.summary()["couplings.step_calls"]}))
"""


def test_traced_step_calls_equal_the_steps_outputs_imply(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert result["implied"] > 0
    assert result["traced"] == result["implied"]
