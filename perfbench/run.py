"""Benchmark of the coupled-RWM experiments, end to end and layer by layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {ode-limit,meet,svm-bias,gauss-ellip}
        [--seed N] [--seconds S] [--trace 0|1]

Each round runs the workload's experiments once in a fresh single-threaded
process (perfbench/child.py) through `mcmccoup.cli.main`, then checks the
CSVs it wrote (perfbench/checks.py).  Round k uses the experiment seed
derived from (--seed, k); rounds repeat until --seconds is spent, and at
least two run.

--trace 0 prints the end-to-end metrics, each the median over the rounds
(chain_steps_per_s of each round is its steps over its wall_s).  --trace 1 repeats pairs of an untraced and a traced
round of round 0's seed and prints the per-layer metrics: counts from the
traced round (they must repeat exactly), times as medians over the pairs,
and trace.overhead_s as the median traced minus untraced wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when an output check
failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from workloads import WORKLOADS, chain_steps, operations

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench"  # relative to the checkout root; see .gitignore
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "chain_steps_per_s": "steps/s",
}
LAYER_UNITS = {"trace.overhead_s": "s", "experiments.output_bytes": "bytes"}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_per_step", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def round_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def machine_facts(root: str) -> dict:
    import scipy

    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], root) else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def run_round(workload: str, seed: int, rdir: str, trace: bool, budget_s: float) -> dict:
    """Run one child process and check its outputs."""
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    out = os.path.join(rdir, "out")
    result_path = os.path.join(rdir, "result.json")
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), out,
         result_path, "1" if trace else "0", repr(t0)],
        env=env, stdout=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = "timeout"
    if code != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"{workload} round with seed {seed} failed: exit {code}")
    with open(result_path) as fh:
        res = json.load(fh)
    res["seed"] = seed
    res["ops"] = 0
    res["failures"] = {}
    res["steps"] = 0
    for cfg, exit_code in zip(res["configs"], res["exit_codes"]):
        rundir = os.path.join(out, cfg["experiment"])
        ops = operations(cfg)
        res["ops"] += len(ops)
        if exit_code != 0:
            failed = {op: f"exit code {exit_code}" for op in ops}
        else:
            try:
                failed = checks.check_experiment(cfg, rundir)
                res["steps"] += chain_steps(cfg, rundir)
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                failed = {op: f"output not readable: {exc!r}" for op in ops}
        res["failures"].update({f"{cfg['experiment']}: {op}": why for op, why in failed.items()})
    res["output_bytes"] = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files
    )
    return res


def end_to_end(rounds: list) -> dict:
    def median(key):
        return statistics.median(key(r) for r in rounds)

    return {
        "wall_s": median(lambda r: r["wall_s"]),
        "setup_s": median(lambda r: r["setup_s"]),
        "cpu_s": median(lambda r: r["cpu_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "chain_steps_per_s": median(lambda r: r["steps"] / r["wall_s"]),
    }


def per_layer(pairs: list) -> dict:
    traced = [t for _, t in pairs]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if layer_unit(name) == "count":
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    sizes = {t["output_bytes"] for t in traced}
    if len(sizes) != 1:
        raise RuntimeError(f"output size differs between traced rounds: {sizes}")
    metrics["experiments.output_bytes"] = sizes.pop()
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mcmccoup", "cli.py")):
        print("run from the root of an mcmccoup checkout: src/mcmccoup is missing", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()

    def budget():
        return max(10.0, CHILD_TIMEOUT_S - (time.monotonic() - started))

    def more(done: int) -> bool:
        elapsed = time.monotonic() - started
        return done < MIN_ROUNDS - (1 if args.trace else 0) or elapsed * (done + 1) / done <= args.seconds

    rounds, pairs = [], []
    try:
        if args.trace:
            seed = round_seed(args.seed, 0)
            while not pairs or more(len(pairs)):
                plain = run_round(args.workload, seed, os.path.join(work, "plain"), False, budget())
                traced = run_round(args.workload, seed, os.path.join(work, "traced"), True, budget())
                if traced["layers"]["couplings.step_calls"] != plain["steps"]:
                    raise RuntimeError(f"traced step calls {traced['layers']['couplings.step_calls']}"
                                       f" differ from the {plain['steps']} steps the outputs imply")
                pairs.append((plain, traced))
            rounds = [r for pair in pairs for r in pair]
        else:
            while not rounds or more(len(rounds)):
                k = len(rounds)
                rounds.append(run_round(args.workload, round_seed(args.seed, k),
                                        os.path.join(work, f"round-{k}"), False, budget()))
        metrics = per_layer(pairs) if args.trace else end_to_end(rounds)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["ops"] for r in rounds)
    failures = [f"round {i} (seed {r['seed']}) {op}: {why}"
                for i, r in enumerate(rounds) for op, why in r["failures"].items()]
    units = E2E_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    facts = machine_facts(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "rounds": rounds, "failures": failures,
    }
    with open(os.path.join(work, f"run-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  machine {json.dumps(facts)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  attempted {attempted}  failed {len(failures)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
