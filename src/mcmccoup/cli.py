"""Command line front end for the experiment runner.

Usage:
    mcmccoup <experiment> [--config FILE] [--seed N] [--scale desk|paper]
             [--out DIR] [--threads K] [--set key=value ...]

Configuration precedence: per-experiment defaults < config file < command
line.  Exit codes: 0 success, 2 configuration problem.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .experiments import (
    EXPERIMENTS,
    SCALES,
    ConfigError,
    make_config,
    parse_config_file,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmccoup",
        description="Run coupled-MCMC experiments with seeded, replayable outputs.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="JSON or key=value config file (a manifest works too)")
    parser.add_argument("--seed", type=int, help="random seed (mandatory here or in the config)")
    parser.add_argument("--scale", choices=SCALES, help="desk (minutes) or paper (full size)")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument(
        "--threads", type=int, metavar="K",
        help="accepted for compatibility and ignored (after a check that K is a"
        " positive integer); replicates run one after another in index order",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config field, e.g. --set d=100 --set couplings=crn,gcrn",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = parse_config_file(args.config) if args.config else {}
        data["experiment"] = args.experiment
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError("--set", f"expected KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            data[key.strip()] = value.strip()
        for name in ("seed", "scale", "out", "threads"):
            value = getattr(args, name)
            if value is not None:
                data[name] = value
        config = make_config(data)
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
