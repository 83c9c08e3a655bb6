"""One round of one workload, in a fresh single-threaded process.

Usage (from the root of a checkout):
    python3 perfbench/child.py WORKLOAD SEED OUTDIR RESULT_JSON TRACE T0

T0 is the parent's time.monotonic() just before it started this process,
so setup_s covers interpreter start, importing mcmccoup from ./src and
building and resolving the workload's configs.  The experiments then run
through `mcmccoup.cli.main`; wall_s runs from the first main call to the
last return.  With TRACE=1 the layers are wrapped first and the spans are
written next to RESULT_JSON.
"""

import os
import sys
import time


def main() -> int:
    workload, seed, outdir, result_path, trace, t0 = sys.argv[1:7]
    seed, trace, t0 = int(seed), trace == "1", float(t0)
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    import json
    import resource
    from dataclasses import asdict

    import mcmccoup
    if not os.path.abspath(mcmccoup.__file__).startswith(os.path.join(src, "")):
        print(f"mcmccoup imported from {mcmccoup.__file__}, not from {src}", file=sys.stderr)
        return 2
    from mcmccoup.cli import main as cli_main
    from mcmccoup.experiments import make_config, resolve

    from workloads import WORKLOADS, cli_argv, config_mapping

    steps = WORKLOADS[workload]
    configs = [
        asdict(resolve(make_config(config_mapping(exp, overrides, seed, outdir))))
        for exp, overrides in steps
    ]
    setup_s = time.monotonic() - t0

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(f"{workload}/seed={seed}/pid={os.getpid()}")
        tracer.install()

    codes = []
    start = time.perf_counter()
    for exp, overrides in steps:
        codes.append(cli_main(cli_argv(exp, overrides, seed, outdir)))
    wall_s = time.perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_codes": codes,
        "configs": configs,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(os.path.splitext(result_path)[0] + "-spans.npz")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
