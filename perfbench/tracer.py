"""Span tracing of the mcmccoup layers, installed from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every mcmccoup module that holds it, because `ode_limits`, `fixed_points`
and `experiments` import functions by name; target methods are wrapped on
their classes.  Each wrapped call records a span (name, start, end, parent
span) into compact arrays kept in memory; `write()` saves them with the
workload-run id when the run ends, and `summary()` turns them into the
per-layer metrics.  A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Optional

import numpy as np

STEP_SPAN = "couplings.step"
COALESCE_SPAN = "couplings.coalesce"
GCRN_BRANCHES = ("gcrn", "hop-gcrn")
MAXIMAL_BRANCHES = ("reflection-maximal", "hop-maximal")
INTEGRATE_KINDS = ("crn", "reflection", "gcrn", "optimal")
# the experiments each workload may run; each gets experiments.<name>_s
EXPERIMENT_NAMES = (
    "ode-spherical", "mcmc-vs-ode", "svm-convergence",
    "hug-hop-convergence", "svm-bias", "mcmc-elliptical",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: Counter = Counter()

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None,
             name_of: Optional[Callable] = None) -> Callable:
        """Span-recording wrapper; name_of(args, kwargs) may refine the span name."""
        nid = self._nid(name)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(self._nid(name_of(args, kwargs)) if name_of else nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import mcmccoup
        from mcmccoup import (
            cli, core_math, couplings, diagnostics, experiments,
            fixed_points, kernels, ode_limits, targets,
        )

        modules = (mcmccoup, cli, core_math, couplings, diagnostics, experiments,
                   fixed_points, kernels, ode_limits, targets)
        counters = self.counters

        def replace(fn, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

        def count_branch(args, kwargs, state):
            if state.branch in GCRN_BRANCHES:
                counters["branch_gcrn"] += 1
            elif state.branch in MAXIMAL_BRANCHES:
                counters["branch_maximal"] += 1

        def count_hit(args, kwargs, result):
            counters["coalesce_hits"] += bool(result[2])

        run_replicates_sig = inspect.signature(diagnostics.run_replicates)

        def count_replicates(args, kwargs, result):
            bound = run_replicates_sig.bind(*args, **kwargs)
            counters["replicates"] += bound.arguments["n_replicates"]

        integrate_sig = inspect.signature(ode_limits.integrate_w)

        def integrate_name(args, kwargs):
            kind = kwargs["kind"] if "kind" in kwargs else integrate_sig.bind(*args, **kwargs).arguments["kind"]
            return f"ode_limits.integrate_w:{kind}"

        plain = [
            (core_math.bvn_low, "core_math.bvn", None),
            (core_math.bvn_up, "core_math.bvn", None),
            (ode_limits.g_value, "ode_limits.g_value", None),
            (fixed_points.solve_fixed_point, "fixed_points.solve", None),
            (targets.laplace_fit, "targets.laplace_fit", None),
            (kernels.hug_proposal, "kernels.hug_proposal", None),
            (kernels.hop_proposal_law, "kernels.hop_law", None),
            (couplings.coupled_rwm_step, STEP_SPAN, count_branch),
            (couplings.cross_target_coupled_step, STEP_SPAN, count_branch),
            (couplings.coupled_hug_hop_step, STEP_SPAN, count_branch),
            (couplings.reflection_maximal_pair, COALESCE_SPAN, count_hit),
            (couplings.maximal_independent_pair, COALESCE_SPAN, count_hit),
            (diagnostics.run_replicates, "diagnostics.run_replicates", count_replicates),
            (diagnostics.tv_bound_curve, "diagnostics.bound_curve", None),
            (diagnostics.w2_bound_curve, "diagnostics.bound_curve", None),
            (diagnostics.stationary_bias_bound, "diagnostics.bias_bound", None),
        ]
        for fn, name, hook in plain:
            replace(fn, self.wrap(fn, name, on_result=hook))
        integrate = ode_limits.integrate_w
        replace(integrate, self.wrap(integrate, "ode_limits.integrate_w", name_of=integrate_name))

        for cls in vars(targets).values():
            if inspect.isclass(cls) and issubclass(cls, targets.TargetModel) and cls is not targets.TargetModel:
                for method in ("log_density", "grad"):
                    if method in vars(cls):
                        setattr(cls, method, self.wrap(vars(cls)[method], f"targets.{method}"))

        runners = experiments._RUNNERS
        for exp_name, runner in list(runners.items()):
            runners[exp_name] = self.wrap(runner, f"experiments.{exp_name}")

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> Dict[str, float]:
        return summarize(
            self.names,
            np.frombuffer(self.name_id, dtype=np.int16),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            self.counters,
        )


def summarize(names, name_id, parent, start, end, counters) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters."""
    names = [str(nm) for nm in names]
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(dur.size)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    layer = np.array([nm.split(".", 1)[0] for nm in names])[name_id]

    def where(test):
        return np.isin(name_id, [i for i, nm in enumerate(names) if test(nm)])

    def named(*span_names):
        return where(lambda nm: nm in span_names)

    def mean_dur(mask, scale=1.0):
        return float(dur[mask].mean()) * scale if mask.any() else 0.0

    # time of targets/kernels spans nested in a step span with no other
    # targets/kernels span between them, for the step's self time
    is_step = named(STEP_SPAN)
    is_tk = np.isin(layer, ("targets", "kernels"))
    step_above = np.zeros(dur.size, bool)
    tk_above = np.zeros(dur.size, bool)
    up = parent.astype(np.int64)
    while np.any(up >= 0):
        live = up >= 0
        step_above[live] |= is_step[up[live]]
        tk_above[live] |= is_tk[up[live]]
        up[live] = parent[up[live]]
    step_tk_s = float(dur[is_tk & step_above & ~tk_above].sum())

    steps = int(is_step.sum())
    bvn = named("core_math.bvn")
    g = named("ode_limits.g_value")
    solve = named("fixed_points.solve")
    ld = named("targets.log_density")
    gr = named("targets.grad")
    hug = named("kernels.hug_proposal")
    hop = named("kernels.hop_law")
    rr = named("diagnostics.run_replicates")

    m: Dict[str, float] = {
        "core_math.bvn_calls": int(bvn.sum()),
        "core_math.bvn_us": mean_dur(bvn, 1e6),
        "core_math.bvn_self_s": float(self_t[bvn].sum()),
        "ode_limits.integrate_w_calls": int(where(lambda nm: nm.startswith("ode_limits.integrate_w")).sum()),
    }
    for kind in INTEGRATE_KINDS:
        m[f"ode_limits.integrate_w_{kind}_s"] = mean_dur(named(f"ode_limits.integrate_w:{kind}"))
    m.update({
        "ode_limits.g_value_calls": int(g.sum()),
        "ode_limits.g_value_us": mean_dur(g, 1e6),
        "ode_limits.self_s": float(self_t[layer == "ode_limits"].sum()),
        "fixed_points.solve_calls": int(solve.sum()),
        "fixed_points.solve_ms": mean_dur(solve, 1e3),
        "targets.log_density_calls": int(ld.sum()),
        "targets.grad_calls": int(gr.sum()),
        "targets.log_density_us": mean_dur(ld, 1e6),
        "targets.grad_us": mean_dur(gr, 1e6),
        "targets.log_density_per_step": int(ld.sum()) / steps if steps else 0.0,
        "targets.grad_per_step": int(gr.sum()) / steps if steps else 0.0,
        "targets.laplace_fit_s": float(dur[named("targets.laplace_fit")].sum()),
        "kernels.hug_proposal_calls": int(hug.sum()),
        "kernels.hop_law_calls": int(hop.sum()),
        "kernels.hug_proposal_us": mean_dur(hug, 1e6),
        "kernels.hop_law_us": mean_dur(hop, 1e6),
        "couplings.step_calls": steps,
        "couplings.step_us": mean_dur(is_step, 1e6),
        "couplings.step_self_us": (float(dur[is_step].sum()) - step_tk_s) / steps * 1e6 if steps else 0.0,
        "couplings.branch_gcrn_steps": counters.get("branch_gcrn", 0),
        "couplings.branch_maximal_steps": counters.get("branch_maximal", 0),
        "couplings.coalesce_calls": int(named(COALESCE_SPAN).sum()),
        "couplings.coalesce_hits": counters.get("coalesce_hits", 0),
        "diagnostics.run_replicates_s": float(dur[rr].sum()),
        "diagnostics.run_replicates_self_s": float(self_t[rr].sum()),
        "diagnostics.replicates": counters.get("replicates", 0),
        "diagnostics.bound_curve_s": float(dur[named("diagnostics.bound_curve")].sum()),
        "diagnostics.bias_bound_s": float(dur[named("diagnostics.bias_bound")].sum()),
    })
    for exp_name in EXPERIMENT_NAMES:
        m[f"experiments.{exp_name}_s"] = float(dur[named(f"experiments.{exp_name}")].sum())
    m["experiments.self_s"] = float(self_t[layer == "experiments"].sum())
    return m
