"""Couplings on a stochastic volatility posterior.

The latent log-volatility path of T observations gives a T-dimensional,
non-Gaussian posterior.  A Laplace fit at the mode calibrates the step
size, the two-scale coupling produces exact meetings, and coupling the
posterior against its own Laplace surrogate turns the stationary distance
into a computable bias bound for the surrogate.
"""

import math

import numpy as np

from mcmccoup.core_math import RngStream
from mcmccoup.couplings import (
    CoupledChainState,
    CouplingSpec,
    coupled_rwm_step,
    cross_target_coupled_step,
)
from mcmccoup.diagnostics import run_replicates, stationary_bias_bound
from mcmccoup.targets import SvmParams, SvmPosterior, laplace_fit, spectral_summary, svm_simulate

SEED = 1861
T = 40

params = SvmParams(beta=0.65, phi=0.98, sigma=0.15)
_, y = svm_simulate(T, params, RngStream(SEED, 10**6 + 1))
post = SvmPosterior(y)

# step calibration through the Laplace fit's spectral summary
fit = laplace_fit(post, np.zeros(T), tol=1e-6, max_iter=50_000)
surrogate = fit.as_target()
z1 = spectral_summary(surrogate).z(1)
h = 2.38 / (math.sqrt(T) * z1)
print(f"T = {T} observations, fitted z1 = {z1:.3f}, calibrated h = {h:.5f}")

# exact meetings through the two-scale coupling
spec = CouplingSpec("two-scale", delta=0.005)


def step(state, rng):
    return coupled_rwm_step(state, spec, h, post, rng)


def start(rng):
    return post.prior_sample(rng), post.prior_sample(rng)


records, _ = run_replicates(
    step, start, lag=2_000, n_replicates=6, max_iter=100_000,
    seed=SEED, store_trace=False,
)
taus = [r.tau for r in records]
print(f"two-scale meetings (lag 2000): {sorted(round(t) for t in taus)}")

# surrogate bias bound per coupling: the coupled stationary squared gap
print("\nsurrogate bias bounds, posterior vs laplace fit")
n_steps = 30_000
for kind in ("gcrn", "crn", "reflection"):
    trs = []
    for r in range(3):
        rng = RngStream(SEED + 2, 100 * ("gcrn", "crn", "reflection").index(kind) + r)
        state = CoupledChainState(x=post.prior_sample(rng), y=surrogate.sample(rng))
        tr = np.empty(n_steps)
        for t in range(n_steps):
            state = cross_target_coupled_step(state, h, post, surrogate, kind, rng)
            gap = state.x - state.y
            tr[t] = float(gap @ gap)
        trs.append(tr)
    est, (lo, hi) = stationary_bias_bound(trs, burn_in=n_steps // 3)
    print(f"  {kind:10s} E||X - Y||^2 ~= {est:8.3f}   ci ({lo:.3f}, {hi:.3f})")

print("\ngradient common random numbers give the tightest bound; reflection")
print("keeps re-randomizing the shared directions and pays for it")
