"""Bounce-kernel coupling and the Gaussian transport floor.

The Hug kernel moves along density contours with reflected velocities, so
a shared velocity contracts two chains on the same level set at a known
rate.  Separately, the Gelbrich bound gives a closed-form floor on the
squared Wasserstein distance between two Gaussians, which any coupled
stationary bias estimate must dominate.
"""

import numpy as np

from mcmccoup.core_math import RngStream
from mcmccoup.couplings import CoupledChainState, coupled_hug_hop_step, coupled_hug_step, cross_target_coupled_step
from mcmccoup.diagnostics import gelbrich_bound, run_replicates, stationary_bias_bound
from mcmccoup.kernels import HopParams, HugParams
from mcmccoup.targets import DenseGaussian, SphericalGaussian

SEED = 1414
D = 500

# ---------------------------------------------------------------------
# 1. contraction of a shared-velocity bounce

target = SphericalGaussian(D)
rng = RngStream(SEED, 0)
delta = 0.4
hug = HugParams(total_time=delta, bounces=1)

x = rng.standard_normal(D)
w = rng.standard_normal(D)
tang = w - (float(np.dot(w, x)) / float(np.dot(x, x))) * x
y = x + 1e-3 * tang / np.linalg.norm(tang)
y *= np.linalg.norm(x) / np.linalg.norm(y)

state = CoupledChainState(x=x, y=y)
ratios = []
for _ in range(150):
    before = float(np.linalg.norm(state.x - state.y))
    state = coupled_hug_step(state, hug, target, rng)
    ratios.append(float(np.linalg.norm(state.x - state.y)) / before)
print(f"per-step contraction {np.mean(ratios):.5f}")
print(f"predicted 1 - 2 delta^2/(4 + delta^2) = {1 - 2 * delta**2 / (4 + delta**2):.5f}")

# ---------------------------------------------------------------------
# 2. adding the hop move gives exact meetings across level sets

hug10 = HugParams(total_time=0.5, bounces=10)
hop = HopParams(lam=20.0, mu=1.0)
d_small = 30
small = SphericalGaussian(d_small)


def step(state, rng):
    return coupled_hug_hop_step(state, hug10, hop, 1e-4, small, rng)


def start(rng):
    return small.sample(rng), small.sample(rng)


records, _ = run_replicates(
    step, start, lag=100, n_replicates=6, max_iter=50_000,
    seed=SEED + 1, store_trace=False,
)
print(f"\nhug/hop meeting times at d = {d_small}: {sorted(round(r.tau) for r in records)}")

# ---------------------------------------------------------------------
# 3. the transport floor and a coupled estimate that respects it

rng0 = np.random.default_rng(5)
a = rng0.standard_normal((2, 2))
s1 = a @ a.T + 0.3 * np.eye(2)
b = rng0.standard_normal((2, 2))
s2 = b @ b.T + 0.3 * np.eye(2)
mu1, mu2 = np.array([0.0, 0.0]), np.array([1.0, -0.5])

floor = gelbrich_bound(mu1, s1, mu2, s2)
ta, tb = DenseGaussian(mu1, s1), DenseGaussian(mu2, s2)
stream = RngStream(SEED + 2, 0)
state = CoupledChainState(x=ta.sample(stream), y=tb.sample(stream))
tr = np.empty(15_000)
for t in range(15_000):
    state = cross_target_coupled_step(state, 1.2, ta, tb, "gcrn", stream)
    gap = state.x - state.y
    tr[t] = float(gap @ gap)
est, _ = stationary_bias_bound([tr], burn_in=2_000)
print(f"\ngelbrich floor {floor:.4f} <= coupled estimate {est:.4f}")
print("the gap between them is the price of coupling two different laws")
