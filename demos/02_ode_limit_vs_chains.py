"""The three-dimensional ODE limit against simulated coupled chains.

In high dimension the summary (||X||^2, ||Y||^2, X'Y)/d of two coupled
random walk Metropolis chains follows a deterministic ODE in the time
scale t/d.  This script integrates that limit for each coupling from one
shared start and overlays a finite-d simulation at a few checkpoints.
"""

import math

import numpy as np

from mcmccoup.core_math import RngStream
from mcmccoup.couplings import CoupledChainState, CouplingSpec, coupled_rwm_step
from mcmccoup.ode_limits import integrate_w
from mcmccoup.targets import SphericalGaussian

SEED = 21
D = 600
L = 2.38
T_END = 4.0
X0, Y0, RHO0 = 1.5, 0.5, 0.0
REPS = 4
KINDS = ("crn", "reflection", "gcrn")

target = SphericalGaussian(D)
h = L / math.sqrt(D)
n_steps = int(T_END * D)
checkpoints = (0.0, 0.5, 1.0, 2.0, 4.0)

print(f"start (x, y, rho) = ({X0}, {Y0}, {RHO0}), d = {D}, l = {L}, {REPS} replicates")
print(f"\n{'t/d':>5s}", end="")
for kind in KINDS:
    print(f"   {kind + ' ode':>12s} {'chains':>8s}", end="")
print()

curves = {}
for i, kind in enumerate(KINDS):
    ode = integrate_w((X0, Y0, RHO0 * math.sqrt(X0 * Y0)), L, kind, T_END, dt=1.0 / D)
    spec = CouplingSpec(kind)
    acc = np.zeros(n_steps + 1)
    for r in range(REPS):
        rng = RngStream(SEED, 10 * i + r)
        z, zp = rng.standard_normal(D), rng.standard_normal(D)
        x = math.sqrt(X0) * z
        y = math.sqrt(Y0) * (RHO0 * z + math.sqrt(1 - RHO0**2) * zp)
        state = CoupledChainState(x=x, y=y)
        for j in range(n_steps + 1):
            gap = state.x - state.y
            acc[j] += float(gap @ gap) / D
            if j < n_steps:
                state = coupled_rwm_step(state, spec, h, target, rng)
    curves[kind] = (ode.s, acc / REPS)

for tc in checkpoints:
    j = int(tc * D)
    print(f"{tc:5.1f}", end="")
    for kind in KINDS:
        ode_s, mc_s = curves[kind]
        print(f"   {ode_s[j]:12.4f} {mc_s[j]:8.4f}", end="")
    print()

print("\ngcrn drives the squared distance to zero; crn stalls near its fixed")
print("point; reflection sits between them and closes only because the")
print("spherical target has eccentricity one")
