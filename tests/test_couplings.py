"""Exactness, marginality and coalescence checks for the coupling layer.

Closed-form oracles used below:
  - reflection / rotation / gradient-reflection increments are orthogonal
    maps of z, so norms and inner products are preserved to roundoff;
  - the rotation and gradient-reflection maps send n_x to n_y exactly;
  - projection correlations: n_x'n_y (crn) and
    n_x'n_y - 2 (n_x'e)(n_y'e) (reflection);
  - coalescence probability of both maximal couplings of N(x, s^2 I) and
    N(y, s^2 I) is 2 Phi(-||x - y|| / (2 s)).
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from mcmccoup import couplings
from mcmccoup.core_math import RngStream
from mcmccoup.couplings import (
    COUPLING_KINDS,
    CoupledChainState,
    CouplingSpec,
    couple_increments,
    coupled_hug_hop_step,
    coupled_hug_step,
    coupled_rwm_step,
    cross_target_coupled_step,
    grad_projection_correlation,
    maximal_independent_pair,
    reflection_maximal_pair,
)
from mcmccoup.diagnostics import run_replicates
from mcmccoup.kernels import (
    AnisotropicGaussian,
    HopParams,
    HugParams,
    direction,
    hop_accept,
    hop_proposal_law,
    metropolis,
)
from mcmccoup.ode_limits import rho_limit
from mcmccoup.targets import (
    DEFAULT_SVM_PARAMS,
    Ar1Gaussian,
    DiagonalGaussian,
    SphericalGaussian,
    SvmPosterior,
    TargetModel,
    laplace_fit,
    svm_simulate,
)


def _batch_se(samples: np.ndarray, n_batches: int = 50) -> float:
    m = len(samples) // n_batches
    means = samples[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def _random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_coupling_spec_validation():
    with pytest.raises(ValueError):
        CouplingSpec("banana")
    with pytest.raises(ValueError):
        CouplingSpec("two-scale")
    with pytest.raises(ValueError):
        CouplingSpec("crn", delta=0.1)
    assert CouplingSpec("two-scale", delta=0.5).delta == 0.5


def test_couple_increments_argument_errors():
    z = np.ones(3)
    with pytest.raises(ValueError):
        couple_increments("reflection", z)
    with pytest.raises(ValueError):
        couple_increments("gcrn", z, n_x=np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError):
        couple_increments("two-scale", z)


def test_crn_returns_same_array():
    z = np.arange(4.0)
    zx, zy = couple_increments("crn", z)
    assert zx is z and zy is z


@pytest.mark.parametrize("kind", ["reflection", "gcrn-rotation", "gcrn-reflect"])
def test_orthogonal_kinds_preserve_geometry(kind):
    # these couplings apply an orthogonal map to z, so norms and inner
    # products must survive to roundoff
    rng = RngStream(seed=11).generator
    d = 7
    n_x, n_y = _random_unit(rng, d), _random_unit(rng, d)
    e = _random_unit(rng, d)
    for _ in range(100):
        z = rng.standard_normal(d)
        zp = rng.standard_normal(d)
        _, zy = couple_increments(kind, z, n_x=n_x, n_y=n_y, e=e)
        _, zpy = couple_increments(kind, zp, n_x=n_x, n_y=n_y, e=e)
        assert abs(np.linalg.norm(zy) - np.linalg.norm(z)) < 1e-10
        assert abs(np.dot(zy, zpy) - np.dot(z, zp)) < 1e-9


@pytest.mark.parametrize("kind", ["gcrn-rotation", "gcrn-reflect"])
def test_direction_is_mapped_exactly(kind):
    # feeding z = n_x through the map must give n_y
    rng = RngStream(seed=5).generator
    for d in (2, 3, 12):
        n_x, n_y = _random_unit(rng, d), _random_unit(rng, d)
        _, zy = couple_increments(kind, n_x.copy(), n_x=n_x, n_y=n_y)
        assert np.max(np.abs(zy - n_y)) < 1e-12


def test_shared_projection_identity():
    # the acceptance-relevant projections agree across the whole family:
    # gcrn pins both to z1, the rotation and reflection variants pin
    # n_y' z_y to n_x' z_x
    rng = RngStream(seed=23).generator
    d = 9
    n_x, n_y = _random_unit(rng, d), _random_unit(rng, d)
    for _ in range(50):
        z = rng.standard_normal(d)
        z1 = float(rng.standard_normal())
        zx, zy = couple_increments("gcrn", z, z1=z1, n_x=n_x, n_y=n_y)
        assert abs(float(np.dot(n_x, zx)) - z1) < 1e-10
        assert abs(float(np.dot(n_y, zy)) - z1) < 1e-10
        for kind in ("gcrn-rotation", "gcrn-reflect"):
            zx2, zy2 = couple_increments(kind, z, n_x=n_x, n_y=n_y)
            assert abs(float(np.dot(n_y, zy2)) - float(np.dot(n_x, zx2))) < 1e-10


def test_aligned_and_antipodal_direction_edge_cases():
    rng = RngStream(seed=3).generator
    d = 5
    n = _random_unit(rng, d)
    z = rng.standard_normal(d)
    for kind in ("gcrn-rotation", "gcrn-reflect"):
        _, zy = couple_increments(kind, z, n_x=n, n_y=n.copy())
        assert np.array_equal(zy, z)
    # antipodal directions: rotation degenerates to the reflection in n,
    # which still maps n to -n and preserves the projection identity
    _, zy = couple_increments("gcrn-rotation", z, n_x=n, n_y=-n)
    expect = z - 2.0 * float(np.dot(n, z)) * n
    assert np.max(np.abs(zy - expect)) < 1e-12
    assert abs(float(np.dot(-n, zy)) - float(np.dot(n, z))) < 1e-12
    _, zy_r = couple_increments("gcrn-reflect", z, n_x=n, n_y=-n)
    assert np.max(np.abs(zy_r - expect)) < 1e-12


def test_gcrn_increment_moments():
    # z_y = z - (n'z) n + z1 n has mean zero and identity covariance
    rng_stream = RngStream(seed=77)
    rng = rng_stream.generator
    d, n_draws = 3, 40_000
    n_x, n_y = _random_unit(rng, d), _random_unit(rng, d)
    out = np.empty((n_draws, d))
    for i in range(n_draws):
        z = rng.standard_normal(d)
        z1 = float(rng.standard_normal())
        _, out[i] = couple_increments("gcrn", z, z1=z1, n_x=n_x, n_y=n_y)
    se = 1.0 / math.sqrt(n_draws)
    assert np.max(np.abs(out.mean(axis=0))) < 4 * se
    cov = np.cov(out.T)
    assert np.max(np.abs(cov - np.eye(d))) < 4 * math.sqrt(2.0) * se


def test_projection_correlation_closed_forms():
    var = np.array([1.0, 2.0, 0.5, 1.5])
    target = DiagonalGaussian(var)
    x = np.array([0.3, -1.2, 0.8, 0.4])
    y = np.array([-0.5, 0.7, 1.1, -0.2])
    n_x = -(x / var) / np.linalg.norm(x / var)
    n_y = -(y / var) / np.linalg.norm(y / var)
    e = (x - y) / np.linalg.norm(x - y)
    rho_crn = float(np.dot(n_x, n_y))
    rho_refl = rho_crn - 2.0 * float(np.dot(n_x, e)) * float(np.dot(n_y, e))
    state = CoupledChainState(x=x, y=y)
    assert abs(grad_projection_correlation("crn", state, target) - rho_crn) < 1e-12
    assert abs(grad_projection_correlation("reflection", state, target) - rho_refl) < 1e-12
    for kind in ("gcrn", "gcrn-rotation", "gcrn-reflect"):
        assert grad_projection_correlation(kind, state, target) == 1.0
    same = CoupledChainState(x=x, y=x.copy())
    assert grad_projection_correlation("crn", same, target) == 1.0
    with pytest.raises(ValueError):
        grad_projection_correlation("crn", CoupledChainState(x=np.zeros(4), y=y), target)


@pytest.mark.parametrize("spectrum", ["two-eig-d2", "two-eig-d50", "chi2-d50"])
def test_projection_correlation_is_the_rho_limit_rule(spectrum):
    # on a centred Gaussian, the finite-d correlation is rho_limit fed the raw
    # inner products W_k = (x'O^{k+1}x, y'O^{k+1}y, x'O^{k+1}y), O = Sigma^-1
    rng = np.random.default_rng(2022)
    if spectrum == "chi2-d50":
        var = rng.chisquare(3, size=50) / 3.0
    else:
        var = np.tile([1.0, 24.0], 1 if spectrum == "two-eig-d2" else 25)
    target = DiagonalGaussian(var)
    omega = 1.0 / var
    for _ in range(200):
        x, y = (np.sqrt(var) * rng.standard_normal(var.size) for _ in range(2))
        w1, w0, wm1 = (
            tuple(float(np.dot(a * omega ** (k + 1), b)) for a, b in ((x, x), (y, y), (x, y)))
            for k in (1, 0, -1)
        )
        state = CoupledChainState(x=x, y=y)
        for kind in ("crn", "reflection"):
            finite_d = grad_projection_correlation(kind, state, target)
            assert abs(finite_d - rho_limit(kind, w1, w0, wm1)) <= 1e-12


def test_rwm_branch_records_the_crn_fallback():
    # a vanishing gradient (x at the mode) or difference (x == y, not met)
    # leaves no direction to couple in, so the step runs crn and says so
    target = SphericalGaussian(dim=3)
    rng = RngStream(seed=88)
    origin, y = np.zeros(3), np.array([0.5, -0.2, 1.0])
    for kind, state in (
        ("gcrn", CoupledChainState(x=origin, y=y)),
        ("gcrn-rotation", CoupledChainState(x=y, y=origin)),
        ("reflection", CoupledChainState(x=y, y=y.copy())),
    ):
        assert coupled_rwm_step(state, CouplingSpec(kind), 0.5, target, rng).branch == "crn"
    spec = CouplingSpec("two-scale", delta=1e-6)
    assert coupled_rwm_step(CoupledChainState(x=origin, y=y), spec, 0.5, target, rng).branch == "crn"
    state = CoupledChainState(x=y, y=-y)
    assert coupled_rwm_step(state, CouplingSpec("gcrn"), 0.5, target, rng).branch == "gcrn"


def test_projection_correlation_matches_sampling():
    # empirical correlation of the two projections against the formulas
    target = DiagonalGaussian(np.array([1.0, 0.7, 1.8]))
    x = np.array([1.0, -0.4, 0.6])
    y = np.array([-0.8, 0.9, 0.1])
    n_x = -(x / target.variances) / np.linalg.norm(x / target.variances)
    n_y = -(y / target.variances) / np.linalg.norm(y / target.variances)
    e = (x - y) / np.linalg.norm(x - y)
    rng = RngStream(seed=31).generator
    n_draws = 50_000
    for kind in ("crn", "reflection", "gcrn"):
        prods = np.empty(n_draws)
        for i in range(n_draws):
            z = rng.standard_normal(3)
            z1 = float(rng.standard_normal())
            zx, zy = couple_increments(kind, z, z1=z1, n_x=n_x, n_y=n_y, e=e)
            prods[i] = float(np.dot(n_x, zx)) * float(np.dot(n_y, zy))
        rho = grad_projection_correlation(kind, CoupledChainState(x=x, y=y), target)
        se = math.sqrt((1.0 + rho * rho) / n_draws)
        assert abs(prods.mean() - rho) < 4 * se


def test_reflection_maximal_coalescence_probability():
    rng = RngStream(seed=101)
    d, h = 3, 0.5
    x = np.array([0.6, -0.3, 0.2])
    y = x - np.array([1.0, 0.0, 0.0])  # distance 1
    p_true = 2.0 * float(ndtr(-1.0 / (2.0 * h)))
    n_draws = 120_000
    hits = 0
    for _ in range(n_draws):
        px, py, coalesced = reflection_maximal_pair(x, y, h, rng)
        if coalesced:
            assert px is py
            hits += 1
    se = math.sqrt(p_true * (1 - p_true) / n_draws)
    assert abs(hits / n_draws - p_true) < 4 * se


def test_reflection_maximal_marginal_and_distance_identity():
    rng = RngStream(seed=59)
    d, h = 4, 0.8
    x = np.zeros(d)
    y = np.array([0.5, -0.5, 0.25, 0.0])
    n_draws = 40_000
    props_y = np.empty((n_draws, d))
    for i in range(n_draws):
        px, py, coalesced = reflection_maximal_pair(x, y, h, rng)
        props_y[i] = py
        if not coalesced:
            # the reflected residual has the same norm as the shared one
            assert abs(np.linalg.norm(px - x) - np.linalg.norm(py - y)) < 1e-10
    se = h / math.sqrt(n_draws)
    assert np.max(np.abs(props_y.mean(axis=0) - y)) < 4 * se
    assert np.max(np.abs(props_y.var(axis=0) - h * h)) < 4 * h * h * math.sqrt(2.0 / n_draws)
    with pytest.raises(ValueError):
        reflection_maximal_pair(x, y, 0.0, rng)


def test_maximal_independent_overlap_and_marginal():
    rng = RngStream(seed=19)
    sd = 0.5
    mu_x = np.array([0.2, 0.1, -0.4])
    mu_y = mu_x + np.array([0.0, 1.0, 0.0])
    axis = np.array([1.0, 0.0, 0.0])
    law_x = AnisotropicGaussian(mu_x, axis, sd, sd)
    law_y = AnisotropicGaussian(mu_y, axis, sd, sd)
    p_true = 2.0 * float(ndtr(-1.0 / (2.0 * sd)))
    n_draws = 60_000
    hits = 0
    draws_y = np.empty((n_draws, 3))
    for i in range(n_draws):
        wx, wy, coalesced = maximal_independent_pair(law_x, law_y, rng)
        draws_y[i] = wy
        if coalesced:
            assert wx is wy
            hits += 1
    se = math.sqrt(p_true * (1 - p_true) / n_draws)
    assert abs(hits / n_draws - p_true) < 4 * se
    assert np.max(np.abs(draws_y.mean(axis=0) - mu_y)) < 4 * sd / math.sqrt(n_draws)
    assert np.max(np.abs(draws_y.var(axis=0) - sd * sd)) < 4 * sd * sd * math.sqrt(2.0 / n_draws)


def test_maximal_independent_identical_laws_always_coalesce():
    rng = RngStream(seed=2)
    law = AnisotropicGaussian(np.zeros(2), np.array([1.0, 0.0]), 1.0, 1.0)
    for _ in range(200):
        wx, wy, coalesced = maximal_independent_pair(law, law, rng)
        assert coalesced and wx is wy


_MOMENT_KINDS = ("crn", "gcrn", "two-scale")


@pytest.mark.parametrize("kind", _MOMENT_KINDS)
def test_coupled_chain_marginal_moments(kind):
    # each chain of the coupled pair must remain an exact RWM chain; check
    # stationary second moments per coordinate against the target
    var = np.array([1.0, 2.0, 0.5, 1.5])
    target = DiagonalGaussian(var)
    d = var.size
    h = 2.38 / math.sqrt(d)
    spec = CouplingSpec(kind, delta=1.0 if kind == "two-scale" else None)
    rng = RngStream(seed=303, stream_id=_MOMENT_KINDS.index(kind))
    state = CoupledChainState(x=np.ones(d), y=-np.ones(d))
    n_steps, burn = 60_000, 2_000
    sq_x = np.empty((n_steps, d))
    sq_y = np.empty((n_steps, d))
    for i in range(n_steps):
        state = coupled_rwm_step(state, spec, h, target, rng)
        sq_x[i] = state.x**2
        sq_y[i] = state.y**2
    for sq in (sq_x, sq_y):
        tail = sq[burn:]
        for j in range(d):
            se = _batch_se(tail[:, j])
            assert abs(tail[:, j].mean() - var[j]) < 4 * se + 0.005 * var[j]


def test_two_scale_branch_predicate_and_meeting():
    target = SphericalGaussian(dim=2)
    h = 2.38 / math.sqrt(2)
    spec = CouplingSpec("two-scale", delta=0.5)
    rng = RngStream(seed=404)
    state = CoupledChainState(x=np.array([3.0, 3.0]), y=np.array([-3.0, -3.0]))
    met_at = None
    for _ in range(20_000):
        sq_before = float(np.dot(state.x - state.y, state.x - state.y))
        was_met = state.met
        state = coupled_rwm_step(state, spec, h, target, rng)
        if was_met:
            assert state.branch == "common"
        elif sq_before >= spec.delta:
            assert state.branch == "gcrn"
        else:
            assert state.branch == "reflection-maximal"
        if state.met and met_at is None:
            met_at = state.t
    assert met_at is not None, "two-scale coupling never met in 20k steps"


def test_meeting_is_sticky_and_bitwise():
    target = SphericalGaussian(dim=2)
    rng = RngStream(seed=505)
    spec = CouplingSpec("two-scale", delta=0.5)
    state = CoupledChainState(x=np.array([1.0, -1.0]), y=np.array([-0.5, 0.5]))
    for _ in range(20_000):
        state = coupled_rwm_step(state, spec, 1.5, target, rng)
        if state.met:
            break
    assert state.met
    for _ in range(500):
        state = coupled_rwm_step(state, spec, 1.5, target, rng)
        assert state.met
        assert state.x is state.y


@pytest.mark.parametrize("kind", ["crn", "gcrn"])
def test_meeting_needs_the_full_comparison(kind):
    # two distinct proposal arrays can round to one point: 1e-20 + z_i == z_i,
    # so the pair meets on its first step although no coalescing branch ran.
    # gcrn falls back to crn here, since y at the mode has no gradient direction
    x0, y0 = np.full(5, 1e-20), np.zeros(5)
    state = coupled_rwm_step(
        CoupledChainState(x=x0, y=y0), CouplingSpec(kind), 1.0, SphericalGaussian(5),
        RngStream(3, 0),
    )
    assert state.branch == "crn"
    assert state.met and state.t == 1
    z = RngStream(3, 0).standard_normal(5)
    assert np.array_equal(state.x, x0 + z) and np.array_equal(state.x, y0 + z)


def test_coupled_step_determinism():
    target = DiagonalGaussian(np.array([1.0, 0.5]))
    spec = CouplingSpec("gcrn")

    def run(stream_id):
        rng = RngStream(seed=808, stream_id=stream_id)
        state = CoupledChainState(x=np.array([1.0, 1.0]), y=np.array([-1.0, 2.0]))
        for _ in range(200):
            state = coupled_rwm_step(state, spec, 1.2, target, rng)
        return state

    a, b = run(0), run(0)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.met == b.met and a.t == b.t
    c = run(1)
    assert not np.array_equal(a.x, c.x)


def test_coupled_step_validation_and_gradient_fallback():
    target = SphericalGaussian(dim=2)
    rng = RngStream(seed=1)
    state = CoupledChainState(x=np.zeros(2), y=np.zeros(2))
    with pytest.raises(ValueError):
        coupled_rwm_step(state, CouplingSpec("gcrn"), -1.0, target, rng)
    # both chains start at the mode where the gradient vanishes; the gcrn
    # step must fall back to a shared increment rather than fail
    state = CoupledChainState(x=np.zeros(2), y=np.ones(2))
    out = coupled_rwm_step(state, CouplingSpec("gcrn"), 1.0, target, rng)
    assert out.t == 1 and np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.y))


def test_cross_target_marginals_and_no_meeting():
    target_x = DiagonalGaussian(np.array([1.0, 1.0, 1.0]))
    target_y = DiagonalGaussian(np.array([2.0, 2.0, 2.0]))
    rng = RngStream(seed=909)
    state = CoupledChainState(x=np.zeros(3), y=np.zeros(3))
    n_steps, burn = 50_000, 2_000
    sq_x = np.empty(n_steps)
    sq_y = np.empty(n_steps)
    for i in range(n_steps):
        state = cross_target_coupled_step(state, 1.2, target_x, target_y, "gcrn", rng)
        sq_x[i] = float(np.dot(state.x, state.x)) / 3.0
        sq_y[i] = float(np.dot(state.y, state.y)) / 3.0
    assert not state.met
    se_x = _batch_se(sq_x[burn:])
    se_y = _batch_se(sq_y[burn:])
    assert abs(sq_x[burn:].mean() - 1.0) < 4 * se_x + 0.01
    assert abs(sq_y[burn:].mean() - 2.0) < 4 * se_y + 0.02
    with pytest.raises(ValueError):
        cross_target_coupled_step(state, 1.0, target_x, target_y, "two-scale", rng)


@pytest.mark.parametrize(
    "kind", ["crn", "reflection", "gcrn", "gcrn-rotation", "gcrn-reflect"]
)
def test_cross_target_step_on_one_target_equals_coupled_step(kind):
    target = DiagonalGaussian(np.array([1.0, 0.5, 2.0, 0.8]))
    start = CoupledChainState(
        x=np.array([1.0, -0.5, 0.3, 2.0]), y=np.array([-1.2, 0.4, 0.9, -0.1])
    )
    a = b = start
    rng_a, rng_b = RngStream(seed=606, stream_id=1), RngStream(seed=606, stream_id=1)
    for _ in range(300):
        a = cross_target_coupled_step(a, 0.9, target, target, kind, rng_a)
        b = coupled_rwm_step(b, CouplingSpec(kind), 0.9, target, rng_b)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert a.t == b.t
    assert not np.array_equal(a.x, start.x) and not np.array_equal(a.y, start.y)


def test_coupled_hug_contracts_at_predicted_rate():
    # for a spherical target, a shared-velocity hug bounce of length delta
    # shrinks ||X - Y|| by about 1 - 2 delta^2 / (4 + delta^2)
    d, delta = 250, 0.4
    target = SphericalGaussian(dim=d)
    hug = HugParams(total_time=delta, bounces=1)
    rng = RngStream(seed=1414)
    x = rng.standard_normal(d)
    w = rng.standard_normal(d)
    # hug conserves each chain's norm exactly, so any radial offset is an
    # invariant floor; start the pair on one level set to see the rate
    tang = w - (float(np.dot(w, x)) / float(np.dot(x, x))) * x
    y = x + 1e-3 * tang / np.linalg.norm(tang)
    y *= np.linalg.norm(x) / np.linalg.norm(y)
    state = CoupledChainState(x=x, y=y)
    ratios = []
    for _ in range(150):
        dist_before = float(np.linalg.norm(state.x - state.y))
        state = coupled_hug_step(state, hug, target, rng)
        assert not state.met
        ratios.append(float(np.linalg.norm(state.x - state.y)) / dist_before)
    predicted = 1.0 - 2.0 * delta**2 / (4.0 + delta**2)
    assert abs(float(np.mean(ratios)) - predicted) < 0.05


def test_coupled_hug_met_state_advances_together():
    target = SphericalGaussian(dim=4)
    hug = HugParams(total_time=0.5, bounces=5)
    rng = RngStream(seed=21)
    x = rng.standard_normal(4)
    state = CoupledChainState(x=x, y=x, met=True)
    for _ in range(50):
        state = coupled_hug_step(state, hug, target, rng)
        assert state.met and state.x is state.y
        assert abs(float(np.dot(state.x, state.x)) - float(np.dot(x, x))) < 1e-9


def test_hug_hop_coupling_meets_and_stays_faithful():
    target = SphericalGaussian(dim=5)
    hug = HugParams(total_time=0.5, bounces=10)
    hop = HopParams(lam=1.0, mu=1.0)
    delta_hop = 1e-4
    rng = RngStream(seed=1212)
    state = CoupledChainState(
        x=rng.standard_normal(5), y=rng.standard_normal(5) + 2.0
    )
    while not state.met and state.t < 5_000:
        state = coupled_hug_hop_step(state, hug, hop, delta_hop, target, rng)
    assert state.met, "hug-and-hop coupling never met in 5k steps"
    n_post = 15_000
    norms = np.empty(n_post)
    for i in range(n_post):
        state = coupled_hug_hop_step(state, hug, hop, delta_hop, target, rng)
        assert state.met and state.x is state.y
        norms[i] = float(np.dot(state.x, state.x)) / 5.0
    se = _batch_se(norms)
    assert abs(norms.mean() - 1.0) < 4 * se + 0.02


# ---------------------------------------------------------------------------
# The log densities cached in CoupledChainState.

_CROSS_KINDS = ("crn", "reflection", "gcrn", "gcrn-rotation", "gcrn-reflect")


def _svm_pair(d=6):
    _, y = svm_simulate(d, DEFAULT_SVM_PARAMS, RngStream(seed=31, stream_id=0))
    post = SvmPosterior(y)
    return post, laplace_fit(post, np.zeros(d), tol=1e-6).as_target()


def _step_makers():
    """(name, step(state, rng), start(rng)) for every coupled step function."""
    small = DiagonalGaussian(np.array([1.0, 0.5, 2.0]))
    post, surrogate = _svm_pair()
    h = 0.9
    hug, hop = HugParams(total_time=0.5, bounces=5), HopParams(lam=1.0, mu=1.0)

    def two_starts(target):
        return lambda rng: (target.sample(rng), target.sample(rng))

    makers = []
    for kind in COUPLING_KINDS:
        spec = CouplingSpec(kind, delta=0.5 if kind == "two-scale" else None)
        makers.append((
            f"rwm-{kind}",
            lambda st, rng, spec=spec: coupled_rwm_step(st, spec, h, small, rng),
            two_starts(small),
        ))
    for kind in _CROSS_KINDS:
        makers.append((
            f"cross-{kind}",
            lambda st, rng, kind=kind: cross_target_coupled_step(
                st, 0.1, post, surrogate, kind, rng
            ),
            lambda rng: (post.prior_sample(rng), surrogate.sample(rng)),
        ))
    makers.append((
        "hug",
        lambda st, rng: coupled_hug_step(st, hug, post, rng),
        lambda rng: (post.prior_sample(rng), post.prior_sample(rng)),
    ))
    makers.append((
        "hug-hop",
        lambda st, rng: coupled_hug_hop_step(st, hug, hop, 0.5, small, rng),
        two_starts(small),
    ))
    return makers


def test_cached_densities_match_recomputed():
    for i, (name, step, start) in enumerate(_step_makers()):
        runs = []
        for clear in (False, True):
            rng = RngStream(seed=1001, stream_id=i)
            x, y = start(rng)
            state = CoupledChainState(x=x, y=y)
            path = []
            for _ in range(300):
                if clear:
                    state = dataclasses.replace(state, lp_x=None, lp_y=None)
                state = step(state, rng)
                path.append((state.x.tobytes(), state.y.tobytes(), state.t, state.met))
            runs.append(path)
        assert runs[0] == runs[1], name


def _snapshot(state):
    return (state.x.tobytes(), state.y.tobytes(), state.t, state.met, state.branch,
            state.lp_x, state.lp_y)


def test_cached_directions_match_recomputed():
    # every step starts from a copy with its direction and gap caches
    # cleared (replace keeps the densities), so each is recomputed
    for i, (name, step, start) in enumerate(_step_makers()):
        runs, carried = [], 0
        for clear in (False, True):
            rng = RngStream(seed=1002, stream_id=i)
            x, y = start(rng)
            state = CoupledChainState(x=x, y=y)
            path = []
            for _ in range(300):
                if clear:
                    state = dataclasses.replace(state)
                else:
                    carried += state.n_x is not couplings._UNSET or state.gap is not None
                state = step(state, rng)
                path.append(_snapshot(state))
            runs.append(path)
        assert runs[0] == runs[1], name
        if name.split("-", 1)[-1] in _CROSS_KINDS[1:] + ("two-scale",):
            assert carried > 0, name  # the caches were in use


def test_replaced_state_steps_like_a_fresh_one():
    # dataclasses.replace drops the caches that belong to the old positions
    target = DiagonalGaussian(np.array([1.0, 0.5, 2.0]))
    for kind in ("gcrn", "reflection", "two-scale"):
        spec = CouplingSpec(kind, delta=0.5 if kind == "two-scale" else None)
        rng = RngStream(seed=1003)
        state = CoupledChainState(x=target.sample(rng), y=target.sample(rng))
        for _ in range(1000):
            prev, state = state, coupled_rwm_step(state, spec, 1.5, target, rng)
            if not state.met and state.x is prev.x and state.y is prev.y:
                break
        state.difference()
        assert state.n_x is not couplings._UNSET or kind == "reflection"
        assert state.gap is not None
        new_x = target.sample(rng)
        replaced = dataclasses.replace(state, x=new_x, lp_x=None)
        fresh = CoupledChainState(x=new_x, y=state.y, t=state.t, lp_y=state.lp_y)
        paths = []
        for st in (replaced, fresh):
            rng = RngStream(seed=1004)
            path = []
            for _ in range(20):
                st = coupled_rwm_step(st, spec, 1.5, target, rng)
                path.append(_snapshot(st))
            paths.append(path)
        assert paths[0] == paths[1], kind


class _CountingTarget(TargetModel):
    def __init__(self, inner: TargetModel):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0
        self.grads = 0

    def log_density(self, x):
        self.calls += 1
        return self.inner.log_density(x)

    def grad(self, x):
        self.grads += 1
        return self.inner.grad(x)


def _record_coalescence(monkeypatch):
    hits = []
    for name in ("reflection_maximal_pair", "maximal_independent_pair"):
        def recorded(*args, _pair=getattr(couplings, name), **kwargs):
            out = _pair(*args, **kwargs)
            hits.append(out[2])
            return out

        monkeypatch.setattr(couplings, name, recorded)
    return hits


@pytest.mark.parametrize("kind", COUPLING_KINDS)
def test_rwm_step_evaluates_only_the_proposals(kind, monkeypatch):
    # 2 log_density calls per unmet step, 1 once met or when the proposals
    # coalesce; the first step also fills the two starting densities
    hits = _record_coalescence(monkeypatch)
    target = _CountingTarget(SphericalGaussian(dim=2))
    spec = CouplingSpec(kind, delta=0.5 if kind == "two-scale" else None)
    rng = RngStream(seed=77, stream_id=COUPLING_KINDS.index(kind))
    state = CoupledChainState(x=np.array([1.0, -1.0]), y=np.array([-0.5, 0.5]))
    for i in range(400):
        was_met = state.met
        hits.clear()
        before = target.calls
        state = coupled_rwm_step(state, spec, 1.5, target, rng)
        expected = 1 if was_met or any(hits) else 2
        assert target.calls - before == expected + (2 if i == 0 else 0)


@pytest.mark.parametrize("kind", ("gcrn", "gcrn-rotation", "gcrn-reflect"))
def test_gcrn_step_takes_gradients_only_where_a_chain_moved(kind):
    # both directions on the first step, then one per chain that moved on
    # the step before: none after a double rejection
    target = _CountingTarget(SphericalGaussian(dim=3))
    rng = RngStream(seed=80)
    state = CoupledChainState(x=np.array([1.0, -1.0, 0.5]), y=np.array([-0.5, 0.5, 2.0]))
    expected, seen = 2, set()
    for _ in range(400):
        before = target.grads
        nxt = coupled_rwm_step(state, CouplingSpec(kind), 1.5, target, rng)
        assert target.grads - before == expected
        seen.add(expected)
        expected = (nxt.x is not state.x) + (nxt.y is not state.y)
        state = nxt
    assert seen == {0, 1, 2}


def test_cross_target_step_evaluates_only_the_proposals():
    post, surrogate = _svm_pair()
    target_x, target_y = _CountingTarget(post), _CountingTarget(surrogate)
    for i, kind in enumerate(_CROSS_KINDS):
        rng = RngStream(seed=78, stream_id=i)
        state = CoupledChainState(x=post.prior_sample(rng), y=surrogate.sample(rng))
        state = cross_target_coupled_step(state, 0.1, target_x, target_y, kind, rng)
        before = (target_x.calls, target_y.calls)
        for _ in range(200):
            state = cross_target_coupled_step(state, 0.1, target_x, target_y, kind, rng)
        assert (target_x.calls - before[0], target_y.calls - before[1]) == (200, 200)


def test_non_finite_starting_density_is_named():
    # exp(-x) overflows at x = -1000, so the svm log density is -inf there
    post, surrogate = _svm_pair()
    bad = np.full(post.dim, -1000.0)
    good = np.zeros(post.dim)
    rng = RngStream(seed=79)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="chain x"):
            coupled_rwm_step(CoupledChainState(x=bad, y=good), CouplingSpec("crn"), 0.5, post, rng)
        with pytest.raises(ValueError, match="chain y"):
            coupled_rwm_step(CoupledChainState(x=good, y=bad), CouplingSpec("crn"), 0.5, post, rng)
        with pytest.raises(ValueError, match="chain x"):
            cross_target_coupled_step(
                CoupledChainState(x=bad, y=good), 0.5, post, surrogate, "gcrn", rng
            )


# --- the pair step as it was before directions and the gap rode in the state,
# kept as the bitwise reference of the one RWM pair-step core

def _reference_pair_step(state, kind, delta, h, target_x, target_y, rng):
    lp_x = target_x.log_density(state.x) if state.lp_x is None else state.lp_x
    if state.met:
        lp_y = lp_x
    else:
        lp_y = target_y.log_density(state.y) if state.lp_y is None else state.lp_y
    x, y = state.x, state.y
    if state.met:
        kind = "common"
    elif kind == "two-scale":
        kind = "gcrn" if float(np.dot(x - y, x - y)) >= delta else "reflection-maximal"
    if kind == "common":
        prop_x = prop_y = x + h * rng.standard_normal(x.size)
    elif kind in _CROSS_KINDS:
        z = rng.standard_normal(x.size)
        z1 = float(rng.standard_normal()) if kind == "gcrn" else None
        n_x = n_y = e = None
        if kind.startswith("gcrn"):
            n_x, _ = direction(target_x.grad(x))
            n_y, _ = direction(target_y.grad(y))
            if n_x is None or n_y is None:
                kind = "crn"
        if kind == "reflection":
            e, _ = direction(x - y)
            if e is None:
                kind = "crn"
        zx, zy = couple_increments(kind, z, z1=z1, n_x=n_x, n_y=n_y, e=e)
        prop_x, prop_y = x + h * zx, y + h * zy
    elif kind == "reflection-maximal":
        prop_x, prop_y, _ = reflection_maximal_pair(x, y, h, rng)
    else:
        axis = np.eye(1, x.size)[0]
        law_x, law_y = (AnisotropicGaussian(c, axis, h, h) for c in (x, y))
        prop_x, prop_y, _ = maximal_independent_pair(law_x, law_y, rng)
    u = float(rng.uniform())
    lp_prop_x = target_x.log_density(prop_x)
    lp_prop_y = lp_prop_x if prop_y is prop_x else target_y.log_density(prop_y)
    x, lp_x = metropolis(x, lp_x, prop_x, lp_prop_x, u)
    y, lp_y = metropolis(y, lp_y, prop_y, lp_prop_y, u)
    met = target_y is target_x and (state.met or x is y or bool((x == y).all()))
    if met:
        y, lp_y = x, lp_x
    return CoupledChainState(x=x, y=y, t=state.t + 1, met=met, branch=kind, lp_x=lp_x, lp_y=lp_y)


def _reference_hug_hop_step(state, hug, hop, delta_hop, target, rng):
    x_cur, lp_x, y_cur, lp_y = couplings._hug_phase(state, hug, target, rng)
    law_x = hop_proposal_law(x_cur, hop, target)
    law_y = None if state.met else hop_proposal_law(y_cur, hop, target)
    sq = float(np.dot(x_cur - y_cur, x_cur - y_cur))
    branch = "hop-gcrn" if sq >= delta_hop else "hop-maximal"
    if state.met:
        branch = "common"
    elif law_x is None or law_y is None:
        branch = "hop-degenerate"
    if branch == "hop-maximal":
        prop_x, prop_y, _ = maximal_independent_pair(law_x, law_y, rng)
    else:
        z = rng.standard_normal(x_cur.size)
        z1 = float(rng.standard_normal())
        prop_x = law_x.center + law_x.displacement(z, z1) if law_x is not None else None
        prop_y = law_y.center + law_y.displacement(z, z1) if law_y is not None else None
    u_hop = float(rng.uniform())
    if law_x is not None:
        x_cur, lp_x = hop_accept(x_cur, lp_x, law_x, prop_x, u_hop, hop, target)
    if law_y is not None:
        y_cur, lp_y = hop_accept(y_cur, lp_y, law_y, prop_y, u_hop, hop, target)
    met = state.met or x_cur is y_cur or bool((x_cur == y_cur).all())
    if met:
        y_cur, lp_y = x_cur, lp_x
    return CoupledChainState(
        x=x_cur, y=y_cur, t=state.t + 1, met=met, branch=branch, lp_x=lp_x, lp_y=lp_y
    )


def _paths(step, start, seed, n_steps=300):
    rng = RngStream(seed=seed)
    x, y = start(rng)
    state = CoupledChainState(x=x, y=y)
    path = []
    for _ in range(n_steps):
        state = step(state, rng)
        path.append(_snapshot(state))
    return path


@pytest.mark.parametrize("kind", COUPLING_KINDS)
def test_pair_step_equals_the_reference_bit_for_bit(kind):
    delta = 0.5 if kind == "two-scale" else None
    spec = CouplingSpec(kind, delta=delta)
    met = 0
    for i, target in enumerate(
        (DiagonalGaussian(np.array([1.0, 0.5, 2.0])), Ar1Gaussian(8, 0.5), SphericalGaussian(4))
    ):
        h = 2.38 / math.sqrt(target.dim)

        def start(rng):
            return target.sample(rng), target.sample(rng)

        new = _paths(lambda st, rng: coupled_rwm_step(st, spec, h, target, rng), start, 1100 + i)
        ref = _paths(lambda st, rng: _reference_pair_step(st, kind, delta, h, target, target, rng),
                     start, 1100 + i)
        assert new == ref, (kind, target.kind)
        met += new[-1][3]
    if kind in ("reflection-maximal", "maximal-independent", "two-scale"):
        assert met > 0  # the common phase after a meeting is covered too


@pytest.mark.parametrize("kind", _CROSS_KINDS)
def test_cross_target_step_equals_the_reference_bit_for_bit(kind):
    post, surrogate = _svm_pair()

    def start(rng):
        return post.prior_sample(rng), surrogate.sample(rng)

    new = _paths(lambda st, rng: cross_target_coupled_step(st, 0.1, post, surrogate, kind, rng),
                 start, 1200)
    ref = _paths(lambda st, rng: _reference_pair_step(st, kind, None, 0.1, post, surrogate, rng),
                 start, 1200)
    assert new == ref


def test_hug_hop_step_equals_the_reference_bit_for_bit():
    target = DiagonalGaussian(np.array([1.0, 0.5, 2.0]))
    hug, hop = HugParams(total_time=0.5, bounces=5), HopParams(lam=1.0, mu=1.0)

    def start(rng):
        return target.sample(rng), target.sample(rng)

    new = _paths(lambda st, rng: coupled_hug_hop_step(st, hug, hop, 0.5, target, rng), start, 1300)
    ref = _paths(lambda st, rng: _reference_hug_hop_step(st, hug, hop, 0.5, target, rng),
                 start, 1300)
    assert new == ref
    assert new[-1][3]  # the met phase, where the distance is no longer formed


def _reference_replicates(step, start, lag, n_replicates, max_iter, seed):
    """run_replicates' loop as it was: the trace forms its own gap."""
    records, traces = [], []
    for r in range(n_replicates):
        rng = RngStream(seed, r)
        x0, y0 = start(rng)
        lead = CoupledChainState(x=x0, y=x0, t=0, met=True)
        for _ in range(lag):
            lead = step(lead, rng)
        state = CoupledChainState(x=lead.x, y=y0, t=0, met=False, lp_x=lead.lp_x)
        trace, tau = [], math.inf
        for u in range(1, max_iter + 2):
            gap = state.x - state.y
            trace.append(float(np.dot(gap, gap)))
            if u > max_iter:
                break
            state = step(state, rng)
            if state.met:
                tau = lag + u
                break
        records.append(tau)
        traces.append(np.asarray(trace).tobytes())
    return records, traces


@pytest.mark.parametrize("lag", [0, 40])
def test_replicate_traces_equal_the_reference_bit_for_bit(lag):
    # two-scale on the svm posterior: the switch, the trace and the
    # reflection-maximal branch all meet the gap the state carries
    post, _ = _svm_pair(d=10)
    spec = CouplingSpec("two-scale", delta=1.0)
    branches = []

    def step(st, rng):
        st = coupled_rwm_step(st, spec, 0.1, post, rng)
        branches.append(st.branch)
        return st

    def ref_step(st, rng):
        return _reference_pair_step(st, "two-scale", 1.0, 0.1, post, post, rng)

    def start(rng):
        return post.prior_sample(rng), post.prior_sample(rng)

    records, traces = run_replicates(step, start, lag, 4, 2000, 1400)
    ref_records, ref_traces = _reference_replicates(ref_step, start, lag, 4, 2000, 1400)
    assert [rec.tau for rec in records] == ref_records
    assert [tr.tobytes() for tr in traces] == ref_traces
    assert {"gcrn", "reflection-maximal"} <= set(branches)
    assert ("common" in branches) == (lag > 0)
    assert any(math.isfinite(tau) for tau in ref_records)
