"""Kernel correctness: Metropolis mechanics, Hug geometry, Hop invariance."""

import math

import numpy as np
import pytest

from mcmccoup.core_math import RngStream
from mcmccoup.kernels import (
    AnisotropicGaussian,
    HopParams,
    HugParams,
    accept_log_ratio,
    direction,
    hop_proposal_law,
    hop_step,
    hug_step,
    metropolis,
    reflect,
    rwm_step,
)
from mcmccoup.targets import DiagonalGaussian, SphericalGaussian


def _batch_se(samples, n_batches=50):
    samples = np.asarray(samples)
    m = samples.size // n_batches
    means = samples[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


def test_direction_norm_is_numpy_norm_and_reflect_is_an_isometric_involution():
    rng = np.random.default_rng(41)
    for d in range(1, 1001):
        v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
        u, n = direction(v)
        assert n == np.linalg.norm(v)  # bit for bit: Hug and Hop bounce on it
        np.testing.assert_array_equal(u, v / n)
    for bad in (np.zeros(3), np.array([math.inf]), np.array([math.nan])):
        u, n = direction(bad)
        assert u is None
        assert n == np.linalg.norm(bad) or (math.isnan(n) and math.isnan(np.linalg.norm(bad)))
    # unit vectors; rounding reaches 1.8e-15 in the involution at d = 2
    tol = 10.0 * np.finfo(float).eps
    for d in (1, 2, 5, 20, 100):
        for _ in range(200):
            v, _ = direction(rng.standard_normal(d))
            u, _ = direction(rng.standard_normal(d))
            w = reflect(v, u)
            assert np.max(np.abs(reflect(w, u) - v)) <= tol
            assert abs(np.linalg.norm(w) - 1.0) <= tol
            p, _ = direction(rng.standard_normal(d))
            assert abs(float(np.dot(w, reflect(p, u))) - float(np.dot(v, p))) <= tol
            assert np.max(np.abs(reflect(u, u) + u)) <= tol


def test_accept_log_ratio_edges():
    assert accept_log_ratio(0.0, 1.0)
    assert accept_log_ratio(5.0, 1.0)
    assert accept_log_ratio(-0.1, 0.0)  # u = 0 always accepts
    assert not accept_log_ratio(-50.0, 0.5)
    assert accept_log_ratio(math.log(0.5) + 1e-12, 0.5)


def test_metropolis_keeps_the_position_with_its_density():
    x, prop = np.zeros(2), np.ones(2)
    kept, lp = metropolis(x, -1.0, prop, -2.0, 0.5)  # log ratio -1 < log 0.5
    assert kept is x and lp == -1.0
    kept, lp = metropolis(x, -1.0, prop, -2.0, 0.5, 0.4)  # -1 + 0.4 > log 0.5
    assert kept is prop and lp == -2.0
    kept, lp = metropolis(x, -1.0, prop, -2.0, 0.5, 0.4, -0.4)
    assert kept is x and lp == -1.0


def test_rwm_step_mechanics():
    target = SphericalGaussian(3)
    x = np.array([2.0, 0.0, 0.0])
    z = np.array([-1.0, 0.0, 0.0])  # moves uphill, must accept for any u
    x1, acc = rwm_step(x, z, 1.0, 1.0, target)
    assert acc and np.array_equal(x1, x + z)
    z = np.array([50.0, 0.0, 0.0])  # disastrous proposal, u near 1 rejects
    x1, acc = rwm_step(x, z, 1.0, 0.999, target)
    assert not acc and x1 is x


def test_rwm_step_validation():
    target = SphericalGaussian(3)
    x = np.zeros(3)
    with pytest.raises(ValueError):
        rwm_step(x, np.zeros(2), 0.5, 0.1, target)
    with pytest.raises(ValueError):
        rwm_step(x, np.zeros(3), 0.5, -0.1, target)
    with pytest.raises(ValueError):
        rwm_step(x, np.zeros(3), 1.5, 0.1, target)


def test_rwm_acceptance_near_optimal_scaling():
    d = 200
    target = SphericalGaussian(d)
    h = 2.38 / math.sqrt(d)
    rng = RngStream(100, 0)
    x = target.sample(rng)
    hits = 0
    n = 20_000
    for _ in range(n):
        x, acc = rwm_step(x, rng.standard_normal(d), float(rng.uniform()), h, target)
        hits += acc
    assert 0.18 < hits / n < 0.30


def test_rwm_invariance_one_dimensional():
    target = SphericalGaussian(1)
    rng = RngStream(101, 0)
    x = np.zeros(1)
    xs = np.empty(100_000)
    for i in range(xs.size):
        x, _ = rwm_step(x, rng.standard_normal(1), float(rng.uniform()), 1.0, target)
        xs[i] = x[0]
    sq = xs**2
    assert abs(sq.mean() - 1.0) < 4.0 * _batch_se(sq)
    assert abs(xs.mean()) < 4.0 * _batch_se(xs)


def test_hug_spherical_level_sets_and_unit_acceptance():
    d = 50
    target = SphericalGaussian(d)
    params = HugParams(total_time=0.5, bounces=10)
    rng = RngStream(102, 0)
    x = target.sample(rng)
    for _ in range(200):
        v = rng.standard_normal(d)
        r0 = np.linalg.norm(x)
        x1, acc = hug_step(x, v, params, float(rng.uniform()), target)
        assert acc  # spherical: bounces conserve the norm, ratio is 1
        assert abs(np.linalg.norm(x1) - r0) < 1e-10
        x = x1


def test_hug_zero_gradient_rejects_with_warning():
    target = SphericalGaussian(4)
    params = HugParams(total_time=0.5, bounces=2)
    with pytest.warns(RuntimeWarning):
        x1, acc = hug_step(np.zeros(4), np.zeros(4), params, 0.5, target)
    assert not acc and np.array_equal(x1, np.zeros(4))


def test_anisotropic_gaussian_log_density_matches_dense():
    rng = RngStream(103, 0)
    axis = rng.standard_normal(4)
    axis /= np.linalg.norm(axis)
    law = AnisotropicGaussian(rng.standard_normal(4), axis, 2.0, 0.5)
    cov = 0.25 * np.eye(4) + (4.0 - 0.25) * np.outer(axis, axis)
    from scipy.stats import multivariate_normal

    ref = multivariate_normal(mean=law.center, cov=cov)
    w1, w2 = rng.standard_normal(4), rng.standard_normal(4)
    got = law.log_density(w1) - law.log_density(w2)
    assert got == pytest.approx(ref.logpdf(w1) - ref.logpdf(w2), rel=1e-10)


def test_hop_detailed_balance_identity():
    # pi(x) q_x(w) a(x->w) == pi(w) q_w(x) a(w->x) for arbitrary fixed points
    target = DiagonalGaussian(np.array([1.0, 2.0, 0.5]))
    params = HopParams(lam=3.0, mu=0.8)
    rng = RngStream(104, 0)
    for _ in range(20):
        x, w = rng.standard_normal(3), rng.standard_normal(3)
        law_x, law_w = hop_proposal_law(x, params, target), hop_proposal_law(w, params, target)
        fwd = (
            target.log_density(w) - target.log_density(x)
            + law_w.log_density(x) - law_x.log_density(w)
        )
        lhs = target.log_density(x) + law_x.log_density(w) + min(0.0, fwd)
        rhs = target.log_density(w) + law_w.log_density(x) + min(0.0, -fwd)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_hop_invariance_one_dimensional():
    target = SphericalGaussian(1)
    params = HopParams(lam=1.5, mu=0.7)
    rng = RngStream(105, 0)
    x = np.ones(1)  # the exact mode has zero gradient, start beside it
    xs = np.empty(150_000)
    for i in range(xs.size):
        x, _ = hop_step(
            x,
            rng.standard_normal(1),
            float(rng.standard_normal()),
            float(rng.uniform()),
            params,
            target,
        )
        xs[i] = x[0]
    sq = xs**2
    assert abs(sq.mean() - 1.0) < 4.0 * _batch_se(sq)


def test_hug_hop_composite_preserves_target():
    variances = np.array([1.0, 2.0, 0.5])
    target = DiagonalGaussian(variances)
    hug = HugParams(total_time=1.0, bounces=5)
    hop = HopParams(lam=2.5, mu=0.8)
    rng = RngStream(106, 0)
    x = target.sample(rng)
    n = 150_000
    second = np.empty((n, 3))
    for i in range(n):
        v = rng.standard_normal(3)
        x, _ = hug_step(x, v, hug, float(rng.uniform()), target)
        x, _ = hop_step(
            x,
            rng.standard_normal(3),
            float(rng.standard_normal()),
            float(rng.uniform()),
            hop,
            target,
        )
        second[i] = x * x
    for j in range(3):
        se = _batch_se(second[:, j])
        assert abs(second[:, j].mean() - variances[j]) < 4.0 * se, (j, se)


def test_hop_zero_gradient_rejects():
    target = SphericalGaussian(2)
    params = HopParams()
    with pytest.warns(RuntimeWarning):
        x1, acc = hop_step(np.zeros(2), np.ones(2), 0.3, 0.5, params, target)
    assert not acc


def test_param_validation():
    with pytest.raises(ValueError):
        HugParams(total_time=-1.0)
    with pytest.raises(ValueError):
        HugParams(bounces=0)
    with pytest.raises(ValueError):
        HopParams(lam=0.0)
