"""Target models: gradient oracles, exact trace summaries, Laplace fits."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from mcmccoup.core_math import RngStream
from mcmccoup.targets import (
    DEFAULT_SVM_PARAMS,
    Ar1Gaussian,
    DenseGaussian,
    DiagonalGaussian,
    SphericalGaussian,
    SvmParams,
    SvmPosterior,
    laplace_fit,
    spectral_summary,
    svm_simulate,
)


def _fd_grad(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _all_targets(d=7):
    rng = RngStream(3, 0)
    _, y = svm_simulate(d, DEFAULT_SVM_PARAMS, rng)
    cov = np.diag(np.linspace(0.5, 2.0, d)) + 0.1
    return [
        SphericalGaussian(d),
        DiagonalGaussian(np.linspace(0.3, 3.0, d)),
        Ar1Gaussian(d, 0.5),
        DenseGaussian(np.linspace(-1, 1, d), cov),
        SvmPosterior(y),
    ]


@pytest.mark.parametrize("model", _all_targets(), ids=lambda m: m.kind)
def test_gradient_matches_finite_differences(model):
    rng = RngStream(5, 2)
    for _ in range(4):
        x = 0.7 * rng.standard_normal(model.dim)
        g = model.grad(x)
        fd = _fd_grad(model.log_density, x)
        assert np.max(np.abs(g - fd)) < 1e-4 * max(1.0, np.max(np.abs(g)))


def test_ar1_precision_matches_dense_inverse():
    d, r = 40, 0.5
    model = Ar1Gaussian(d, r)
    idx = np.arange(d)
    sigma = r ** np.abs(idx[:, None] - idx[None, :])
    omega = np.linalg.inv(sigma)
    rng = RngStream(8, 0)
    x = rng.standard_normal(d)
    np.testing.assert_allclose(-model.grad(x), omega @ x, rtol=1e-9, atol=1e-9)
    assert model.log_density(x) == pytest.approx(-0.5 * x @ omega @ x, rel=1e-9)


def test_ar1_trace_ratios_against_dense_matrices():
    d, r = 50, 0.5
    model = Ar1Gaussian(d, r)
    idx = np.arange(d)
    sigma = r ** np.abs(idx[:, None] - idx[None, :])
    omega = np.linalg.inv(sigma)
    ratios = model.trace_ratios()
    assert ratios[-1] == pytest.approx(np.trace(sigma) / d, rel=1e-12)
    assert ratios[-2] == pytest.approx(np.trace(sigma @ sigma) / d, rel=1e-10)
    assert ratios[1] == pytest.approx(np.trace(omega) / d, rel=1e-10)
    assert ratios[2] == pytest.approx(np.trace(omega @ omega) / d, rel=1e-10)


def test_ar1_ellipticity_limit():
    # (tr Omega/d)(tr Sigma/d) -> (1 + r^2)/(1 - r^2), = 5/3 at r = 1/2
    s = spectral_summary(Ar1Gaussian(500, 0.5))
    assert abs(s.epsilon - 5.0 / 3.0) < 2e-3
    s = spectral_summary(Ar1Gaussian(5000, 0.5))
    assert abs(s.epsilon - 5.0 / 3.0) < 2e-4


def test_ar1_exact_sampler_covariance():
    d, r, n = 6, 0.5, 40_000
    model = Ar1Gaussian(d, r)
    rng = RngStream(12, 0)
    draws = np.stack([model.sample(rng) for _ in range(n)])
    emp = np.cov(draws.T)
    idx = np.arange(d)
    sigma = r ** np.abs(idx[:, None] - idx[None, :])
    assert np.max(np.abs(emp - sigma)) < 0.05


def test_spectral_summary_exact_values():
    assert spectral_summary(SphericalGaussian(10)).epsilon == 1.0
    lam = np.array([1.0, 24.0] * 5)
    s = spectral_summary(DiagonalGaussian(lam))
    assert s.epsilon == pytest.approx(625.0 / 96.0, rel=1e-14)
    assert s.trace_ratios[-1] == pytest.approx(12.5, rel=1e-14)
    assert s.trace_ratios[1] == pytest.approx(25.0 / 48.0, rel=1e-14)
    # dense route agrees with the diagonal closed form
    sd = spectral_summary(DenseGaussian(np.zeros(10), np.diag(lam)))
    for k in (-2, -1, 1, 2):
        assert sd.trace_ratios[k] == pytest.approx(s.trace_ratios[k], rel=1e-10)
    assert s.z(0) == 1.0
    assert s.z(1) == pytest.approx(math.sqrt(25.0 / 48.0), rel=1e-14)


def test_spectral_summary_chi_square_eigenvalues():
    # lambda_i ~ chi^2_nu gives epsilon -> nu/(nu - 2) = 3 at nu = 3
    rng = RngStream(4, 0)
    lam = rng.generator.chisquare(3.0, size=200_000)
    s = spectral_summary(DiagonalGaussian(lam))
    assert abs(s.epsilon - 3.0) < 0.15


def test_spectral_summary_rejects_svm():
    _, y = svm_simulate(10, DEFAULT_SVM_PARAMS, RngStream(1, 0))
    with pytest.raises(ValueError):
        spectral_summary(SvmPosterior(y))


def test_dense_gaussian_log_density_differences_match_scipy():
    d = 5
    rng = RngStream(9, 0)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    mean = rng.standard_normal(d)
    model = DenseGaussian(mean, cov)
    ref = multivariate_normal(mean=mean, cov=cov)
    x1, x2 = rng.standard_normal(d), rng.standard_normal(d)
    got = model.log_density(x1) - model.log_density(x2)
    want = ref.logpdf(x1) - ref.logpdf(x2)
    assert got == pytest.approx(want, rel=1e-10)


def test_dense_gaussian_solve_is_bitwise_cho_solve():
    from scipy.linalg import cho_factor, cho_solve

    d = 50
    rng = RngStream(9, 1)
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d + np.eye(d)
    model = DenseGaussian(rng.standard_normal(d), cov)
    cho = cho_factor(model.cov, lower=True)
    for _ in range(20):
        x = rng.standard_normal(d)
        r = x - model.mean
        assert model.log_density(x) == -0.5 * float(np.dot(r, cho_solve(cho, r)))
        assert np.array_equal(model.grad(x), -cho_solve(cho, r))


def test_svm_simulate_moments_and_shapes():
    params = DEFAULT_SVM_PARAMS
    rng = RngStream(21, 0)
    x, y = svm_simulate(20_000, params, rng)
    assert x.shape == y.shape == (20_000,)
    stat_var = params.sigma**2 / (1.0 - params.phi**2)
    assert abs(np.var(x) - stat_var) < 0.25 * stat_var  # heavy autocorrelation
    assert abs(np.mean(y)) < 0.1
    with pytest.raises(ValueError):
        svm_simulate(1, params, rng)
    with pytest.raises(ValueError):
        svm_simulate(10, SvmParams(0.65, 1.01, 0.15), rng)


def test_svm_log_density_matches_naive_loop():
    params = DEFAULT_SVM_PARAMS
    rng = RngStream(22, 0)
    _, y = svm_simulate(30, params, rng)
    model = SvmPosterior(y, params)
    x = 0.4 * rng.standard_normal(30)
    beta, phi, sigma = params
    total = (1.0 - phi * phi) / sigma**2 * x[0] ** 2
    for t in range(30):
        total += x[t] + (y[t] / beta) ** 2 * math.exp(-x[t])
        if t < 29:
            total += (phi * x[t] - x[t + 1]) ** 2 / sigma**2
    assert model.log_density(x) == pytest.approx(-0.5 * total, rel=1e-12)


def test_laplace_fit_recovers_dense_gaussian():
    d = 6
    rng = RngStream(17, 0)
    a = rng.standard_normal((d, d))
    cov = a @ a.T + d * np.eye(d)
    mean = rng.standard_normal(d)
    model = DenseGaussian(mean, cov)
    fit = laplace_fit(model, np.zeros(d), tol=1e-10)
    assert np.max(np.abs(fit.mean - mean)) < 1e-6
    assert np.max(np.abs(fit.cov - cov)) < 1e-6 * np.max(np.abs(cov))


def test_laplace_fit_svm_matches_reference_optimizer():
    rng = RngStream(23, 0)
    _, y = svm_simulate(50, DEFAULT_SVM_PARAMS, rng)
    model = SvmPosterior(y)
    fit = laplace_fit(model, np.zeros(50))
    assert fit.grad_sup <= 1e-8
    ref = minimize(
        lambda x: -model.log_density(x),
        np.zeros(50),
        jac=lambda x: -model.grad(x),
        method="L-BFGS-B",
        options={"gtol": 1e-10, "ftol": 1e-18, "maxiter": 10_000},
    )
    assert np.max(np.abs(fit.mean - ref.x)) < 1e-3
    # our mode is at least as high as the reference optimizer's
    assert model.log_density(fit.mean) >= model.log_density(ref.x) - 1e-9
    # covariance is SPD and the implied target is usable
    assert np.all(np.linalg.eigvalsh(fit.cov) > 0)
    assert spectral_summary(fit.as_target()).epsilon > 1.0


@pytest.mark.parametrize("d", [10, 50])
@pytest.mark.parametrize("seed", [46200, 2, 3])
def test_laplace_fit_default_tol_finishes_with_newton_steps(d, seed):
    # on these data sets the backtracking ascent gets no lower than sup |grad|
    # 3e-8 to 7.6e-8, where the Armijo test on f cannot resolve progress; the
    # stall, not max_iter, hands over to the Newton steps
    _, y = svm_simulate(d, DEFAULT_SVM_PARAMS, RngStream(seed, 10**6 + 1))
    model = SvmPosterior(y)
    fit = laplace_fit(model, np.zeros(d))
    assert fit.grad_sup <= 1e-8
    assert float(np.max(np.abs(model.grad(fit.mean)))) == fit.grad_sup
    assert fit.iterations < 1_000
    coarse = laplace_fit(model, np.zeros(d), tol=1e-6)
    assert np.max(np.abs(fit.mean - coarse.mean)) < 1e-4
    assert np.all(np.linalg.eigvalsh(fit.cov) > 0)


def test_target_validation_errors():
    with pytest.raises(ValueError):
        DiagonalGaussian([1.0, -2.0])
    with pytest.raises(ValueError):
        Ar1Gaussian(10, 1.0)
    with pytest.raises(ValueError):
        DenseGaussian(np.zeros(3), np.eye(4))
    with pytest.raises(NotImplementedError):
        SvmPosterior(np.ones(5)).sample(RngStream(0, 0))
