"""Target distributions the chains explore.

Gaussian families (spherical, diagonal, AR(1), dense) with cached
factorizations, a stochastic volatility posterior over its latent path,
exact spectral trace summaries (the inputs to the elliptical limit
theory), and a Laplace fit used as a cheap proxy distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve, cholesky, eigh, get_lapack_funcs

from .core_math import RngStream

__all__ = [
    "TargetModel",
    "SphericalGaussian",
    "DiagonalGaussian",
    "Ar1Gaussian",
    "DenseGaussian",
    "SvmParams",
    "SvmPosterior",
    "svm_simulate",
    "SpectralSummary",
    "spectral_summary",
    "LaplaceFit",
    "laplace_fit",
    "DEFAULT_SVM_PARAMS",
]


class TargetModel:
    """Common interface: unnormalized log density, gradient, exact sampling."""

    kind: str = "abstract"
    dim: int = 0

    def log_density(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: RngStream) -> np.ndarray:
        raise NotImplementedError(f"no exact sampler for kind {self.kind!r}")


class SphericalGaussian(TargetModel):
    """Standard normal in d dimensions."""

    kind = "spherical"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    def log_density(self, x):
        return -0.5 * float(np.dot(x, x))

    def grad(self, x):
        return -x

    def sample(self, rng):
        return rng.standard_normal(self.dim)


class DiagonalGaussian(TargetModel):
    """Centered Gaussian with diagonal covariance."""

    kind = "diagonal-gaussian"

    def __init__(self, variances):
        variances = np.asarray(variances, dtype=float)
        if variances.ndim != 1 or variances.size < 1:
            raise ValueError("variances must be a nonempty 1-d array")
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        self.variances = variances
        self.dim = variances.size
        self._inv = 1.0 / variances
        self._sd = np.sqrt(variances)

    def log_density(self, x):
        return -0.5 * float(np.dot(x * self._inv, x))

    def grad(self, x):
        return -x * self._inv

    def sample(self, rng):
        return self._sd * rng.standard_normal(self.dim)


class Ar1Gaussian(TargetModel):
    """Centered Gaussian with Sigma_ij = corr^|i-j| (unit marginal variances).

    The precision is tridiagonal, so density, gradient and exact sampling
    are all O(d); trace summaries use the closed-form entries.
    """

    kind = "ar1-gaussian"

    def __init__(self, dim: int, corr: float):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        if not -1.0 < corr < 1.0:
            raise ValueError("corr must lie strictly inside (-1, 1)")
        self.dim = int(dim)
        self.corr = float(corr)
        self._c = 1.0 / (1.0 - corr * corr)

    def _precision_apply(self, x):
        # inner rows c ((1 + r^2) x_i - r (x_{i-1} + x_{i+1})), formed in
        # place; the two end rows are then written over
        r, c = self.corr, self._c
        out = np.multiply(x, 1.0 + r * r)
        mid, side = out[1:-1], np.add(x[:-2], x[2:])
        side *= r
        mid -= side
        mid *= c
        out[0] = c * (x[0] - r * x[1])
        out[-1] = c * (x[-1] - r * x[-2])
        return out

    def log_density(self, x):
        return -0.5 * float(np.dot(x, self._precision_apply(x)))

    def grad(self, x):
        g = self._precision_apply(x)
        return np.negative(g, out=g)

    def sample(self, rng):
        z = rng.standard_normal(self.dim)
        x = np.empty(self.dim)
        x[0] = z[0]
        s = math.sqrt(1.0 - self.corr * self.corr)
        for t in range(1, self.dim):
            x[t] = self.corr * x[t - 1] + s * z[t]
        return x

    def trace_ratios(self):
        """tr(Omega^k)/d for k in {-2, -1, 1, 2}, exact closed forms."""
        d, r = self.dim, self.corr
        c = self._c
        q = r * r
        tr_omega = c * (2.0 + (d - 2) * (1.0 + q))
        # Frobenius norm of the tridiagonal precision
        tr_omega2 = c * c * (2.0 + (d - 2) * (1.0 + q) ** 2 + 2.0 * (d - 1) * q)
        m = np.arange(1, d)
        tr_sigma2 = d + 2.0 * float(np.dot(d - m, q**m))
        return {-2: tr_sigma2 / d, -1: 1.0, 1: tr_omega / d, 2: tr_omega2 / d}


class DenseGaussian(TargetModel):
    """Gaussian with arbitrary mean and SPD covariance; one cached lower Cholesky factor."""

    kind = "dense-gaussian"

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be (d,), cov must be (d, d)")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        self.mean = mean
        self.cov = 0.5 * (cov + cov.T)
        self.dim = mean.size
        try:
            self._chol_lower = cholesky(self.cov, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
            raise ValueError("covariance must be positive definite") from exc
        (self._potrs,) = get_lapack_funcs(("potrs",), (self._chol_lower,))

    def _solve(self, r):  # cho_solve's LAPACK call, minus its finiteness scan of the factor
        return self._potrs(self._chol_lower, r, lower=True)[0]

    def log_density(self, x):
        r = x - self.mean
        return -0.5 * float(np.dot(r, self._solve(r)))

    def grad(self, x):
        return -self._solve(x - self.mean)

    def sample(self, rng):
        return self.mean + self._chol_lower @ rng.standard_normal(self.dim)


class SvmParams(NamedTuple):
    beta: float
    phi: float
    sigma: float


DEFAULT_SVM_PARAMS = SvmParams(beta=0.65, phi=0.98, sigma=0.15)


def svm_simulate(T: int, params: SvmParams, rng: RngStream):
    """Simulate the stochastic volatility model.

    Latent log-volatilities follow a stationary AR(1),
      X_1 ~ N(0, sigma^2/(1-phi^2)),  X_{t+1} = phi X_t + sigma xi_t,
    and observations are Y_t = beta eps_t exp(X_t / 2).

    Returns (x, y): the latent path and the observations.
    """
    beta, phi, sigma = params
    if T < 2:
        raise ValueError("T must be at least 2")
    if not (beta > 0 and sigma > 0 and abs(phi) < 1):
        raise ValueError("need beta > 0, sigma > 0, |phi| < 1")
    xi = rng.standard_normal(T)
    eps = rng.standard_normal(T)
    x = np.empty(T)
    x[0] = sigma / math.sqrt(1.0 - phi * phi) * xi[0]
    for t in range(1, T):
        x[t] = phi * x[t - 1] + sigma * xi[t]
    y = beta * eps * np.exp(0.5 * x)
    return x, y


class SvmPosterior(TargetModel):
    """Posterior over the latent log-volatility path given observations.

    Unnormalized log density
      -(1/2) [ sum_t x_t + beta^{-2} sum_t y_t^2 e^{-x_t}
               + sigma^{-2} sum_{t<T} (phi x_t - x_{t+1})^2
               + (1-phi^2) sigma^{-2} x_1^2 ].
    Log-concave in x, so the Laplace fit below is well posed.
    """

    kind = "svm-posterior"

    def __init__(self, y, params: SvmParams = DEFAULT_SVM_PARAMS):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("y must be a 1-d array with at least 2 entries")
        beta, phi, sigma = params
        if not (beta > 0 and sigma > 0 and abs(phi) < 1):
            raise ValueError("need beta > 0, sigma > 0, |phi| < 1")
        self.y = y
        self.params = params
        self.dim = y.size
        self._y2b = (y / beta) ** 2
        self._s2inv = 1.0 / (sigma * sigma)
        self._edge = (1.0 - phi * phi) * self._s2inv

    def log_density(self, x):
        ar = self.params.phi * x[:-1] - x[1:]
        return -0.5 * (
            float(np.add.reduce(x))  # x.sum() without its Python wrapper, bit for bit
            + float(self._y2b.dot(np.exp(-x)))
            + self._s2inv * float(ar.dot(ar))
            + self._edge * x[0] * x[0]
        )

    def grad(self, x):
        phi = self.params.phi
        ar = phi * x[:-1] - x[1:]
        g = 0.5 * (self._y2b * np.exp(-x) - 1.0)
        g[:-1] -= self._s2inv * phi * ar
        g[1:] += self._s2inv * ar
        g[0] -= self._edge * x[0]
        return g

    def prior_sample(self, rng: RngStream) -> np.ndarray:
        """Draw a latent path from the AR(1) prior (used to initialize chains)."""
        x, _ = svm_simulate(self.dim, self.params, rng)
        return x


# ---------------------------------------------------------------------------
# Spectral summaries.


@dataclass(frozen=True)
class SpectralSummary:
    """Normalized traces z_k^2 = tr(Omega^k)/d for k in {-2,...,2}.

    epsilon = z_1^2 z_{-1}^2 = (tr Omega / d)(tr Sigma / d) >= 1 measures how
    far the covariance is from spherical (equality iff spherical).
    """

    dim: int
    trace_ratios: dict

    @property
    def epsilon(self) -> float:
        return self.trace_ratios[1] * self.trace_ratios[-1]

    def z(self, k: int) -> float:
        """z_k = sqrt(tr(Omega^k)/d)."""
        if k == 0:
            return 1.0
        return math.sqrt(self.trace_ratios[k])


def spectral_summary(model: TargetModel) -> SpectralSummary:
    """Exact trace summaries for the Gaussian target families."""
    if isinstance(model, SphericalGaussian):
        ratios = {k: 1.0 for k in (-2, -1, 1, 2)}
    elif isinstance(model, DiagonalGaussian):
        lam = model.variances
        ratios = {k: float(np.mean(lam ** (-k))) for k in (-2, -1, 1, 2)}
    elif isinstance(model, Ar1Gaussian):
        ratios = model.trace_ratios()
    elif isinstance(model, DenseGaussian):
        lam = eigh(model.cov, eigvals_only=True)
        if np.any(lam <= 0):
            raise ValueError("covariance must be positive definite")
        ratios = {k: float(np.mean(lam ** (-k))) for k in (-2, -1, 1, 2)}
    else:
        raise ValueError(f"no spectral summary for target kind {model.kind!r}")
    summary = SpectralSummary(dim=model.dim, trace_ratios=ratios)
    if summary.epsilon < 1.0 - 1e-12:
        raise AssertionError("trace ratios violate the AM-HM inequality")
    return summary


# ---------------------------------------------------------------------------
# Laplace fit.


# at tol=1e-6, converging svm fits set a new low of sup |grad| at least every
# 29 iterations (1,000 data sets, d from 10 to 50); stalled ones find none
_STALL_ITERS = 100


@dataclass(frozen=True)
class LaplaceFit:
    mean: np.ndarray
    cov: np.ndarray
    iterations: int
    grad_sup: float

    def as_target(self) -> DenseGaussian:
        return DenseGaussian(self.mean, self.cov)


def laplace_fit(
    model: TargetModel,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 20_000,
) -> LaplaceFit:
    """Gaussian approximation at the mode of the target.

    The mode is found by monotone gradient ascent with backtracking (the
    trial step uses a Barzilai-Borwein length, so stiff targets still make
    progress); the covariance is the inverse of the symmetrized central
    finite-difference Hessian of -log density at the mode.  Close to the
    mode the Armijo test on f cannot resolve progress, so an ascent that
    stalls above tol (no new low of sup |grad| in _STALL_ITERS iterations)
    or runs out of max_iter takes up to three Newton steps on that Hessian.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = model.log_density(x), model.grad(x)
    step = 1.0
    prev_x = prev_g = None
    best, stalled = math.inf, 0
    it = 0
    for it in range(1, max_iter + 1):
        grad_sup = float(np.max(np.abs(g)))
        if grad_sup <= tol:
            break
        if grad_sup < best:
            best, stalled = grad_sup, 0
        else:
            stalled += 1
            if stalled == _STALL_ITERS:
                break
        if prev_x is not None:
            dx = x - prev_x
            dg = g - prev_g
            denom = -float(np.dot(dx, dg))  # ascent: dg ~ -H dx with H SPD
            if denom > 0:
                step = float(np.dot(dx, dx)) / denom
            step = min(max(step, 1e-12), 1e6)
        prev_x, prev_g = x, g
        gg = float(np.dot(g, g))
        while True:
            x_new = x + step * g
            f_new = model.log_density(x_new)
            if f_new >= f + 1e-4 * step * gg or step < 1e-15:
                break
            step *= 0.5
        x, f = x_new, f_new
        g = model.grad(x)
    d = x.size

    def neg_hessian_factor(x):
        # lower Cholesky factor of -H, H the symmetrized finite-difference Hessian at x
        hess = np.empty((d, d))
        for j in range(d):
            h = 1e-4 * max(1.0, abs(x[j]))
            e = np.zeros(d)
            e[j] = h
            hess[:, j] = (model.grad(x + e) - model.grad(x - e)) / (2.0 * h)
        try:
            return cholesky(-0.5 * (hess + hess.T), lower=True)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("Hessian at the fitted point is not negative definite") from exc

    grad_sup = float(np.max(np.abs(g)))
    for _ in range(3):
        if grad_sup <= tol:
            break
        x = x + cho_solve((neg_hessian_factor(x), True), g)
        g = model.grad(x)
        grad_sup = float(np.max(np.abs(g)))
        it += 1
    if grad_sup > tol:
        raise RuntimeError(
            f"gradient ascent and Newton steps did not reach tol={tol} in {it} iterations "
            f"(sup |grad| = {grad_sup:.3e})"
        )
    low = neg_hessian_factor(x)
    inv_low = np.linalg.inv(low)
    cov = inv_low.T @ inv_low
    cov = 0.5 * (cov + cov.T)
    return LaplaceFit(mean=x, cov=cov, iterations=it, grad_sup=grad_sup)

