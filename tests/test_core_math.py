"""Oracle tests for the scalar Gaussian building blocks.

Frozen reference values were computed with 40-digit mpmath quadrature
(conditional-CDF integral with breakpoints at the near-step transition for
|rho| ~ 1) and classical closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccoup.core_math import (
    RngStream,
    bvn,
    bvn_low,
    bvn_up,
    gaussian_integrals,
    std_normal_cdf,
    std_normal_quantile,
)
from mcmccoup.ode_limits import g_value

# (a, b, rho) -> P(X <= a, Y <= b), 20 significant digits
_BVN_ORACLE = {
    (0.0, 0.0, 0.5): 1.0 / 3.0,  # 1/4 + asin(rho)/(2 pi) at the origin
    (-1.19, -1.19, 0.3): 0.027828780911838087314,
    (-1.19, -1.19, 0.95): 0.092275194312899891694,
    (1.0, -0.5, -0.7): 0.18704893398126544962,
    (-3.0, 1.5, 0.999): 0.0013498980316300945267,
    (-0.5, -8.0, 0.6): 6.2209604168234763995e-16,
    (2.0, 2.0, -0.9): 0.9544997361036415856,
    (-1.19, -0.8414691966537533, 0.7071067811865476): 0.078520112360218751039,
    # tail branch, |rho| >= 0.925
    (-1.19, -0.8, 0.93): 0.11003403747870369646,
    (0.5, -1.0, -0.95): 0.0023228994900851310483,
    (1.2, 0.7, -0.999): 0.64296667755521869474,
    (-2.0, 1.5, -0.999): 8.6425194940623474405e-33,
}


def _quantile_bisect(p, lo=-20.0, hi=20.0):
    # independent inversion of the CDF, ~1 ulp after 80 halvings
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_basics():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(-1.19) - 0.11702319602310873) < 1e-15
    # erfc route agrees with the textbook series value at 1
    assert abs(std_normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    x = np.linspace(-8, 8, 101)
    s = std_normal_cdf(x) + std_normal_cdf(-x)
    assert np.max(np.abs(s - 1.0)) < 1e-15


def test_quantile_against_bisection_oracle():
    assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-9
    assert std_normal_quantile(0.5) == 0.0
    for p in (0.001, 0.1, 0.3, 0.75, 0.975, 0.999999):
        assert abs(std_normal_quantile(p) - _quantile_bisect(p)) < 1e-9
    # round trip
    for x in (-5.0, -0.7, 0.3, 4.2):
        assert abs(std_normal_quantile(std_normal_cdf(x)) - x) < 1e-9
    for p in (0.01, 0.2, 0.5, 0.8, 0.99):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-12


def test_quantile_domain():
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)
    with pytest.raises(ValueError):
        std_normal_quantile(-0.2)


def test_bvn_against_frozen_oracle():
    for (a, b, rho), want in _BVN_ORACLE.items():
        got = bvn_low(a, b, rho)
        assert abs(got - want) < 5e-16, (a, b, rho, got, want)


def test_bvn_array_equals_per_row_calls():
    # each element's value does not depend on the batch around it: one array
    # call over mixed branches equals the per-row scalar calls bit for bit
    gen = np.random.default_rng(2024)
    n = 4000
    h = gen.uniform(-6.0, 6.0, n)
    k = gen.uniform(-6.0, 6.0, n)
    r = gen.uniform(-1.0, 1.0, n)
    r[:400] = gen.choice([0.93, -0.95, -0.999, 0.9999, 0.0], 400)
    r[400:410] = [1.0, -1.0] * 5
    h[410:415] = [np.inf, -np.inf, np.inf, -np.inf, 0.3]
    k[414] = -np.inf
    got = bvn(h, k, r)
    assert got.shape == (n,)
    want = np.array([bvn_up(a, b, c) for a, b, c in zip(h, k, r)])
    assert np.array_equal(got, want)
    assert np.array_equal(bvn(h.reshape(40, 100), k.reshape(40, 100), r.reshape(40, 100)),
                          want.reshape(40, 100))
    with pytest.raises(ValueError):
        bvn(h[:3], k[:2], r[:3])
    with pytest.raises(ValueError):
        bvn([0.0, 0.0], [0.0, 0.0], [0.5, np.nan])


def test_bvn_exact_degenerate_correlations():
    for a, b in ((0.3, -0.7), (-1.2, 0.4), (1.5, 1.5)):
        assert bvn_low(a, b, 0.0) == float(std_normal_cdf(a)) * float(std_normal_cdf(b))
    a, b = 0.3, -0.7
    assert bvn_low(a, b, 1.0) == float(std_normal_cdf(min(a, b)))
    assert bvn_low(a, 0.7, -1.0) == max(
        0.0, float(std_normal_cdf(a)) + float(std_normal_cdf(0.7)) - 1.0
    )
    # comonotone lower bound saturates at zero
    assert bvn_low(-1.0, 0.5, -1.0) == 0.0


def test_bvn_infinite_limits():
    assert bvn_low(np.inf, 0.5, 0.4) == pytest.approx(float(std_normal_cdf(0.5)), abs=0)
    assert bvn_low(0.5, np.inf, 0.4) == pytest.approx(float(std_normal_cdf(0.5)), abs=0)
    assert bvn_low(-np.inf, 0.5, 0.4) == 0.0
    assert bvn_low(np.inf, np.inf, -0.8) == 1.0
    assert bvn_up(-np.inf, -np.inf, 0.8) == 1.0


def test_bvn_rejects_bad_correlation():
    with pytest.raises(ValueError):
        bvn_low(0.0, 0.0, 1.2)
    with pytest.raises(ValueError):
        bvn_up(0.0, 0.0, float("nan"))
    # a NaN limit is no probability either
    with pytest.raises(ValueError, match="NaN"):
        bvn_low(float("nan"), 0.0, 0.5)
    with pytest.raises(ValueError, match="NaN"):
        bvn([0.0, 1.0], [0.0, float("nan")], [0.95, 0.95])


def test_bvn_up_complement():
    for (a, b, rho) in _BVN_ORACLE:
        assert bvn_up(a, b, rho) == bvn_low(-a, -b, rho)


@given(
    a=st.floats(-6, 6),
    b=st.floats(-6, 6),
    rho=st.floats(-0.999, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_bvn_partition_identity(a, b, rho):
    # P(X<=a, Y<=b) + P(X<=a, Y>b) = Phi(a)
    total = bvn_low(a, b, rho) + bvn_low(a, -b, -rho)
    assert abs(total - float(std_normal_cdf(a))) < 5e-15


@given(
    a=st.floats(-6, 6),
    b=st.floats(-6, 6),
    rho=st.floats(-0.999, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_bvn_symmetry_and_frechet_bounds(a, b, rho):
    p = bvn_low(a, b, rho)
    assert abs(p - bvn_low(b, a, rho)) < 2e-15
    fa, fb = float(std_normal_cdf(a)), float(std_normal_cdf(b))
    assert p >= max(0.0, fa + fb - 1.0) - 5e-15
    assert p <= min(fa, fb) + 5e-15


@given(
    a=st.floats(-4, 4),
    b=st.floats(-4, 4),
    r1=st.floats(-0.999, 0.999),
    r2=st.floats(-0.999, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_bvn_monotone_in_correlation(a, b, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    assert bvn_low(a, b, lo) <= bvn_low(a, b, hi) + 5e-15


def test_gaussian_integrals_closed_forms():
    first, second = gaussian_integrals(1.0, 1.0, 2.38)
    assert abs(first - (-0.27851520653499875)) < 1e-15
    # at alpha = beta = 1 the triple min collapses to 2 Phi(-l/2)
    assert abs(second - 2.0 * float(std_normal_cdf(-1.19))) < 1e-15
    got = gaussian_integrals(1.3, 0.8, 1.7).second
    assert abs(got - 0.35675423885116751) < 1e-15
    # symmetric in (alpha, beta)
    assert got == gaussian_integrals(0.8, 1.3, 1.7).second


def test_gaussian_integrals_second_is_the_aligned_g():
    # the aligned joint acceptance has one implementation: the closed form is
    # the ODE's g at rho = 1 on the squared arguments, bit for bit
    gen = np.random.default_rng(20261019)
    for alpha, beta, l in gen.uniform((0.05, 0.05, 0.05), (4.0, 4.0, 6.0), (10_000, 3)):
        alpha, beta, l = float(alpha), float(beta), float(l)
        assert gaussian_integrals(alpha, beta, l).second == g_value(
            alpha * alpha, beta * beta, 1.0, l
        ), (alpha, beta, l)


def test_aligned_term_dominates_at_the_rest_point():
    # at x = y = 1 the aligned value is the stationary acceptance 2 Phi(-l/2),
    # and no correlation of the two proposals does better
    for l in (1.0, 2.38, 4.0):
        top = gaussian_integrals(1.0, 1.0, l).second
        assert abs(top - 2.0 * float(std_normal_cdf(-l / 2.0))) < 1e-12
        for rho in (-0.9, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-7):
            assert top >= g_value(1.0, 1.0, rho, l) - 1e-12, (l, rho)


def test_gaussian_integrals_monte_carlo_oracle():
    rng = RngStream(20260815, 1)
    n = 1_000_000
    z = rng.standard_normal(n)
    for alpha, beta, l in [(1.0, 1.0, 2.38), (1.3, 0.8, 1.7), (0.5, 2.0, 1.0)]:
        first, second = gaussian_integrals(alpha, beta, l)
        fa = np.minimum(1.0, np.exp(-l * alpha * z - 0.5 * l * l))
        fb = np.minimum(1.0, np.exp(-l * beta * z - 0.5 * l * l))
        s1 = z * fa
        s2 = np.minimum(fa, fb)
        for est, samples in ((first, s1), (second, s2)):
            mc, se = samples.mean(), samples.std(ddof=1) / math.sqrt(n)
            assert abs(est - mc) < 3.0 * se, (alpha, beta, l, est, mc, se)


def test_gaussian_integrals_limits_and_validation():
    # acceptance goes to 1 as the step vanishes and to 0 as it blows up
    assert gaussian_integrals(1.0, 1.0, 1e-8).second > 1.0 - 1e-6
    assert gaussian_integrals(1.0, 1.0, 12.0).second < 1e-8
    with pytest.raises(ValueError):
        gaussian_integrals(-1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        gaussian_integrals(1.0, 1.0, 0.0)


@given(
    alpha=st.floats(0.05, 4.0),
    beta=st.floats(0.05, 4.0),
    l1=st.floats(0.05, 6.0),
    l2=st.floats(0.05, 6.0),
)
@settings(max_examples=200, deadline=None)
def test_gaussian_integrals_second_decreasing_in_l(alpha, beta, l1, l2):
    lo, hi = min(l1, l2), max(l1, l2)
    a = gaussian_integrals(alpha, beta, lo).second
    b = gaussian_integrals(alpha, beta, hi).second
    assert 0.0 < b <= a <= 1.0 + 1e-15


def test_rng_stream_reproducibility():
    a = RngStream(42, 0).standard_normal(16)
    b = RngStream(42, 0).standard_normal(16)
    assert np.array_equal(a, b)
    c = RngStream(42, 1).standard_normal(16)
    d = RngStream(43, 0).standard_normal(16)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


def test_uniform_stream_range():
    u = RngStream(11, 3).uniform(10_000)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / 10_000)


def test_uniform_draws_the_bits_of_generator_uniform():
    # RngStream.uniform skips numpy's 0 + 1 * u map; the draws must not move
    a, b = RngStream(11, 3), RngStream(11, 3)
    got = [a.uniform() for _ in range(1000)] + list(a.uniform(500)) + [a.uniform()]
    want = [b.generator.uniform() for _ in range(1000)] + list(b.generator.uniform(size=500))
    want.append(b.generator.uniform())
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
