"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
wall-clock budget and prints a single PASS/FAIL line on the real stdout so
the verdicts survive pytest's capture.  Tolerances are either exact, Monte
Carlo 3-standard-error bands, or the absolute bands quoted in the README.
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.linalg

from mcmccoup.core_math import RngStream, gaussian_integrals, std_normal_cdf
from mcmccoup.couplings import (
    COUPLING_KINDS,
    CoupledChainState,
    CouplingSpec,
    coupled_hug_step,
    coupled_rwm_step,
    cross_target_coupled_step,
)
from mcmccoup.diagnostics import (
    gelbrich_bound,
    run_replicates,
    stationary_bias_bound,
    summary_stats,
    tv_bound_curve,
    w2_bound_curve,
)
from mcmccoup.fixed_points import h_rho, solve_fixed_point
from mcmccoup.kernels import HugParams, hug_proposal, rwm_step
from mcmccoup.ode_limits import g_value, integrate_w
from mcmccoup.targets import (
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

L_OPT = 2.38
START_CASES = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.9), (1.5, 0.5, 0.0), (0.4, 0.01, -0.5))

_capman = None


@pytest.fixture(autouse=True)
def _verdict_stream(request):
    # verdict lines must survive output capture, so grab the capture plugin
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _emit(line):
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def _run_criterion(idx, label, budget_s, body):
    start = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as err:  # report, then re-raise for pytest
        failure = err
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed <= budget_s
    _emit(
        f"[{idx:2d}/11] {'PASS' if ok else 'FAIL'}  {label}  "
        f"({elapsed:.1f}s, budget {budget_s:.0f}s)"
    )
    if failure is not None:
        raise failure
    assert elapsed <= budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s:.0f}s"


# ---------------------------------------------------------------------------
# 1. closed forms vs fresh Monte Carlo


def _mc_pair_min(sx, sy, rho, l, rng, n=10_000_000, chunk=1_000_000):
    # E[1 ^ e^{-l sx Z1 - l^2/2} ^ e^{-l sy Z2 - l^2/2}], corr(Z1, Z2) = rho
    c = math.sqrt(max(0.0, 1.0 - rho * rho))
    total = total_sq = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        z1 = rng.standard_normal(m)
        z2 = rho * z1 + c * rng.standard_normal(m)
        a = np.exp(np.minimum(0.0, -l * sx * z1 - 0.5 * l * l))
        b = np.exp(np.minimum(0.0, -l * sy * z2 - 0.5 * l * l))
        v = np.minimum(1.0, np.minimum(a, b))
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += m
    mean = total / n
    se = math.sqrt(max(0.0, total_sq / n - mean * mean) / n)
    return mean, se


def _mc_gaussian_integrals(alpha, beta, l, rng, n=10_000_000, chunk=1_000_000):
    t1 = t1sq = t2 = t2sq = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        z = rng.standard_normal(m)
        ea = np.exp(np.minimum(0.0, -l * alpha * z - 0.5 * l * l))
        eb = np.exp(np.minimum(0.0, -l * beta * z - 0.5 * l * l))
        first = z * np.minimum(1.0, ea)
        second = np.minimum(1.0, np.minimum(ea, eb))
        t1 += float(first.sum())
        t1sq += float((first * first).sum())
        t2 += float(second.sum())
        t2sq += float((second * second).sum())
        done += m
    m1, m2 = t1 / n, t2 / n
    se1 = math.sqrt(max(0.0, t1sq / n - m1 * m1) / n)
    se2 = math.sqrt(max(0.0, t2sq / n - m2 * m2) / n)
    return (m1, se1), (m2, se2)


def test_closed_forms_match_monte_carlo():
    def body():
        pick = RngStream(2718, 0).generator
        for j in range(20):
            alpha = 0.3 + 1.7 * pick.uniform()
            beta = 0.3 + 1.7 * pick.uniform()
            l = 0.8 + 2.2 * pick.uniform()
            (m1, se1), (m2, se2) = _mc_gaussian_integrals(
                alpha, beta, l, RngStream(2718, 100 + j)
            )
            closed = gaussian_integrals(alpha, beta, l)
            assert abs(closed.first - m1) < 3.0 * se1, (j, alpha, beta, l)
            assert abs(closed.second - m2) < 3.0 * se2, (j, alpha, beta, l)
        for j in range(20):
            x = 0.3 + 1.9 * pick.uniform()
            y = 0.3 + 1.9 * pick.uniform()
            rho = -0.95 + 1.90 * pick.uniform()
            l = 0.8 + 2.2 * pick.uniform()
            est, se = _mc_pair_min(
                math.sqrt(x), math.sqrt(y), rho, l, RngStream(2718, 200 + j)
            )
            assert abs(g_value(x, y, rho, l) - est) < 3.0 * se, (j, x, y, rho, l)
        for j in range(20):
            rho = -0.95 + 1.90 * pick.uniform()
            l = 0.8 + 2.2 * pick.uniform()
            est, se = _mc_pair_min(1.0, 1.0, rho, l, RngStream(2718, 300 + j))
            assert abs(h_rho(rho, l) - est) < 3.0 * se, (j, rho, l)

    _run_criterion(1, "closed forms match 1e7-draw Monte Carlo at 20 random points", 120, body)


# ---------------------------------------------------------------------------
# 2. stationary fixed points


def test_fixed_point_values():
    def body():
        crn = solve_fixed_point("crn", L_OPT)
        # the quoted 0.92 is a two-decimal report of the root; hold both the
        # rounded claim and the full-precision value
        assert abs(crn.s_inf - 0.92) < 5e-3
        assert abs(crn.s_inf - 0.9231814019691353) < 1e-9
        assert abs(crn.s_inf - 2.0 * (1.0 - crn.v_star)) < 1e-15
        assert solve_fixed_point("gcrn", L_OPT).s_inf == 0.0
        assert solve_fixed_point("reflection", L_OPT, 1.0).s_inf == 0.0

    _run_criterion(2, "stationary fixed points (crn root, gcrn and reflection zeros)", 10, body)


# ---------------------------------------------------------------------------
# 3. marginal scaling regime


def test_marginal_chain_scaling_regime():
    def body():
        d, n_steps = 1000, 6000
        target = SphericalGaussian(d)
        h = L_OPT / math.sqrt(d)
        rng = RngStream(515, 0)
        x = target.sample(rng)
        trace = np.empty((n_steps + 1, d))
        trace[0] = x
        for t in range(n_steps):
            z = rng.standard_normal(d)
            u = float(rng.uniform())
            x, _ = rwm_step(x, z, u, h, target)
            trace[t + 1] = x
        st = summary_stats(trace)
        assert abs(st.acceptance - 2.0 * std_normal_cdf(-L_OPT / 2.0)) < 0.01
        ref = 2.0 * L_OPT**2 * std_normal_cdf(-L_OPT / 2.0)
        assert abs(st.esjd - ref) < 3.0 * st.esjd_se

    _run_criterion(3, "d=1000 acceptance 0.234 +- 0.01 and expected squared jump", 60, body)


# ---------------------------------------------------------------------------
# 4. coupled trajectories track the 3-D limit


def _profile_pair(x0, y0, rho0, d, rng):
    z = rng.standard_normal(d)
    zp = rng.standard_normal(d)
    x = math.sqrt(x0) * z
    y = math.sqrt(y0) * (rho0 * z + math.sqrt(1.0 - rho0 * rho0) * zp)
    return x, y


def test_coupled_traces_follow_ode_limit():
    def body():
        d, t_end, reps = 1000, 5.0, 12
        target = SphericalGaussian(d)
        n_steps = int(t_end * d)
        combo = 0
        for x0, y0, rho0 in START_CASES:
            v0 = rho0 * math.sqrt(x0 * y0)
            for l in (L_OPT, math.sqrt(2.0)):
                h = l / math.sqrt(d)
                for kind in ("crn", "reflection", "gcrn"):
                    ode = integrate_w((x0, y0, v0), l, kind, t_end, dt=1.0 / d)
                    spec = CouplingSpec(kind)
                    acc = np.zeros(n_steps + 1)
                    for r in range(reps):
                        rng = RngStream(4242, 1000 * combo + r)
                        x, y = _profile_pair(x0, y0, rho0, d, rng)
                        state = CoupledChainState(x=x, y=y)
                        s = np.empty(n_steps + 1)
                        for j in range(n_steps + 1):
                            gap = state.x - state.y
                            s[j] = float(gap @ gap) / d
                            if j < n_steps:
                                state = coupled_rwm_step(state, spec, h, target, rng)
                        acc += s
                    acc /= reps
                    sup_gap = float(np.max(np.abs(acc - ode.s)))
                    assert sup_gap <= 0.15, (x0, y0, rho0, l, kind, sup_gap)
                    combo += 1

    _run_criterion(4, "d=1000 coupled traces within 0.15 of the 3-D limit", 300, body)


# ---------------------------------------------------------------------------
# 5. elliptical plateaus match the two-point prediction


def test_elliptical_plateaus_match_fixed_points():
    def body():
        d, t_end, reps = 500, 40, 6
        gen = RngStream(7001, 10**6).generator
        targets = (
            Ar1Gaussian(d, 0.5),
            DiagonalGaussian(gen.chisquare(3, d) / 3.0),
        )
        for ti, target in enumerate(targets):
            summ = spectral_summary(target)
            h = L_OPT / (summ.z(1) * math.sqrt(d))
            zm1sq = summ.z(-1) ** 2
            n_steps = t_end * d
            for ki, kind in enumerate(("crn", "reflection", "gcrn")):
                spec = CouplingSpec(kind)
                plateaus = []
                for r in range(reps):
                    rng = RngStream(7100, 1000 * (3 * ti + ki) + r)
                    state = CoupledChainState(x=target.sample(rng), y=target.sample(rng))
                    tail, n_tail = 0.0, 0
                    for j in range(n_steps):
                        state = coupled_rwm_step(state, spec, h, target, rng)
                        if j >= n_steps // 2:
                            gap = state.x - state.y
                            tail += float(gap @ gap) / (d * zm1sq)
                            n_tail += 1
                    plateaus.append(tail / n_tail)
                plateau = float(np.mean(plateaus))
                if kind == "gcrn":
                    assert plateau < 0.05, (target.kind, plateau)
                else:
                    fp = solve_fixed_point(kind, L_OPT, max(1.0, summ.epsilon))
                    assert abs(plateau - fp.s_inf) <= 0.1, (target.kind, kind, plateau, fp.s_inf)

    _run_criterion(5, "ar1/chi-square plateaus within 0.1 of two-point fixed points", 480, body)


# ---------------------------------------------------------------------------
# 6. the coupling term is maximized by gradient common random numbers


def _coupling_term_mc(x_vec, y_vec, rng, n, h, l):
    d = x_vec.size
    e = x_vec - y_vec
    e = e / np.linalg.norm(e)
    n_x = -x_vec / np.linalg.norm(x_vec)
    n_y = -y_vec / np.linalg.norm(y_vec)
    kinds = ("crn", "reflection", "gcrn")
    sums = dict.fromkeys(kinds, 0.0)
    sqs = dict.fromkeys(kinds, 0.0)
    dsums = {"crn": 0.0, "reflection": 0.0}
    dsqs = {"crn": 0.0, "reflection": 0.0}
    done = 0
    while done < n:
        m = min(2000, n - done)
        z = rng.standard_normal((m, d))
        z1 = rng.standard_normal(m)
        logu = np.log(rng.uniform(size=m))
        vals = {}
        for kind in kinds:
            if kind == "crn":
                zx, zy = z, z
            elif kind == "reflection":
                zx = z
                zy = z - 2.0 * np.outer(z @ e, e)
            else:
                zx = z - np.outer(z @ n_x, n_x) + np.outer(z1, n_x)
                zy = z - np.outer(z @ n_y, n_y) + np.outer(z1, n_y)
            acc_x = logu <= -h * (zx @ x_vec) - 0.5 * h * h * np.einsum("ij,ij->i", zx, zx)
            acc_y = logu <= -h * (zy @ y_vec) - 0.5 * h * h * np.einsum("ij,ij->i", zy, zy)
            term = (l * l / d) * np.einsum("ij,ij->i", zx, zy) * (acc_x & acc_y)
            vals[kind] = term
            sums[kind] += float(term.sum())
            sqs[kind] += float((term * term).sum())
        for kind in ("crn", "reflection"):
            diff = vals["gcrn"] - vals[kind]
            dsums[kind] += float(diff.sum())
            dsqs[kind] += float((diff * diff).sum())
        done += m
    means = {}
    for kind in kinds:
        mu = sums[kind] / n
        means[kind] = (mu, math.sqrt(max(0.0, sqs[kind] / n - mu * mu) / n))
    margins = {}
    for kind in ("crn", "reflection"):
        mu = dsums[kind] / n
        margins[kind] = (mu, math.sqrt(max(0.0, dsqs[kind] / n - mu * mu) / n))
    return means, margins


def test_gcrn_maximizes_coupling_term():
    def body():
        d, n = 500, 5000
        h = L_OPT / math.sqrt(d)
        for j in range(10):
            rng = RngStream(3555, j)
            rho = float(rng.uniform()) * 1.45 - 0.5
            z = rng.standard_normal(d)
            zt = rng.standard_normal(d)
            x_vec = z
            y_vec = rho * z + math.sqrt(1.0 - rho * rho) * zt
            means, margins = _coupling_term_mc(x_vec, y_vec, rng, n, h, L_OPT)
            xh = float(x_vec @ x_vec) / d
            yh = float(y_vec @ y_vec) / d
            closed = L_OPT**2 * gaussian_integrals(math.sqrt(xh), math.sqrt(yh), L_OPT).second
            mean_g, se_g = means["gcrn"]
            assert abs(mean_g - closed) <= 3.0 * se_g, (j, mean_g, closed, se_g)
            for kind in ("crn", "reflection"):
                gap, se = margins[kind]
                assert gap >= -3.0 * se, (j, kind, gap, se)

    _run_criterion(6, "coupling term: gcrn meets the closed form and tops crn/reflection", 180, body)


# ---------------------------------------------------------------------------
# 7. asymptote ordering across the step/eccentricity sweep


def test_asymptote_ordering_and_limits():
    def body():
        l_grid = np.linspace(0.5, 5.0, 10)
        eps_grid = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)
        for l in l_grid:
            l = float(l)
            v_crn = solve_fixed_point("crn", l).v_star
            prev = None
            for eps in eps_grid:
                v_refl = solve_fixed_point("reflection", l, eps).v_star
                assert v_crn < v_refl < 1.0, (l, eps, v_crn, v_refl)
                if prev is not None:
                    assert v_refl < prev, (l, eps)
                prev = v_refl
            # endpoint limits: degenerate coupling at eps -> 1, crn at eps -> inf
            assert solve_fixed_point("reflection", l, 1.0).v_star == 1.0
            assert 1.0 - solve_fixed_point("reflection", l, 1.0001).v_star < 1e-3
            assert abs(solve_fixed_point("reflection", l, 1e6).v_star - v_crn) < 1e-5

    _run_criterion(7, "v_crn < v_reflection < 1 with both eccentricity limits", 10, body)


# ---------------------------------------------------------------------------
# 8. volatility posterior: meetings, bound curves, bias ordering


def test_volatility_posterior_convergence_and_bias_ordering():
    def body():
        T, seed = 50, 46200
        lag, max_iter, delta = 10_000, 200_000, 0.005
        _, y = svm_simulate(T, SvmParams(0.65, 0.98, 0.15), RngStream(seed, 10**6 + 1))
        post = SvmPosterior(y)
        fit = laplace_fit(post, np.zeros(T), tol=1e-6, max_iter=50_000)
        surrogate = fit.as_target()
        h = L_OPT / (math.sqrt(T) * spectral_summary(surrogate).z(1))

        two_scale = CouplingSpec("two-scale", delta=delta)

        def start(rng):
            return post.prior_sample(rng), post.prior_sample(rng)

        def step_two_scale(state, rng):
            return coupled_rwm_step(state, two_scale, h, post, rng)

        records, traces = run_replicates(
            step_two_scale, start, lag=lag, n_replicates=20,
            max_iter=max_iter, seed=seed,
        )
        assert sum(r.capped for r in records) == 0
        assert all(r.tau <= lag + max_iter for r in records)

        t_hi = int(max(r.tau for r in records) - lag)
        t_grid = np.unique(np.linspace(0, t_hi, 25).astype(int))
        tv = tv_bound_curve(records, t_grid.astype(float))
        assert tv.estimate[0] > 0.0
        assert np.all(np.diff(tv.estimate) <= 1e-12)
        assert tv.estimate[-1] == 0.0
        w2 = w2_bound_curve(records, traces, t_grid)
        assert w2.estimate[0] > 1.0
        assert np.all(np.diff(w2.estimate) <= 0.01)
        assert w2.estimate[-1] == 0.0

        # couplings without a coalescing branch stay apart on the same budget
        for kind in ("crn", "reflection"):
            cspec = CouplingSpec(kind)

            def step_plain(state, rng, cspec=cspec):
                return coupled_rwm_step(state, cspec, h, post, rng)

            recs, _ = run_replicates(
                step_plain, start, lag=lag, n_replicates=10,
                max_iter=max_iter, seed=seed, store_trace=False,
            )
            assert sum(r.capped for r in recs) >= 0.9 * len(recs), kind

        # stationary bias bounds against the Laplace surrogate: gradient
        # common random numbers must give the smallest bound
        n_steps = 60_000
        kinds = ("gcrn", "crn", "reflection")
        ests = {}
        for kind in kinds:
            trs = []
            for r in range(4):
                rng = RngStream(seed + 1, 100 * kinds.index(kind) + r)
                state = CoupledChainState(x=post.prior_sample(rng), y=surrogate.sample(rng))
                tr = np.empty(n_steps)
                for t in range(n_steps):
                    state = cross_target_coupled_step(state, h, post, surrogate, kind, rng)
                    gap = state.x - state.y
                    tr[t] = float(gap @ gap)
                trs.append(tr)
            ests[kind], _ = stationary_bias_bound(trs, burn_in=n_steps // 3)
        assert ests["gcrn"] < ests["crn"], ests
        assert ests["gcrn"] < ests["reflection"], ests

    _run_criterion(
        8, "volatility posterior: 20/20 meetings, shrinking bounds, gcrn bias smallest", 600, body
    )


# ---------------------------------------------------------------------------
# 9. bounce kernel geometry


def test_bounce_kernel_level_sets_and_contraction():
    def body():
        d = 500
        target = SphericalGaussian(dim=d)
        rng = RngStream(1515, 0)

        hug = HugParams(total_time=0.5, bounces=10)
        x = rng.standard_normal(d)
        for _ in range(200):
            v = rng.standard_normal(d)
            xp, _ = hug_proposal(x, v, hug, target)
            assert abs(float(np.linalg.norm(xp)) - float(np.linalg.norm(x))) <= 1e-10
            x = xp

        delta = 0.4
        hug1 = HugParams(total_time=delta, bounces=1)
        x = rng.standard_normal(d)
        w = rng.standard_normal(d)
        tang = w - (float(np.dot(w, x)) / float(np.dot(x, x))) * x
        y = x + 1e-3 * tang / np.linalg.norm(tang)
        y *= np.linalg.norm(x) / np.linalg.norm(y)
        state = CoupledChainState(x=x, y=y)
        ratios = []
        for _ in range(200):
            before = float(np.linalg.norm(state.x - state.y))
            state = coupled_hug_step(state, hug1, target, rng)
            ratios.append(float(np.linalg.norm(state.x - state.y)) / before)
        predicted = 1.0 - 2.0 * delta**2 / (4.0 + delta**2)
        assert abs(float(np.mean(ratios)) - predicted) <= 0.1 * (1.0 - predicted)

    _run_criterion(9, "bounce kernel: level sets to 1e-10 and predicted contraction", 120, body)


# ---------------------------------------------------------------------------
# 10. Gaussian lower bound on the transport gap


def test_transport_lower_bound():
    def body():
        # commuting pairs: the bound reduces to a sum over matched eigenvalues
        rng = np.random.default_rng(424)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            v1 = rng.uniform(0.2, 3.0, n)
            v2 = rng.uniform(0.2, 3.0, n)
            mu1 = rng.standard_normal(n)
            mu2 = rng.standard_normal(n)
            exact = float((mu1 - mu2) @ (mu1 - mu2)) + float(
                ((np.sqrt(v1) - np.sqrt(v2)) ** 2).sum()
            )
            got = gelbrich_bound(mu1, np.diag(v1), mu2, np.diag(v2))
            assert abs(got - exact) <= 1e-12

        # general pairs against a dense eigendecomposition oracle
        rng = np.random.default_rng(99)
        for _ in range(5):
            a = rng.standard_normal((5, 5))
            s1 = a @ a.T + 0.1 * np.eye(5)
            b = rng.standard_normal((5, 5))
            s2 = b @ b.T + 0.1 * np.eye(5)
            mu1 = rng.standard_normal(5)
            mu2 = rng.standard_normal(5)
            r1 = scipy.linalg.sqrtm(s1).real
            inner = scipy.linalg.sqrtm(r1 @ s2 @ r1).real
            oracle = float(
                (mu1 - mu2) @ (mu1 - mu2) + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(inner)
            )
            assert abs(gelbrich_bound(mu1, s1, mu2, s2) - oracle) <= 1e-8

        # the coupled stationary bound must dominate it on Gaussian pairs
        rng = np.random.default_rng(2025)
        for inst in range(6):
            a = rng.standard_normal((2, 2))
            s1 = a @ a.T + 0.3 * np.eye(2)
            b = rng.standard_normal((2, 2))
            s2 = b @ b.T + 0.3 * np.eye(2)
            mu1 = rng.standard_normal(2)
            mu2 = rng.standard_normal(2)
            ta, tb = DenseGaussian(mu1, s1), DenseGaussian(mu2, s2)
            stream = RngStream(31_000 + inst, 0)
            state = CoupledChainState(x=ta.sample(stream), y=tb.sample(stream))
            tr = np.empty(12_000)
            for t in range(12_000):
                state = cross_target_coupled_step(state, 1.2, ta, tb, "gcrn", stream)
                gap = state.x - state.y
                tr[t] = float(gap @ gap)
            est, _ = stationary_bias_bound([tr], burn_in=1_500)
            assert est >= gelbrich_bound(mu1, s1, mu2, s2), inst

    _run_criterion(10, "transport bound: exact commuting, oracle match, dominated by chains", 30, body)


# ---------------------------------------------------------------------------
# 11. faithfulness and marginality across dimensions


def _tail_batch_se(series, n_batches=10):
    n = series.size // n_batches
    means = series[: n * n_batches].reshape(n_batches, n).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def test_faithfulness_and_marginality_properties():
    def body():
        dims = (2, 10, 100)

        # marginality: each chain of the pair keeps the target's second
        # moments for every coupling kind
        n_steps, burn = 20_000, 1_000
        for d in dims:
            variances = np.linspace(0.6, 1.8, d)
            target = DiagonalGaussian(variances)
            h = L_OPT / math.sqrt(d)
            for kind in COUPLING_KINDS:
                spec = CouplingSpec(kind, delta=1.0 if kind == "two-scale" else None)
                rng = RngStream(8900 + d, COUPLING_KINDS.index(kind))
                state = CoupledChainState(x=target.sample(rng), y=target.sample(rng))
                agg_x = np.empty(n_steps)
                agg_y = np.empty(n_steps)
                for t in range(n_steps):
                    state = coupled_rwm_step(state, spec, h, target, rng)
                    agg_x[t] = float(np.mean(state.x**2 / variances))
                    agg_y[t] = float(np.mean(state.y**2 / variances))
                for agg in (agg_x, agg_y):
                    tail = agg[burn:]
                    se = _tail_batch_se(tail)
                    assert abs(float(tail.mean()) - 1.0) < 4.0 * se + 0.015, (d, kind)

        # faithfulness: a met pair advances as one chain, bit for bit
        for d in dims:
            target = DiagonalGaussian(np.linspace(0.6, 1.8, d))
            h = L_OPT / math.sqrt(d)
            for kind in COUPLING_KINDS:
                spec = CouplingSpec(kind, delta=1.0 if kind == "two-scale" else None)
                rng = RngStream(9300 + d, COUPLING_KINDS.index(kind))
                x0 = target.sample(rng)
                state = CoupledChainState(x=x0, y=x0.copy(), met=True)
                for _ in range(200):
                    state = coupled_rwm_step(state, spec, h, target, rng)
                    assert state.met and state.x is state.y

        # couplings with a coalescing branch really meet, and stay met
        meeting = {
            2: ("reflection-maximal", "maximal-independent", "two-scale"),
            10: ("two-scale",),
            100: ("two-scale",),
        }
        for d, kinds in meeting.items():
            target = DiagonalGaussian(np.linspace(0.6, 1.8, d))
            h = L_OPT / math.sqrt(d)
            for kind in kinds:
                spec = CouplingSpec(kind, delta=1.0 if kind == "two-scale" else None)
                rng = RngStream(9700 + d, COUPLING_KINDS.index(kind))
                state = CoupledChainState(x=target.sample(rng), y=target.sample(rng))
                for _ in range(20_000):
                    state = coupled_rwm_step(state, spec, h, target, rng)
                    if state.met:
                        break
                assert state.met, (d, kind)
                for _ in range(300):
                    state = coupled_rwm_step(state, spec, h, target, rng)
                    assert state.met and state.x is state.y

    _run_criterion(11, "faithfulness and marginality suites at d in {2, 10, 100}", 180, body)
