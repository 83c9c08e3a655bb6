import math

import numpy as np
import pytest
import scipy.linalg

from mcmccoup.core_math import RngStream, std_normal_cdf
from mcmccoup.couplings import (
    CoupledChainState,
    CouplingSpec,
    coupled_rwm_step,
    cross_target_coupled_step,
)
from mcmccoup.diagnostics import (
    BoundCurve,
    MeetingRecord,
    _psd_eigh,
    gelbrich_bound,
    run_replicates,
    stationary_bias_bound,
    summary_stats,
    tv_bound_curve,
    w2_bound_curve,
)
from mcmccoup.kernels import rwm_step
from mcmccoup.targets import DenseGaussian, SphericalGaussian


def _drift_double(state, rng):
    """Deterministic test coupling: x drifts by +1, y joins x in one step."""
    x = state.x + 1.0
    return CoupledChainState(x=x, y=x, t=state.t + 1, met=True)


def _two_scale_runner(d, delta=0.5):
    target = SphericalGaussian(d)
    h = 2.38 / math.sqrt(d)
    cspec = CouplingSpec("two-scale", delta=delta)

    def step(state, rng):
        return coupled_rwm_step(state, cspec, h, target, rng)

    return step, target.sample


def test_meeting_record_validation():
    MeetingRecord(replicate=0, tau=11, lag=10, capped=False)
    MeetingRecord(replicate=1, tau=math.inf, lag=10, capped=True)
    with pytest.raises(ValueError):
        MeetingRecord(replicate=0, tau=500, lag=10, capped=True)
    with pytest.raises(ValueError):
        MeetingRecord(replicate=0, tau=10, lag=10, capped=False)
    with pytest.raises(ValueError):
        MeetingRecord(replicate=0, tau=12.5, lag=10, capped=False)
    with pytest.raises(ValueError):
        MeetingRecord(replicate=0, tau=5, lag=0, capped=False)


def test_identity_double_meets_at_lag_plus_one():
    lag = 7
    records, traces = run_replicates(
        _drift_double,
        init=lambda rng: rng.standard_normal(3),
        lag=lag,
        n_replicates=5,
        max_iter=50,
        seed=4,
    )
    assert [r.tau for r in records] == [lag + 1] * 5
    assert not any(r.capped for r in records)
    # one pre-meeting distance, equal to the drifted initial gap
    for r, trace in enumerate(traces):
        rng = RngStream(4, r)
        x0 = rng.standard_normal(3)
        y0 = rng.standard_normal(3)
        gap = (x0 + lag) - y0
        assert trace.shape == (1,)
        assert trace[0] == pytest.approx(float(gap @ gap), rel=1e-12)


def test_replicates_are_keyed_by_stream_id():
    step, init = _two_scale_runner(d=10)
    rec_a, tr_a = run_replicates(step, init, lag=20, n_replicates=2, max_iter=5000, seed=909)
    rec_b, tr_b = run_replicates(step, init, lag=20, n_replicates=4, max_iter=5000, seed=909)
    # the first two replicates do not depend on how many run after them
    assert [r.tau for r in rec_a] == [r.tau for r in rec_b[:2]]
    for a, b in zip(tr_a, tr_b[:2]):
        assert np.array_equal(a, b)
    rec_c, _ = run_replicates(step, init, lag=20, n_replicates=2, max_iter=5000, seed=910)
    assert [r.tau for r in rec_c] != [r.tau for r in rec_a]


def test_trace_layout_and_thinning():
    step, init = _two_scale_runner(d=10)
    records, dense = run_replicates(step, init, lag=20, n_replicates=3, max_iter=5000, seed=11)
    for rec, trace in zip(records, dense):
        assert trace.size == rec.tau - rec.lag
        assert np.all(trace > 0.0)
    _, empty = run_replicates(
        step, init, lag=20, n_replicates=2, max_iter=5000, seed=11, store_trace=False
    )
    assert all(tr.size == 0 for tr in empty)


def test_run_replicates_validation():
    step, init = _two_scale_runner(d=4)
    with pytest.raises(ValueError):
        run_replicates(step, init, lag=0, n_replicates=1, max_iter=10, seed=0)
    with pytest.raises(ValueError):
        run_replicates(step, init, lag=1, n_replicates=0, max_iter=10, seed=0)
    with pytest.raises(ValueError):
        run_replicates(step, init, lag=1, n_replicates=1, max_iter=0, seed=0)


def test_tv_curve_arithmetic():
    lag = 100
    one = [MeetingRecord(replicate=0, tau=3 * lag + 1, lag=lag, capped=False)]
    curve = tv_bound_curve(one, [0.0])
    assert curve.estimate[0] == 3.0
    # averaging over replicates, and the ceil kink
    recs = [
        MeetingRecord(replicate=0, tau=3 * lag + 1, lag=lag, capped=False),
        MeetingRecord(replicate=1, tau=lag + 1, lag=lag, capped=False),
    ]
    curve = tv_bound_curve(recs, [0.0, 1.0, 2 * lag + 1.0, 5 * lag])
    assert curve.estimate[0] == pytest.approx(0.5 * (3 + 1))
    assert curve.estimate[1] == pytest.approx(0.5 * (2 + 0))
    assert curve.estimate[2] == 0.0
    assert curve.estimate[3] == 0.0
    assert np.all(np.diff(curve.estimate) <= 0.0)
    assert np.all(curve.ci_low <= curve.estimate)
    assert np.all(curve.ci_high >= curve.estimate)


def test_tv_curve_capped_handling():
    lag = 10
    recs = [
        MeetingRecord(replicate=0, tau=21, lag=lag, capped=False),
        MeetingRecord(replicate=1, tau=math.inf, lag=lag, capped=True),
        MeetingRecord(replicate=2, tau=31, lag=lag, capped=False),
    ]
    with pytest.warns(RuntimeWarning, match="capped"):
        curve = tv_bound_curve(recs, [0.0])
    assert curve.n_replicates == 2
    assert curve.n_capped == 1
    assert curve.estimate[0] == pytest.approx(0.5 * (2 + 3))
    all_capped = [MeetingRecord(replicate=0, tau=math.inf, lag=lag, capped=True)]
    with pytest.raises(RuntimeError, match="capped"):
        tv_bound_curve(all_capped, [0.0])
    with pytest.raises(ValueError):
        tv_bound_curve(recs, [-1.0])
    with pytest.raises(ValueError):
        tv_bound_curve([], [0.0])


def test_w2_telescoping_hand_check():
    lag = 2
    recs = [
        MeetingRecord(replicate=0, tau=lag + 5, lag=lag, capped=False),
        MeetingRecord(replicate=1, tau=lag + 3, lag=lag, capped=False),
    ]
    traces = [
        np.array([4.0, 1.0, 2.25, 1.0, 0.25]),
        np.array([1.0, 4.0, 0.25]),
    ]
    curve = w2_bound_curve(recs, traces, [0, 1, 5])
    # t = 0 reads offsets u = 0, 2, 4; the second replicate met at u = 3
    expect0 = (
        math.sqrt(0.5 * (4.0 + 1.0))
        + math.sqrt(0.5 * (2.25 + 0.25))
        + math.sqrt(0.5 * (0.25 + 0.0))
    ) ** 2
    expect1 = (math.sqrt(0.5 * (1.0 + 4.0)) + math.sqrt(0.5 * (1.0 + 0.0))) ** 2
    assert curve.estimate[0] == pytest.approx(expect0, rel=1e-12)
    assert curve.estimate[1] == pytest.approx(expect1, rel=1e-12)
    assert curve.estimate[2] == 0.0
    assert curve.metric == "w2sq"


def test_w2_identity_double_pipeline():
    lag = 4
    records, traces = run_replicates(
        _drift_double,
        init=lambda rng: rng.standard_normal(2),
        lag=lag,
        n_replicates=3,
        max_iter=10,
        seed=99,
    )
    curve = w2_bound_curve(records, traces, [0])
    gaps = []
    for r in range(3):
        rng = RngStream(99, r)
        x0 = rng.standard_normal(2)
        y0 = rng.standard_normal(2)
        gap = (x0 + lag) - y0
        gaps.append(float(gap @ gap))
    assert curve.estimate[0] == pytest.approx(np.mean(gaps), rel=1e-12)


def test_w2_storage_errors():
    step, init = _two_scale_runner(d=6)
    records, none = run_replicates(
        step, init, lag=10, n_replicates=2, max_iter=5000, seed=3, store_trace=False
    )
    with pytest.raises(ValueError, match="stored"):
        w2_bound_curve(records, none, [0])
    dense_records, dense = run_replicates(
        step, init, lag=10, n_replicates=2, max_iter=5000, seed=3
    )
    with pytest.raises(ValueError):
        w2_bound_curve(dense_records, dense, [0.5])
    with pytest.raises(ValueError):
        w2_bound_curve(dense_records, dense[:1], [0])


def test_two_scale_sweep_meets_and_bounds_shrink():
    # spherical target, d = 50: every replicate meets well within the budget
    step, init = _two_scale_runner(d=50)
    records, traces = run_replicates(
        step, init, lag=200, n_replicates=20, max_iter=100_000, seed=90125
    )
    assert not any(r.capped for r in records)
    assert max(r.tau for r in records) < 100_000

    tv = tv_bound_curve(records, np.arange(0.0, 2001.0, 200.0))
    assert np.all(np.diff(tv.estimate) <= 0.0)
    assert tv.estimate[0] > 1.0
    assert tv.estimate[-1] == 0.0

    w2 = w2_bound_curve(records, traces, np.arange(0, 1001, 250))
    assert np.all(np.diff(w2.estimate) <= 0.0)
    assert w2.estimate[0] > 10.0
    assert w2.estimate[-1] == 0.0
    assert np.all(w2.ci_low <= w2.estimate)
    assert np.all(w2.ci_high >= w2.estimate)


def test_crn_alone_stays_capped():
    # without a coalescing branch the chains never coincide exactly
    d = 200
    target = SphericalGaussian(d)
    h = 2.38 / math.sqrt(d)
    cspec = CouplingSpec("crn")

    def step(state, rng):
        return coupled_rwm_step(state, cspec, h, target, rng)

    records, _ = run_replicates(
        step, target.sample, lag=50, n_replicates=10, max_iter=400, seed=11,
        store_trace=False,
    )
    n_capped = sum(r.capped for r in records)
    assert n_capped >= 9
    if n_capped == len(records):
        with pytest.raises(RuntimeError):
            tv_bound_curve(records, [0.0])


def test_stationary_bias_basic():
    est, ci = stationary_bias_bound(np.zeros(100), burn_in=10)
    assert est == 0.0 and ci == (0.0, 0.0)
    est, ci = stationary_bias_bound([np.full(50, 2.0), np.full(50, 4.0)], burn_in=5)
    assert est == pytest.approx(3.0)
    assert ci[0] < 3.0 < ci[1]
    with pytest.raises(ValueError):
        stationary_bias_bound(np.ones(10), burn_in=10)
    with pytest.raises(ValueError):
        stationary_bias_bound(np.ones(10), burn_in=-1)
    with pytest.raises(ValueError):
        stationary_bias_bound([], burn_in=0)


def _bias_trace(target_x, target_y, h, n_steps, rng):
    state = CoupledChainState(x=target_x.sample(rng), y=target_y.sample(rng))
    out = np.empty(n_steps)
    for t in range(n_steps):
        state = cross_target_coupled_step(state, h, target_x, target_y, "crn", rng)
        gap = state.x - state.y
        out[t] = gap @ gap
    return out


def test_bias_bound_mean_shifted_gaussians():
    # shared-noise chains on N(0,1) and N(m,1): squared distance settles at
    # m^2 plus a positive residual from unsynchronized accept decisions
    m = 2.0
    t1 = DenseGaussian(np.zeros(1), np.eye(1))
    t2 = DenseGaussian(np.array([m]), np.eye(1))
    reps = [_bias_trace(t1, t2, 2.38, 20_000, RngStream(777, r)) for r in range(3)]
    est, ci = stationary_bias_bound(reps, burn_in=2_000)
    gelbrich = gelbrich_bound(np.zeros(1), np.eye(1), np.array([m]), np.eye(1))
    assert gelbrich == pytest.approx(m * m)
    assert est >= gelbrich
    assert est == pytest.approx(m * m + 0.23, abs=0.2)
    assert ci[0] <= est <= ci[1]


def test_bias_bound_dominates_gelbrich():
    rng0 = np.random.default_rng(2025)
    for inst in range(10):
        a = rng0.standard_normal((2, 2))
        s1 = a @ a.T + 0.3 * np.eye(2)
        b = rng0.standard_normal((2, 2))
        s2 = b @ b.T + 0.3 * np.eye(2)
        mu1 = rng0.standard_normal(2)
        mu2 = rng0.standard_normal(2)
        trace = _bias_trace(
            DenseGaussian(mu1, s1), DenseGaussian(mu2, s2), 1.2, 12_000,
            RngStream(31_000 + inst, 0),
        )
        est, _ = stationary_bias_bound(trace, burn_in=1_500)
        assert est >= gelbrich_bound(mu1, s1, mu2, s2)


def test_gelbrich_values_and_symmetry():
    # commuting covariances: bound reduces to trace of squared root gap
    val = gelbrich_bound(np.zeros(2), np.diag([1.0, 4.0]), np.zeros(2), np.diag([9.0, 1.0]))
    assert val == pytest.approx(5.0, abs=1e-12)
    assert gelbrich_bound(np.ones(3), 2.0 * np.eye(3), np.ones(3), 2.0 * np.eye(3)) == 0.0
    a = gelbrich_bound(np.zeros(2), np.diag([1.0, 4.0]), np.ones(2), np.diag([2.0, 3.0]))
    b = gelbrich_bound(np.ones(2), np.diag([2.0, 3.0]), np.zeros(2), np.diag([1.0, 4.0]))
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 1e-10
    # the eigendecomposition behind it reconstructs its matrix
    m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    w, v = _psd_eigh(m, "m")
    assert float(np.abs(v @ np.diag(w) @ v.T - m).max()) < 1e-11


def test_gelbrich_matches_general_oracle():
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
            (mu1 - mu2) @ (mu1 - mu2)
            + np.trace(s1)
            + np.trace(s2)
            - 2.0 * np.trace(inner)
        )
        assert gelbrich_bound(mu1, s1, mu2, s2) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("n", [30, 50, 360])
def test_gelbrich_matches_sqrtm_oracle_at_paper_sizes(n):
    # the n = 30 pair once exhausted a rotation eigensolver's sweeps
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    s1 = a @ a.T + np.eye(n)
    s2 = b @ b.T + np.eye(n)
    mu1, mu2 = np.zeros(n), np.ones(n)
    r1 = scipy.linalg.sqrtm(s1).real
    inner = scipy.linalg.sqrtm(r1 @ s2 @ r1).real
    oracle = float(n + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(inner))
    assert gelbrich_bound(mu1, s1, mu2, s2) == pytest.approx(oracle, rel=1e-8)


def test_gelbrich_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        gelbrich_bound(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        gelbrich_bound(np.zeros(2), np.diag([1.0, -0.5]), np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        gelbrich_bound(np.zeros(3), np.eye(2), np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        gelbrich_bound(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))


def _rwm_trace(d, l, n_steps, seed):
    target = SphericalGaussian(d)
    h = l / math.sqrt(d)
    rng = RngStream(seed, 0)
    x = target.sample(rng)
    out = np.empty((n_steps + 1, d))
    out[0] = x
    for t in range(n_steps):
        z = rng.standard_normal(d)
        u = float(rng.uniform())
        x, _ = rwm_step(x, z, u, h, target)
        out[t + 1] = x
    return out


def test_summary_stats_degenerate_traces():
    frozen = np.tile(np.arange(3.0), (5, 1))
    st = summary_stats(frozen)
    assert st.acceptance == 0.0
    assert st.esjd == 0.0
    assert st.n_steps == 4
    with pytest.raises(ValueError):
        summary_stats([])
    with pytest.raises(ValueError):
        summary_stats(np.ones(5))
    with pytest.raises(ValueError):
        summary_stats(np.ones((1, 5)))


def test_summary_stats_scaling_regime():
    trace = _rwm_trace(d=1000, l=2.38, n_steps=6000, seed=515)
    st = summary_stats(trace)
    assert st.acceptance == pytest.approx(2.0 * std_normal_cdf(-1.19), abs=0.015)
    ref = 2.0 * 2.38**2 * std_normal_cdf(-1.19)
    assert abs(st.esjd - ref) < 4.0 * st.esjd_se
    assert st.norm_mean == pytest.approx(1.0, abs=0.06)
    lo, hi = st.acceptance_band
    assert lo < st.acceptance < hi
    assert st.esjd_se > 0.0


def test_summary_stats_replicate_bands():
    traces = [_rwm_trace(d=200, l=2.38, n_steps=800, seed=60 + r) for r in range(3)]
    st = summary_stats(traces)
    singles = [summary_stats(tr).acceptance for tr in traces]
    assert st.acceptance == pytest.approx(np.mean(singles), rel=1e-12)
    assert st.acceptance_se > 0.0
    assert st.n_steps == 2400


def test_esjd_peaks_at_standard_scaling():
    vals = {}
    for l in (1.0, 1.7, 2.38, 3.0, 4.0):
        trace = _rwm_trace(d=500, l=l, n_steps=4000, seed=8800 + int(10 * l))
        vals[l] = summary_stats(trace).esjd
    assert max(vals, key=vals.get) == 2.38


def test_bound_curve_validation():
    good = dict(
        t=np.array([0.0, 1.0]),
        estimate=np.array([2.0, 1.0]),
        ci_low=np.array([1.5, 0.5]),
        ci_high=np.array([2.5, 1.5]),
        n_replicates=4,
        n_capped=0,
    )
    BoundCurve(metric="tv", **good)
    with pytest.raises(ValueError):
        BoundCurve(metric="hellinger", **good)
    bad = dict(good)
    bad["estimate"] = np.array([-0.1, 1.0])
    with pytest.raises(ValueError):
        BoundCurve(metric="tv", **bad)
    bad = dict(good)
    bad["ci_low"] = np.array([2.5, 0.5])
    with pytest.raises(ValueError):
        BoundCurve(metric="tv", **bad)
    bad = dict(good)
    bad["ci_high"] = np.array([2.5])
    with pytest.raises(ValueError):
        BoundCurve(metric="tv", **bad)


def test_bound_curve_csv_schema(tmp_path):
    from mcmccoup.experiments import make_config, run_experiment

    cfg = make_config({
        "experiment": "hug-hop-convergence", "seed": 12, "out": str(tmp_path),
        "d": 10, "lag": 50, "replicates": 3, "max_iter": 10_000,
    })
    assert run_experiment(cfg) == 0
    rundir = tmp_path / "hug-hop-convergence"
    header = "metric,t,estimate,ci_low,ci_high,n_replicates,n_capped"
    for name in ("tv_curve.csv", "w2_curve.csv"):
        assert (rundir / name).read_text().splitlines()[0] == header
    meetings = np.loadtxt(rundir / "meetings.csv", delimiter=",", skiprows=1)
    records = [
        MeetingRecord(replicate=int(r), tau=tau, lag=int(lag), capped=bool(c))
        for r, tau, lag, c in meetings
    ]
    lines = (rundir / "tv_curve.csv").read_text().strip().splitlines()
    first = lines[1].split(",")
    assert first[0] == "tv"
    assert int(first[5]) == 3 and int(first[6]) == 0
    data = np.loadtxt(rundir / "tv_curve.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3, 4))
    curve = tv_bound_curve(records, data[:, 0])
    assert np.array_equal(data[:, 1], curve.estimate)
    assert np.array_equal(data[:, 2], curve.ci_low)
    assert np.array_equal(data[:, 3], curve.ci_high)
