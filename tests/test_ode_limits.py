import math

import numpy as np
import pytest
from scipy.special import ndtr

from mcmccoup.core_math import RngStream
from mcmccoup.couplings import CoupledChainState, CouplingSpec, coupled_rwm_step
from mcmccoup.ode_limits import (
    OdeState,
    accept_prob,
    drift_a,
    drift_c,
    elliptical_infinitesimal,
    g_value,
    integrate_rows,
    integrate_w,
    rho_limit,
    two_eigenvalue_ode,
)
from mcmccoup.targets import DiagonalGaussian

L_OPT = 2.38

# frozen output of a 4e6-draw correlated-normal Monte Carlo (Philox key (0, 977)):
# (x, y, rho, l) -> (estimate, standard error)
_G_MC_ORACLE = {
    (1.0, 1.0, 0.0, 2.38): (0.07354499, 8.16e-05),
    (1.0, 1.0, 0.9, 2.38): (0.18411432, 1.51e-04),
    (1.5, 0.5, -0.5, 2.38): (0.03634123, 3.40e-05),
    (0.4, 2.0, 0.3, 1.5): (0.27398433, 1.40e-04),
    (2.5, 2.5, -0.95, 1.0): (0.25083174, 9.34e-05),
    (0.05, 1.0, 0.7, 2.38): (0.05148990, 2.34e-05),
    (1.0, 1.0, -0.9999999, 2.38): (0.01731837, 8.04e-06),
}


def test_g_matches_mc_oracle():
    for (x, y, rho, l), (est, se) in _G_MC_ORACLE.items():
        got = g_value(x, y, rho, l)
        assert abs(got - est) < 4.0 * se, (x, y, rho, l, got, est)


def test_g_boundary_closed_forms():
    for l in (1.0, 2.38, 4.0):
        assert g_value(1.0, 1.0, 1.0, l) == pytest.approx(2.0 * ndtr(-l / 2), abs=1e-14)
        # antithetic pair at x = y = 1: the two exponentials split at Z = 0
        assert g_value(1.0, 1.0, -1.0, l) == pytest.approx(2.0 * ndtr(-l), abs=1e-14)
    # symmetric in (x, y)
    assert g_value(1.5, 0.5, 0.3, 2.38) == pytest.approx(
        g_value(0.5, 1.5, 0.3, 2.38), abs=1e-13
    )


def test_g_crossover_continuity():
    # the rectangle reduction is used up to |rho| = 1 - 1e-6; the jump onto the
    # closed forms there must be far below the integration accuracy
    just_below = (1.0 - 1e-6) - 1e-9
    for x, y, l in [(1.0, 1.0, 2.38), (1.0, 1.0, 1.0), (1.5, 0.5, 2.38)]:
        assert abs(g_value(x, y, just_below, l) - g_value(x, y, 1.0, l)) < 1e-3
        assert abs(g_value(x, y, -just_below, l) - g_value(x, y, -1.0, l)) < 1e-6
    # away from the diagonal the slope at rho = 1 is finite and even rho = 0.999
    # sits within 1e-3 of the closed form; on the diagonal it does not (the
    # map has a square-root cusp at rho = 1), so only the off-diagonal case is
    # asserted at that distance
    assert abs(g_value(1.5, 0.5, 0.999, 2.38) - g_value(1.5, 0.5, 1.0, 2.38)) < 1e-3


def test_g_monotone_in_rho():
    vals = [g_value(1.0, 1.0, r, L_OPT) for r in np.linspace(-1.0, 1.0, 41)]
    diffs = np.diff(vals)
    assert np.all(diffs > -1e-12)
    assert vals[-1] - vals[0] > 0.1


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_value(0.0, 1.0, 0.0, 2.38)
    with pytest.raises(ValueError):
        g_value(1.0, -1.0, 0.0, 2.38)
    with pytest.raises(ValueError):
        g_value(1.0, 1.0, 1.5, 2.38)
    with pytest.raises(ValueError):
        g_value(1.0, 1.0, float("nan"), 2.38)
    with pytest.raises(ValueError):
        g_value(1.0, 1.0, 0.0, 0.0)
    # at l = 80 every term of the aligned closed form underflows to 0: the
    # aligned branch (and so every gcrn drift) raises rather than return 0
    for rho in (1.0, 1.0 - 1e-7):
        with pytest.raises(ArithmeticError):
            g_value(1.0, 1.0, rho, 80.0)
    with pytest.raises(ArithmeticError):
        drift_c(OdeState(1.0, 1.0, 0.5), 80.0, "gcrn")
    with pytest.raises(ArithmeticError):
        integrate_rows([((1.0, 1.0, 0.0), 2.38, "crn"), ((1.0, 1.0, 0.5), 80.0, "gcrn")], 0.01)


def test_drift_a_zero_at_one_and_signs():
    for l in (0.5, 1.0, 2.38, 4.0):
        assert abs(drift_a(1.0, l)) < 1e-15
    assert drift_a(0.01, L_OPT) > 0
    assert drift_a(0.5, L_OPT) > 0
    assert drift_a(2.0, L_OPT) < 0
    assert drift_a(10.0, L_OPT) < 0


def test_drift_a_boundary_and_stability():
    for l in (1.0, 2.38):
        assert drift_a(0.0, l) == pytest.approx(math.exp(-0.5 * l * l), abs=1e-15)
        assert drift_a(1e-12, l) == pytest.approx(drift_a(0.0, l), abs=1e-6)
        for x in np.logspace(-6, 1, 60):
            a = drift_a(float(x), l)
            assert math.isfinite(a)
            assert abs(a) < 2.0 * x + 1.0
    with pytest.raises(ValueError):
        drift_a(-1e-9, 2.38)
    with pytest.raises(ValueError):
        drift_a(1.0, -1.0)


def test_accept_prob_values():
    assert accept_prob(1.0, L_OPT) == pytest.approx(2.0 * ndtr(-L_OPT / 2), abs=1e-15)
    # at the mode every proposal costs exactly l^2/2, continuously matching x -> 0
    assert accept_prob(0.0, L_OPT) == pytest.approx(math.exp(-0.5 * L_OPT**2), abs=1e-15)
    assert accept_prob(1e-10, L_OPT) == pytest.approx(accept_prob(0.0, L_OPT), abs=1e-6)
    # moves from inside the bulk tend outward and get rejected more often, so
    # the acceptance probability increases with the scaled squared norm
    assert accept_prob(0.5, L_OPT) < accept_prob(1.0, L_OPT) < accept_prob(2.0, L_OPT)


def test_rho_limit_conventions():
    assert rho_limit("crn", OdeState(1.0, 1.0, 0.0)) == 0.0
    assert rho_limit("crn", OdeState(1.0, 1.0, 0.9)) == pytest.approx(0.9, abs=1e-15)
    assert rho_limit("gcrn", OdeState(0.3, 2.0, -0.1)) == 1.0
    # reflection is identically 1 on the diagonal x = y, any admissible v
    assert rho_limit("reflection", OdeState(1.0, 1.0, 0.3)) == 1.0
    assert rho_limit("reflection", OdeState(1.0, 1.0, -0.7)) == 1.0
    # and at the degenerate point x = y = v both couplings see equal chains
    assert rho_limit("reflection", OdeState(1.0, 1.0, 1.0)) == 1.0
    # off the diagonal, hand evaluation of (2xy - (x+y)v)/(sqrt(xy)(x+y-2v))
    got = rho_limit("reflection", OdeState(1.5, 0.5, 0.0))
    assert got == pytest.approx(2 * 0.75 / (math.sqrt(0.75) * 2.0), abs=1e-15)
    assert rho_limit("crn", OdeState(0.0, 1.0, 0.0)) == 1.0
    with pytest.raises(ValueError):
        rho_limit("two-scale", OdeState(1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        rho_limit("crn", OdeState(-1.0, 1.0, 0.0))


def test_drift_c_assembly():
    st = OdeState(1.2, 0.8, 0.4)
    for kind in ("crn", "reflection", "gcrn"):
        c = drift_c(st, L_OPT, kind)
        assert c[0] == pytest.approx(L_OPT**2 * drift_a(st.x, L_OPT), abs=1e-14)
        assert c[1] == pytest.approx(L_OPT**2 * drift_a(st.y, L_OPT), abs=1e-14)
    # at x = y = 1 the v-drift closes over g and the stationary acceptance
    phi = float(ndtr(-L_OPT / 2))
    for v in (0.0, 0.4, 0.9):
        c = drift_c(OdeState(1.0, 1.0, v), L_OPT, "crn")
        expect = L_OPT**2 * (g_value(1.0, 1.0, v, L_OPT) - 2.0 * v * phi)
        assert c[2] == pytest.approx(expect, abs=1e-14)
        # gcrn pins rho = 1 and the optimal coupling agrees there
        cg = drift_c(OdeState(1.0, 1.0, v), L_OPT, "gcrn")
        co = drift_c(OdeState(1.0, 1.0, v), L_OPT, "optimal")
        assert cg[2] == pytest.approx(co[2], abs=1e-14)
        assert cg[2] == pytest.approx(L_OPT**2 * 2.0 * phi * (1.0 - v), abs=1e-13)
    with pytest.raises(ValueError):
        drift_c(st, L_OPT, "maximal")


def test_integrate_constant_solution():
    for kind in ("crn", "gcrn", "reflection", "optimal"):
        # the stationary coalesced pair is a rest point of every drift
        assert np.abs(drift_c(OdeState(1.0, 1.0, 1.0), L_OPT, kind)).max() < 1e-14
        traj = integrate_w(OdeState(1.0, 1.0, 1.0), L_OPT, kind, 1.5)
        assert np.max(np.abs(traj.x - 1.0)) == 0.0
        assert np.max(np.abs(traj.v - 1.0)) == 0.0
        assert np.max(np.abs(traj.s)) == 0.0


def test_gcrn_decay_is_exactly_exponential():
    # at x = y = 1 the squared-distance equation closes:
    # ds/dt = -2 l^2 Phi(-l/2) s, so the trajectory is a pure exponential
    traj = integrate_w(OdeState(1.0, 1.0, 0.9), L_OPT, "gcrn", 1.0)
    rate = 2.0 * L_OPT**2 * float(ndtr(-L_OPT / 2))
    predicted = 0.2 * np.exp(-rate * traj.t)
    assert np.max(np.abs(traj.s - predicted)) < 1e-12
    # from independent starts v rises to 1 monotonically
    tr2 = integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "gcrn", 4.0)
    assert np.all(np.diff(tr2.v) > -1e-14)
    assert tr2.v[-1] > 0.99


def test_crn_plateau_value():
    traj = integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "crn", 25.0)
    assert np.all(np.diff(traj.s[1:]) <= 1e-14)
    # derived plateau: root of g(1,1,v) = 2 v Phi(-l/2), locked tight; the
    # two-decimal reference value 0.92 holds at its own precision
    assert traj.s[-1] == pytest.approx(0.923181401969, abs=1e-5)
    assert abs(traj.s[-1] - 0.92) < 5e-3


def test_sd_form_matches_w_form():
    for kind in ("crn", "gcrn"):
        tw = integrate_w(OdeState(1.5, 0.5, 0.0), L_OPT, kind, 2.0)
        ts = integrate_w(OdeState(1.5, 0.5, 0.0), L_OPT, kind, 2.0, form="sd")
        assert np.max(np.abs(tw.x - ts.x)) < 1e-9
        assert np.max(np.abs(tw.y - ts.y)) < 1e-9
        assert np.max(np.abs(tw.v - ts.v)) < 1e-9
        assert np.max(np.abs(tw.s - ts.s)) < 1e-9


def test_dt_halving_check_passes():
    traj = integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "reflection", 2.0, check_dt=True)
    assert traj.s[-1] < 0.2  # reflection contracts from independent starts


def test_integrate_validation_errors():
    with pytest.raises(ValueError):
        integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "crn", 1.0, dt=0.0)
    with pytest.raises(ValueError):
        integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "crn", 1.0, form="vw")
    with pytest.raises(ValueError):
        integrate_w(OdeState(1.0, 1.0, 1.5), L_OPT, "crn", 1.0)
    with pytest.raises(ValueError):
        integrate_w(OdeState(-0.1, 1.0, 0.0), L_OPT, "crn", 1.0)


_START_CASES = ((1.0, 1.0, 0.0), (1.0, 1.0, 0.9), (1.5, 0.5, 0.0), (0.4, 0.01, -0.5))


def test_integrate_rows_equals_batches_of_one():
    # a mixed batch: every kind, start and step parameter; each row's
    # trajectory must equal integrate_w on that row alone, bit for bit
    rows = [
        ((x0, y0, rho0 * math.sqrt(x0 * y0)), l, kind)
        for x0, y0, rho0 in _START_CASES
        for l in (L_OPT, math.sqrt(2.0))
        for kind in ("crn", "reflection", "gcrn", "optimal")
    ]
    batch = integrate_rows(rows, 1.0, dt=0.01)
    assert len(batch) == len(rows)
    for (w0, l, kind), traj in zip(rows, batch):
        alone = integrate_w(w0, l, kind, 1.0, dt=0.01)
        for got, want in zip(traj, alone):
            assert np.array_equal(got, want), (w0, l, kind)
    sd_rows = rows[::3]
    for (w0, l, kind), traj in zip(sd_rows, integrate_rows(sd_rows, 1.0, dt=0.01, form="sd")):
        alone = integrate_w(w0, l, kind, 1.0, dt=0.01, form="sd")
        for got, want in zip(traj, alone):
            assert np.array_equal(got, want), (w0, l, kind, "sd")
    assert integrate_rows([], 1.0) == []


def test_integrate_rows_errors_name_the_row():
    good = ((1.0, 1.0, 0.0), L_OPT, "crn")
    # a step far too coarse throws this row out of S
    with pytest.raises(RuntimeError, match=r"left S.*row 1: w0=\(5\.0, 0\.2, 0\.99\), l=2\.38, kind=gcrn"):
        integrate_rows([good, ((5.0, 0.2, 0.99), L_OPT, "gcrn"), good], 6.0, dt=2.0)
    # g needs x, y > 0; only the optimal bound is defined on the boundary
    with pytest.raises(ValueError, match=r"row 2: w0=\(0\.0, 1\.0, 0\.0\), l=2\.38, kind=reflection"):
        integrate_rows([good, good, ((0.0, 1.0, 0.0), L_OPT, "reflection")], 0.1, dt=0.01)
    (opt,) = integrate_rows([((0.0, 1.0, 0.0), L_OPT, "optimal")], 0.1, dt=0.01)
    assert opt.x[-1] > 0.0
    with pytest.raises(ValueError, match="row 1"):
        integrate_rows([good, ((1.0, 1.0, 1.5), L_OPT, "crn")], 1.0)
    with pytest.raises(ValueError, match="l must be positive"):
        integrate_rows([good, ((1.0, 1.0, 0.0), 0.0, "crn")], 1.0)
    with pytest.raises(ValueError, match="unknown drift kind"):
        integrate_rows([good, ((1.0, 1.0, 0.0), L_OPT, "maximal")], 1.0)


def _coupled_increments(kind, z, z1, x_vec, y_vec):
    if kind == "crn":
        return z, z
    if kind == "reflection":
        e = x_vec - y_vec
        e = e / np.linalg.norm(e)
        return z, z - 2.0 * np.outer(z @ e, e)
    n_x = -x_vec / np.linalg.norm(x_vec)
    n_y = -y_vec / np.linalg.norm(y_vec)
    z_x = z - np.outer(z @ n_x, n_x) + np.outer(z1, n_x)
    z_y = z - np.outer(z @ n_y, n_y) + np.outer(z1, n_y)
    return z_x, z_y


@pytest.mark.parametrize(
    "kind,state",
    [
        ("crn", OdeState(1.2, 0.8, 0.3)),
        ("crn", OdeState(1.0, 1.0, -0.4)),
        ("reflection", OdeState(1.3, 0.7, 0.2)),
        ("reflection", OdeState(1.0, 1.0, 0.5)),
        ("gcrn", OdeState(0.9, 1.1, -0.2)),
        ("gcrn", OdeState(1.0, 1.0, 0.0)),
    ],
)
def test_drift_matches_coupled_proposal_mc(kind, state):
    # one coupled proposal from a deterministic configuration with the given
    # summary; d * E[change of (x, y, v)] must agree with the limit drift
    d = 3000
    reps = 80_000
    l = L_OPT
    h = l / math.sqrt(d)
    x_hat = np.full(d, 1.0 / math.sqrt(d))
    w = np.zeros(d)
    w[0], w[1] = 1.0, -1.0
    w -= np.dot(w, x_hat) * x_hat
    w /= np.linalg.norm(w)
    rho_v = state.v / math.sqrt(state.x * state.y)
    x_vec = math.sqrt(state.x * d) * x_hat
    y_vec = math.sqrt(state.y * d) * (rho_v * x_hat + math.sqrt(1 - rho_v**2) * w)

    rng = RngStream(2024, 55).generator
    sums = np.zeros(3)
    sq = np.zeros(3)
    done = 0
    while done < reps:
        n = min(3000, reps - done)
        z = rng.standard_normal((n, d))
        z1 = rng.standard_normal(n)
        u = rng.uniform(size=n)
        z_x, z_y = _coupled_increments(kind, z, z1, x_vec, y_vec)
        zx_sq = np.einsum("ij,ij->i", z_x, z_x)
        zy_sq = np.einsum("ij,ij->i", z_y, z_y)
        acc_x = np.log(u) <= -h * (z_x @ x_vec) - 0.5 * h * h * zx_sq
        acc_y = np.log(u) <= -h * (z_y @ y_vec) - 0.5 * h * h * zy_sq
        dx = (2.0 * h * (z_x @ x_vec) + h * h * zx_sq) * acc_x
        dy = (2.0 * h * (z_y @ y_vec) + h * h * zy_sq) * acc_y
        dv = (
            h * (z_x @ y_vec) * acc_x
            + h * (z_y @ x_vec) * acc_y
            + h * h * np.einsum("ij,ij->i", z_x, z_y) * (acc_x & acc_y)
        )
        for i, arr in enumerate((dx, dy, dv)):
            sums[i] += arr.sum()
            sq[i] += (arr * arr).sum()
        done += n

    mean = sums / reps
    se = np.sqrt((sq / reps - mean**2) / reps)
    c = drift_c(state, l, kind)
    for i in range(3):
        # 0.006 absolute slack absorbs the O(d^{-1/2}) finite-d remainder
        assert abs(mean[i] - c[i]) < 3.5 * se[i] + 0.006, (i, mean[i], c[i], se[i])


def test_squared_fluctuations_bounded():
    # d^2 E||Delta W||^2 stays of order one as d grows
    l = L_OPT
    out = []
    for d in (1000, 2000, 4000):
        h = l / math.sqrt(d)
        rng = RngStream(77, d).generator
        x_vec = rng.standard_normal(d)
        x_vec *= math.sqrt(d) / np.linalg.norm(x_vec)
        y_vec = rng.standard_normal(d)
        y_vec *= math.sqrt(d) / np.linalg.norm(y_vec)
        z = rng.standard_normal((3000, d))
        u = rng.uniform(size=3000)
        zz = np.einsum("ij,ij->i", z, z)
        acc_x = np.log(u) <= -h * (z @ x_vec) - 0.5 * h * h * zz
        acc_y = np.log(u) <= -h * (z @ y_vec) - 0.5 * h * h * zz
        dx = (2.0 * h * (z @ x_vec) + h * h * zz) * acc_x
        dy = (2.0 * h * (z @ y_vec) + h * h * zz) * acc_y
        dv = h * (z @ y_vec) * acc_x + h * (z @ x_vec) * acc_y + h * h * zz * (acc_x & acc_y)
        out.append(float(np.mean(dx * dx + dy * dy + dv * dv)))
    for a, b in zip(out, out[1:]):
        assert math.isfinite(b)
        assert 0.5 < b / a < 2.0


def test_elliptical_infinitesimal_reduces_to_spherical():
    x, y, v, rho = 1.3, 0.7, 0.25, 0.4
    a_x, a_y, b_v = elliptical_infinitesimal(1, (x, y, v, x, y, rho), L_OPT)
    assert a_x == pytest.approx(drift_a(x, L_OPT), abs=1e-14)
    assert a_y == pytest.approx(drift_a(y, L_OPT), abs=1e-14)
    c = drift_c(OdeState(x, y, v), L_OPT, "crn")
    rho_crn = rho_limit("crn", OdeState(x, y, v))
    a_x2, a_y2, b_v2 = elliptical_infinitesimal(1, (x, y, v, x, y, rho_crn), L_OPT)
    assert L_OPT**2 * b_v2 == pytest.approx(c[2], abs=1e-13)
    with pytest.raises(ValueError):
        elliptical_infinitesimal(1, (x, y, v, 0.0, y, rho), L_OPT)


def test_elliptical_infinitesimal_k_dependence_is_affine():
    # the index k enters only through the passed coordinates: the a-part is
    # affine in x_k with slope -2 q1(x1)
    x1, y1, rho, l1 = 1.1, 0.9, 0.3, 1.7
    a0 = elliptical_infinitesimal(0, (0.0, 0.0, 0.0, x1, y1, rho), l1)[0]
    a1 = elliptical_infinitesimal(7, (1.0, 0.0, 0.0, x1, y1, rho), l1)[0]
    a2 = elliptical_infinitesimal(-3, (2.0, 0.0, 0.0, x1, y1, rho), l1)[0]
    assert a2 - a1 == pytest.approx(a1 - a0, abs=1e-14)
    b0 = elliptical_infinitesimal(0, (0.0, 0.0, 0.0, x1, y1, rho), l1)[2]
    b1 = elliptical_infinitesimal(0, (0.0, 0.0, 1.0, x1, y1, rho), l1)[2]
    b2 = elliptical_infinitesimal(0, (0.0, 0.0, 2.0, x1, y1, rho), l1)[2]
    assert b2 - b1 == pytest.approx(b1 - b0, abs=1e-14)


def test_two_eigenvalue_spherical_dispatch():
    td = two_eigenvalue_ode(1.0, (1, 1, 0, 1, 1, 0), L_OPT, "crn", 1.0)
    tw = integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "crn", 1.0)
    assert np.array_equal(td.x_a, tw.x)
    assert np.array_equal(td.x_b, tw.x)
    assert np.array_equal(td.s, tw.s)
    with pytest.raises(ValueError):
        two_eigenvalue_ode(4.0, (1, 1, 0), L_OPT, "crn", 1.0)
    with pytest.raises(ValueError):
        two_eigenvalue_ode(4.0, (1, 1, 0, 1, 1, 0), L_OPT, "two-scale", 1.0)
    # at sigma^2 = 1 the two blocks are an arbitrary split of a spherical
    # target, so from unequal block starts their averages follow integrate_w
    w0 = np.array([1.5, 0.6, 0.2, 0.7, 1.2, 0.1])
    for kind in ("crn", "reflection", "gcrn"):
        td = two_eigenvalue_ode(1.0, w0, L_OPT, kind, 1.0)
        tw = integrate_w(OdeState(*(0.5 * (w0[:3] + w0[3:]))), L_OPT, kind, 1.0)
        assert np.max(np.abs(td.x_a - td.x_b)) > 0.1
        for a, b, ref in ((td.x_a, td.x_b, tw.x), (td.y_a, td.y_b, tw.y), (td.v_a, td.v_b, tw.v)):
            assert np.max(np.abs(0.5 * (a + b) - ref)) < 1e-14, kind
        assert np.max(np.abs(td.s - tw.s)) < 1e-14, kind


def test_two_eigenvalue_weighted_coordinates_follow_elliptical_infinitesimal():
    # along a path, central differences of the lambda^{-k}-weighted block
    # averages x_{k-1} (and y, v) at k = 0, 1 equal
    # l^2 (z_k^2 / z_{k-1}^2) elliptical_infinitesimal(k, ...)
    dt = 1e-3
    for sigma2 in (0.2, 4.0, 24.0):
        lam = np.array([1.0, sigma2])
        z2 = {k: float(np.mean(lam ** -k)) for k in (-1, 0, 1)}
        eps = z2[1] * z2[-1]
        l1 = L_OPT * math.sqrt(z2[1])
        for kind in ("crn", "reflection", "gcrn"):
            tr = two_eigenvalue_ode(sigma2, (1.5, 0.6, 0.2, 0.7, 1.2, 0.1), L_OPT, kind, 0.5, dt=dt)
            blocks = np.array([[tr.x_a, tr.y_a, tr.v_a], [tr.x_b, tr.y_b, tr.v_b]])
            w = {k: np.tensordot(lam ** -k / np.sum(lam ** -k), blocks, axes=1) for k in (-1, 0, 1)}
            for i in range(1, len(tr.t) - 1, 25):
                x1, y1 = w[1][0, i], w[1][1, i]
                rho = rho_limit(kind, w[1][:, i], w[0][:, i], w[-1][:, i], eps)
                for k in (0, 1):
                    fd = (w[k - 1][:, i + 1] - w[k - 1][:, i - 1]) / (2.0 * dt)
                    raw = elliptical_infinitesimal(k, (*w[k][:, i], x1, y1, rho), l1)
                    expect = L_OPT**2 * (z2[k] / z2[k - 1]) * np.array(raw)
                    assert np.max(np.abs(fd - expect)) < 1e-5, (sigma2, kind, i, k)


# block-symmetric equilibrium of the sigma^2 = 24 reflection system: the root
# of g(1,1,rho;l1) = 2 v(rho) Phi(-l1/2) with rho = v + (1-v)/eps,
# eps = (1+24)(1+1/24)/4 = 625/96 and l1 = 2.38 sqrt((1+1/24)/2)
_V_STAR_24 = 0.7972418423456376


def test_two_eigenvalue_reflection_fixed_point():
    eps = 625.0 / 96.0
    l1 = L_OPT * math.sqrt(0.5 * (1 + 1 / 24.0))
    rho_star = _V_STAR_24 + (1.0 - _V_STAR_24) / eps
    residual = g_value(1.0, 1.0, rho_star, l1) - 2.0 * _V_STAR_24 * float(ndtr(-l1 / 2))
    assert abs(residual) < 1e-9
    # the block-symmetric state at v* is an equilibrium of the full system
    w_star = (1, 1, _V_STAR_24, 1, 1, _V_STAR_24)
    tr = two_eigenvalue_ode(24.0, w_star, L_OPT, "reflection", 2.0, dt=2e-3)
    dev = max(
        np.max(np.abs(tr.x_a - 1)), np.max(np.abs(tr.x_b - 1)),
        np.max(np.abs(tr.v_a - _V_STAR_24)), np.max(np.abs(tr.v_b - _V_STAR_24)),
    )
    assert dev < 1e-9
    assert tr.s[0] == pytest.approx(2.0 * (1.0 - _V_STAR_24), abs=1e-12)
    # and nearby states flow into it
    td = two_eigenvalue_ode(24.0, (1, 1, 0.6, 1, 1, 0.6), L_OPT, "reflection", 40.0, dt=4e-3)
    assert np.all(np.diff(td.s) <= 1e-12)
    assert abs(td.s[-1] - 2.0 * (1.0 - _V_STAR_24)) < 2e-2


def test_two_eigenvalue_gcrn_contracts():
    tg = two_eigenvalue_ode(4.0, (1, 1, 0, 1, 1, 0), L_OPT, "gcrn", 6.0, dt=2e-3)
    assert np.all(np.diff(tg.s) <= 1e-12)
    assert tg.s[-1] < 0.1
    assert tg.s[0] == pytest.approx(2.0, abs=1e-12)


def test_two_eigenvalue_matches_coupled_chain():
    # d = 1000 coupled chains on diag(1,4,1,4,...), gcrn; the scaled squared
    # distance trace should track the six-coordinate solution on t/d in [0, 2]
    d = 1000
    sigma2 = 4.0
    variances = np.tile([1.0, sigma2], d // 2)
    target = DiagonalGaussian(variances)
    h = L_OPT / math.sqrt(d)
    z_m1_sq = 0.5 * (1 + sigma2)
    n_steps = 2000
    n_reps = 4
    traces = np.zeros((n_reps, n_steps + 1))
    for r in range(n_reps):
        rng = RngStream(4242, r)
        gen = rng.generator
        x0 = gen.standard_normal(d) * np.sqrt(variances)
        y0 = gen.standard_normal(d) * np.sqrt(variances)
        state = CoupledChainState(x=x0, y=y0)
        spec = CouplingSpec("gcrn")
        traces[r, 0] = np.sum((state.x - state.y) ** 2) / (z_m1_sq * d)
        for t in range(n_steps):
            state = coupled_rwm_step(state, spec, h, target, rng)
            traces[r, t + 1] = np.sum((state.x - state.y) ** 2) / (z_m1_sq * d)
    mean_trace = traces.mean(axis=0)
    ode = two_eigenvalue_ode(sigma2, (1, 1, 0, 1, 1, 0), L_OPT, "gcrn", 2.0, dt=1e-3)
    assert ode.s.shape == mean_trace.shape
    assert np.max(np.abs(mean_trace - ode.s)) < 0.1


def test_trajectory_csv_round_trips(tmp_path):
    from mcmccoup.experiments import make_config, run_experiment

    cfg = make_config({
        "experiment": "ode-spherical", "seed": 3, "out": str(tmp_path),
        "t_end": 0.05, "l_grid": [L_OPT], "couplings": "gcrn",
        "starts": "1,1,0",
    })
    assert run_experiment(cfg) == 0
    traj = integrate_w(OdeState(1.0, 1.0, 0.0), L_OPT, "gcrn", 0.05)
    path = tmp_path / "ode-spherical" / "traj_s0_l2p38_gcrn.csv"
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,x,y,v,s"
    assert len(rows) == len(traj.t) + 1
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    for j, column in enumerate(traj):
        assert np.array_equal(back[:, j], column)
