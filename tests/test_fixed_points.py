import math

import numpy as np
import pytest
from scipy.special import ndtr

from mcmccoup.core_math import bvn_low
from mcmccoup.fixed_points import (
    FixedPointResult,
    h_rho,
    solve_fixed_point,
    sweep_asymptotes,
)
from mcmccoup.ode_limits import g_value

L_OPT = 2.38

# frozen 4e6-draw Monte Carlo values for h(rho; 2.38) (same generator setup as
# the g oracle in test_ode_limits; h(rho) is g at x = y = 1)
_H_MC = {0.0: (0.07354499, 8.16e-05), 0.9: (0.18411432, 1.51e-04)}


def test_h_rho_closed_forms_and_oracle():
    for l in (1.0, 2.38, 4.0):
        assert h_rho(1.0, l) == pytest.approx(2.0 * ndtr(-0.5 * l), abs=1e-14)
        expect0 = float(ndtr(-0.5 * l)) ** 2 + 2.0 * bvn_low(
            -0.5 * l, -l / math.sqrt(2), 1 / math.sqrt(2)
        )
        assert h_rho(0.0, l) == pytest.approx(expect0, abs=1e-14)
    for rho, (est, se) in _H_MC.items():
        assert abs(h_rho(rho, L_OPT) - est) < 4.0 * se
    # same function as the limit drift's joint acceptance term on the diagonal
    for rho in (-0.7, 0.0, 0.3, 0.42, 0.709, 0.95):
        assert h_rho(rho, L_OPT) == pytest.approx(g_value(1, 1, rho, L_OPT), abs=1e-12)


def test_h_rho_monotone_and_domain():
    # the last points lie inside the band where g_value takes its aligned
    # closed form (rho >= 1 - 1e-6); h keeps rising through it to h(1), so
    # the fixed-point bracket up to 1 - 1e-9 sees the sqrt(1 - rho) cusp
    rhos = list(np.linspace(-1, 1, 33)[:-1]) + [1 - 1e-7, 1 - 1e-9, 1 - 1e-12, 1.0]
    vals = [h_rho(r, L_OPT) for r in rhos]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        h_rho(1.5, 2.38)
    with pytest.raises(ValueError):
        h_rho(0.0, 0.0)
    with pytest.raises(ValueError):
        h_rho(float("nan"), 2.38)


def test_crn_fixed_point_value():
    res = solve_fixed_point("crn", L_OPT)
    assert res.v_star == pytest.approx(0.538409299015, abs=1e-9)
    assert res.s_inf == 2.0 * (1.0 - res.v_star)
    assert res.stability == "stable"
    # two-decimal reference value; the derived constant is pinned far tighter
    assert abs(res.s_inf - 0.92) < 5e-3
    assert res.s_inf == pytest.approx(0.923181401969, abs=1e-9)
    # root residual
    assert abs(h_rho(res.v_star, L_OPT) - 2 * res.v_star * ndtr(-L_OPT / 2)) < 1e-12
    # epsilon plays no role for crn
    assert solve_fixed_point("crn", L_OPT, 10.0).v_star == res.v_star


def test_gcrn_fixed_point():
    for l in (0.3, 2.38, 7.0):
        for eps in (1.0, 4.0):
            res = solve_fixed_point("gcrn", l, eps)
            assert res.v_star == 1.0
            assert res.s_inf == 0.0
            assert res.stability == "stable"


def test_reflection_eps_curve():
    assert solve_fixed_point("reflection", L_OPT, 1.0).v_star == 1.0
    v_crn = solve_fixed_point("crn", L_OPT).v_star
    prev = 1.0
    for eps in (1.2, 5 / 3, 3.0, 6.51, 20.0, 1000.0):
        v = solve_fixed_point("reflection", L_OPT, eps).v_star
        assert v_crn < v < prev
        prev = v
    # degrades to crn as the ellipticity blows up
    assert solve_fixed_point("reflection", L_OPT, 1e6).v_star == pytest.approx(
        v_crn, abs=1e-5
    )


def test_reflection_reference_values():
    # anchors used by the elliptical asymptote comparisons
    assert solve_fixed_point("reflection", L_OPT, 5 / 3).v_star == pytest.approx(
        0.818980757, abs=1e-8
    )
    assert solve_fixed_point("reflection", L_OPT, 3.0).v_star == pytest.approx(
        0.696199553, abs=1e-8
    )
    l1 = L_OPT * math.sqrt(0.5 * (1 + 1 / 24))
    assert solve_fixed_point("reflection", l1, 625 / 96).v_star == pytest.approx(
        0.7972418423456376, abs=1e-12
    )


def test_residuals_across_grid():
    for l in (0.5, 1.0, 2.38, 4.0, 5.0):
        res = solve_fixed_point("crn", l)
        assert abs(h_rho(res.v_star, l) - 2 * res.v_star * ndtr(-0.5 * l)) < 1e-12
        for eps in (1.5, 3.0, 4.0, 10.0):
            ref = solve_fixed_point("reflection", l, eps)
            rho = ref.v_star + (1 - ref.v_star) / eps
            resid = h_rho(rho, l) - h_rho(1.0, l) * ref.v_star
            assert abs(resid) < 1e-12


def test_lhs_derivative_diverges_near_one():
    # numerical certificate that d/dv [h(v) - 2 v Phi(-l/2)] -> +inf as v -> 1
    phi = float(ndtr(-L_OPT / 2))
    slopes = []
    for k in range(2, 7):
        v = 1.0 - 10.0**-k
        dv = 10.0**-k / 100.0
        f_hi = h_rho(v + dv, L_OPT) - 2 * (v + dv) * phi
        f_lo = h_rho(v - dv, L_OPT) - 2 * (v - dv) * phi
        slopes.append((f_hi - f_lo) / (2 * dv))
    assert all(s > 0 for s in slopes)
    assert all(b > 2 * a for a, b in zip(slopes, slopes[1:]))


def test_extreme_step_sizes_saturate():
    small = solve_fixed_point("crn", 0.01)
    assert small.v_star > 0.9999
    big = solve_fixed_point("crn", 50.0)
    assert big.v_star < 1e-6
    assert big.s_inf > 1.99
    assert big.stability == "stable"


def test_validation_and_error_paths():
    with pytest.raises(ValueError):
        solve_fixed_point("two-scale", 2.38)
    with pytest.raises(ValueError):
        solve_fixed_point("crn", -1.0)
    with pytest.raises(ValueError):
        solve_fixed_point("reflection", 2.38, 0.5)
    with pytest.raises(RuntimeError):
        solve_fixed_point("reflection", 2.38, 1.0 + 1e-12)
    with pytest.raises(ValueError):
        FixedPointResult(0.0, 2.0, "stable", "crn", 2.38, 1.0)
    with pytest.raises(ValueError):
        FixedPointResult(0.5, 0.7, "stable", "crn", 2.38, 1.0)


def test_sweep_shapes_and_monotonicity():
    l_grid = [0.01, 0.5, 1.0, 2.38, 5.0, 50.0]
    rows = sweep_asymptotes("crn", l_grid)
    assert [row.l for row in rows] == l_grid
    vs = [row.v_star for row in rows]
    assert all(b < a for a, b in zip(vs, vs[1:]))
    assert vs[0] > 0.999 and vs[-1] < 1e-6
    esjds = [row.esjd for row in rows]
    assert l_grid[int(np.argmax(esjds))] == 2.38
    assert esjds[3] == pytest.approx(2 * 2.38**2 * ndtr(-1.19), abs=1e-15)

    # crn rows do not depend on epsilon
    two_eps = sweep_asymptotes("crn", [1.0, 2.38], [1.0, 8.0])
    assert two_eps[0].v_star == two_eps[2].v_star
    assert two_eps[1].v_star == two_eps[3].v_star

    # reflection at eps = 1 equals gcrn for every l
    refl = sweep_asymptotes("reflection", [0.5, 2.38, 5.0], [1.0])
    assert all(row.v_star == 1.0 for row in refl)

    with pytest.raises(ValueError):
        sweep_asymptotes("crn", [])


def test_sweep_csv(tmp_path):
    from mcmccoup.experiments import make_config, run_experiment

    cfg = make_config({
        "experiment": "asymptote-elliptical", "seed": 1, "out": str(tmp_path),
        "couplings": "reflection", "l_grid": "1.0,2.38", "eps_grid": "2.0",
    })
    assert run_experiment(cfg) == 0
    rows = sweep_asymptotes("reflection", [1.0, 2.38], [2.0])
    lines = (tmp_path / "asymptote-elliptical" / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "l,epsilon,kind,v_star,s_inf,esjd"
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert cells[2] == "reflection"
    assert float(cells[3]) == rows[1].v_star
    assert float(cells[4]) == rows[1].s_inf
    assert float(cells[5]) == rows[1].esjd
