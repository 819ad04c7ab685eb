"""Scalar analytics: bifurcation point, Jordan data, tail exponents,
direction, slopes, rescaling table, nonexistence bound, report assembly.

All closed-form quantities are checked against hand-computed values for
the linear, quadratic, and reference models.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radbif import (BifurcationReport, Branch, BranchPoint, ConfigError,
                    ContinuationConfig, Direction, InsufficientDataError,
                    RescaleTable, SystemState, bifurcation_point, build_grid,
                    build_report, continue_branch, direction_of_bifurcation,
                    jordan_data, linear_model, nonexistence_bound,
                    polynomial_model, quadratic_model, rescale_check,
                    slope_fit, slope_prediction, theta_exponents)


def _point(lam, norm, state=None):
    if state is None:
        state = SystemState.zero(build_grid(3, 1.0, 16))
    return BranchPoint(lam=lam, state=state, norm=norm,
                       tangent_lambda_sign=-1, ds=0.01)


# ---------------------------------------------------------------- point


def test_bifurcation_point_values():
    assert bifurcation_point(linear_model(1.0, 1.0), 0.5) == 0.5
    assert bifurcation_point(linear_model(4.0, 1.0), 0.5) == 0.25
    # slopes below 1 push the point above mu1
    m = linear_model(0.75, 0.75)
    assert bifurcation_point(m, 0.3) == pytest.approx(0.4, rel=1e-14)
    # and then the point coincides with the nonexistence bound (K = 0.75)
    assert bifurcation_point(m, 0.3) == pytest.approx(
        nonexistence_bound(m, 0.3), rel=1e-14)


def test_bifurcation_point_validation(ref_model):
    with pytest.raises(ConfigError):
        bifurcation_point(ref_model, 0.0)
    with pytest.raises(ConfigError):
        bifurcation_point(SimpleNamespace(fp0_1=0.0, fp0_2=1.0), 0.5)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
def test_bifurcation_point_inverts_sigma(c1, c2):
    m = linear_model(c1, c2)
    mu0 = bifurcation_point(m, 0.3130353)
    sigma = math.sqrt(c1 * c2)
    assert mu0 * sigma == pytest.approx(0.3130353, rel=1e-12)


# --------------------------------------------------------------- jordan


def test_jordan_symmetric_case():
    jd = jordan_data(linear_model(1.0, 1.0))
    assert jd.sigma == 1.0 and jd.zeta == 1.0
    np.testing.assert_allclose(jd.P, [[0.5, 0.5], [0.5, -0.5]], atol=1e-15)
    np.testing.assert_allclose(jd.J, np.diag([1.0, -1.0]), atol=1e-15)
    assert np.abs(jd.P @ jd.J @ jd.Pinv - jd.A).max() <= 1e-14
    assert np.abs(jd.P @ jd.Pinv - np.eye(2)).max() <= 1e-14


def test_jordan_asymmetric_case():
    jd = jordan_data(linear_model(1.0, 4.0))
    assert jd.sigma == pytest.approx(2.0, rel=1e-15)
    assert jd.zeta == pytest.approx(2.0, rel=1e-15)
    np.testing.assert_allclose(np.diag(jd.J), [2.0, -2.0], atol=1e-14)
    assert np.abs(jd.P @ jd.J @ jd.Pinv - jd.A).max() <= 1e-14
    # columns of P are eigenvectors of A
    for k in range(2):
        v = jd.P[:, k]
        np.testing.assert_allclose(jd.A @ v, jd.J[k, k] * v, atol=1e-14)


# ------------------------------------------------------------ exponents


def test_theta_exponents_reference(ref_model):
    th1, th2 = theta_exponents(ref_model)
    assert th1 == pytest.approx(0.8, abs=1e-15)
    assert th2 == pytest.approx(0.6, abs=1e-15)
    # balance conditions of the rescaling
    assert abs(1.0 + th2 - th1 * ref_model.p1) <= 1e-12
    assert abs(1.0 + th1 - th2 * ref_model.p2) <= 1e-12


def test_theta_exponents_symmetric_and_degenerate():
    assert theta_exponents(quadratic_model()) == pytest.approx((1.0, 1.0))
    with pytest.raises(ConfigError):
        theta_exponents(linear_model())  # p1 = p2 = 1


# ------------------------------------------------------------ direction


def test_direction_classification(ref_model):
    assert direction_of_bifurcation(ref_model) is Direction.RIGHT
    assert direction_of_bifurcation(quadratic_model()) is Direction.LEFT
    assert direction_of_bifurcation(linear_model()) is Direction.INDETERMINATE


# --------------------------------------------------------------- slopes


def test_slope_prediction_reference(ref_model, eig512, mu0_ref):
    s = slope_prediction(ref_model, eig512)
    assert isinstance(s, float)
    # mu0/sigma * R0 * phi(R) = mu0 * (-1/8): sigma = 1, sup phi = phi(R) = 1
    assert s == pytest.approx(-mu0_ref / 8.0, rel=1e-10)
    assert s == pytest.approx(-0.0391294, abs=1e-6)


def test_slope_prediction_left_and_zero(eig512):
    s = slope_prediction(quadratic_model(), eig512)
    assert s == pytest.approx(eig512.mu1 / 2.0, rel=1e-10)
    assert slope_prediction(linear_model(), eig512) == 0.0


def test_slope_prediction_straddling_bounds(eig512):
    m = polynomial_model([0.0, 1.0, 1.0], [0.0, 1.0, 1.0],
                         p1=2.0, p2=2.0, b1=1.0, b2=1.0,
                         nu1=2.0, nu2=2.0, K=1.0,
                         r_lims=(-1.0, 1.0, -1.0, 1.0))
    s = slope_prediction(m, eig512)
    assert isinstance(s, tuple)
    lo, hi = s
    assert lo < 0.0 < hi


def test_slope_fit_exact_linear_law():
    mu0, a, b = 0.313, -0.04, 0.3
    pts = [_point(mu0 - (a + b * n) * n, n)
           for n in np.linspace(0.01, 0.09, 9)]
    fitted = slope_fit(Branch(points=pts), mu0, 2.0)
    assert fitted == pytest.approx(a, abs=1e-12)


def test_slope_fit_zero_when_parameter_constant():
    pts = [_point(0.313, n) for n in np.linspace(0.01, 0.09, 9)]
    assert slope_fit(Branch(points=pts), 0.313, 2.0) == pytest.approx(
        0.0, abs=1e-14)


def test_slope_fit_needs_small_norm_points():
    pts = [_point(0.3, n) for n in (0.2, 0.5, 1.0, 2.0, 4.0)]
    with pytest.raises(InsufficientDataError):
        slope_fit(Branch(points=pts), 0.313, 2.0)


@pytest.fixture(scope="module")
def slope_branch(grid512, ref_model):
    # fine steps near the bifurcation point collect enough small-norm data
    cfg = ContinuationConfig(ds0=1e-4, ds_min=1e-8, ds_max=0.02,
                             eps_step_off=1e-4, lambda_stop_low=1e-3,
                             max_points=30)
    return continue_branch(grid512, ref_model, cfg)


def test_slope_fit_matches_prediction_on_branch(slope_branch, ref_model,
                                                eig512, mu0_ref):
    fitted = slope_fit(slope_branch, mu0_ref, ref_model.nu)
    predicted = slope_prediction(ref_model, eig512)
    assert fitted < 0.0
    assert fitted == pytest.approx(predicted, abs=1e-3)


# ------------------------------------------------------------- rescaling


def _tail_branch(theta, w_star, lams, extra=0.0):
    pts = []
    for lam in lams:
        u1 = lam ** -(theta[0] - extra) * w_star.u1
        u2 = lam ** -(theta[1] - extra) * w_star.u2
        st_ = SystemState(u1, u2)
        pts.append(_point(lam, float(u1.max() + u2.max()), st_))
    return Branch(points=pts)


def test_rescale_check_exact_power_tail():
    g = build_grid(3, 1.0, 16)
    w_star = SystemState(1.0 + g.r ** 2, 2.0 + g.r)
    theta = (0.8, 0.6)
    lams = np.logspace(-2, -4, 6)
    table = rescale_check(_tail_branch(theta, w_star, lams), theta, w_star)
    assert table.ok and table.monotone
    assert table.final_dev <= 1e-12
    assert len(table.rows) == 6
    # rows ordered by decreasing parameter, all ratios at 1
    assert all(a[0] > b[0] for a, b in zip(table.rows[:-1], table.rows[1:]))
    for _, r1, r2 in table.rows:
        assert r1 == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_rescale_check_flags_wrong_exponent():
    g = build_grid(3, 1.0, 16)
    w_star = SystemState(1.0 + g.r ** 2, 2.0 + g.r)
    theta = (0.8, 0.6)
    lams = np.logspace(-2, -4, 6)
    # states decay with exponents off by 0.1: ratios drift like lam^0.1
    table = rescale_check(_tail_branch(theta, w_star, lams, extra=0.1),
                          theta, w_star)
    assert not table.ok
    assert table.final_dev > 0.02


def test_rescale_check_needs_tail_rows():
    g = build_grid(3, 1.0, 16)
    w_star = SystemState(1.0 + g.r ** 2, 2.0 + g.r)
    pts = [_point(lam, 1.0, w_star) for lam in (0.3, 0.2, 0.1)]
    with pytest.raises(InsufficientDataError):
        rescale_check(Branch(points=pts), (0.8, 0.6), w_star)


def test_rescale_check_rejects_trivial_limit():
    g = build_grid(3, 1.0, 16)
    w_star = SystemState(np.zeros_like(g.r), 2.0 + g.r)
    with pytest.raises(ConfigError):
        rescale_check(Branch(), (0.8, 0.6), w_star)


# ---------------------------------------------------------------- bound


def test_nonexistence_bound_reference(ref_model):
    # K = 3/4 so the bound is (4/3) mu1
    assert nonexistence_bound(ref_model, 0.3) == pytest.approx(0.4, rel=1e-14)
    with pytest.raises(ConfigError):
        nonexistence_bound(ref_model, 0.0)
    with pytest.raises(ConfigError):
        nonexistence_bound(SimpleNamespace(K=-1.0), 0.3)


# --------------------------------------------------------------- report


def test_build_report_without_branch(grid128, ref_model):
    rep = build_report(grid128, ref_model)
    assert isinstance(rep, BifurcationReport)
    assert rep.sigma == 1.0 and rep.zeta == 1.0
    assert rep.mu0 == pytest.approx(rep.mu1, rel=1e-14)  # sigma = 1
    assert (rep.theta1, rep.theta2) == pytest.approx((0.8, 0.6))
    assert rep.direction is Direction.RIGHT
    assert rep.r0_under == rep.r0_over == pytest.approx(-0.125)
    assert rep.slope_fitted is None
    assert rep.K_bound == pytest.approx(4.0 * rep.mu1 / 3.0, rel=1e-14)


def test_build_report_with_branch(grid512, ref_model, ref_branch,
                                  slope_branch):
    rep = build_report(grid512, ref_model, branch=slope_branch)
    assert rep.direction is Direction.RIGHT
    assert rep.slope_fitted is not None and rep.slope_fitted < 0.0
    assert rep.slope_fitted == pytest.approx(rep.slope_predicted, abs=1e-3)
    # ordering: bifurcation point < fold < nonexistence bound
    assert rep.mu0 < ref_branch.fold.lam_bar <= rep.K_bound + 1e-8


def test_build_report_coarse_branch_leaves_fit_unset(grid512, ref_model,
                                                     ref_branch):
    # the session branch doubles its steps too fast to collect 5 points
    # below norm 0.1; the report records that honestly instead of fitting
    rep = build_report(grid512, ref_model, branch=ref_branch)
    assert rep.slope_fitted is None
