"""Scalar analytics: bifurcation point, Jordan data, tail exponents,
direction, slopes, rescaling table, nonexistence bound, report assembly.

All closed-form quantities are checked against hand-computed values for
the linear, quadratic, and reference models.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radbif import (BifurcationReport, Branch, BranchPoint, ConfigError,
                    ContinuationConfig, Direction, InsufficientDataError,
                    RescaleTable, bifurcation_point, build_grid,
                    build_report, continue_branch, direction_of_bifurcation,
                    jordan_data, linear_model, nonexistence_bound,
                    NonlinearityModel, quadratic_model, reference_model,
                    rescale_check, slope_fit, slope_prediction,
                    solve_limit_problem, steklov_eigenpair, theta_exponents)

# The grid and model of the synthetic branches below.
GRID16 = build_grid(3, 1.0, 16)
MODEL = reference_model()
MU0_16 = bifurcation_point(MODEL, steklov_eigenpair(GRID16).mu1)


def _point(lam, t1, t2=0.0):
    """A point with traces (t1, t2); where only the norm is read, t1 is
    the norm and t2 is 0."""
    return BranchPoint(lam, t1, t2, steklov_eigenpair(GRID16).profile, -1,
                       0.01)


def _branch(pts):
    return Branch(GRID16, MODEL, points=pts)


# ---------------------------------------------------------------- point


def test_every_mu0_goes_through_bifurcation_point(grid128):
    # f1'(0) = 0: no bifurcation from the trivial branch; every caller
    # that needs mu0 refuses the model the same way
    m = NonlinearityModel(
        f1=lambda s: s * s, f2=lambda s: s,
        df1=lambda s: 2.0 * s, df2=lambda s: 1.0,
        p1=2.0, p2=2.0, b1=1.0, b2=1.0,
        nu1=2.0, nu2=2.0, K=1e-8, r_lims=(1.0, 1.0, 0.0, 0.0))
    eig = steklov_eigenpair(grid128)
    for call in (lambda: bifurcation_point(m, eig.mu1),
                 lambda: slope_prediction(m, eig),
                 lambda: continue_branch(grid128, m),
                 lambda: build_report(grid128, m)):
        with pytest.raises(ConfigError, match="derivatives at zero"):
            call()


def test_first_eigenvalue_must_be_positive_and_finite(ref_model):
    for mu1 in (math.nan, math.inf, 0.0):
        for call in (bifurcation_point, nonexistence_bound):
            with pytest.raises(ConfigError, match="first eigenvalue must be "
                               "positive and finite"):
                call(ref_model, mu1)


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
        bifurcation_point(SimpleNamespace(f1=lambda s: s * s, df1=lambda s: 0.0,
                                          f2=lambda s: s, df2=lambda s: 1.0),
                          0.5)


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
    m = replace(quadratic_model(), r_lims=(-1.0, 1.0, -1.0, 1.0))
    s = slope_prediction(m, eig512)
    assert isinstance(s, tuple)
    lo, hi = s
    assert lo < 0.0 < hi


def test_slope_fit_exact_linear_law():
    # nu = 2 for the reference model: the quotient is (mu0 - lam)/norm
    a, b = -0.04, 0.3
    pts = [_point(MU0_16 - (a + b * n) * n, n)
           for n in np.linspace(0.01, 0.09, 9)]
    assert slope_fit(_branch(pts)) == pytest.approx(a, abs=1e-12)


def test_slope_fit_zero_when_parameter_constant():
    pts = [_point(MU0_16, n) for n in np.linspace(0.01, 0.09, 9)]
    assert slope_fit(_branch(pts)) == pytest.approx(0.0, abs=1e-14)


def test_slope_fit_needs_small_norm_points():
    pts = [_point(0.3, n) for n in (0.2, 0.5, 1.0, 2.0, 4.0)]
    with pytest.raises(InsufficientDataError):
        slope_fit(_branch(pts))


@pytest.fixture(scope="module")
def slope_branch(grid512, ref_model):
    # fine steps near the bifurcation point collect enough small-norm data
    cfg = ContinuationConfig(ds0=1e-4, ds_min=1e-8, ds_max=0.02,
                             eps_step_off=1e-4, lambda_stop_low=1e-3,
                             max_points=30)
    return continue_branch(grid512, ref_model, cfg)


def test_slope_fit_matches_prediction_on_branch(slope_branch, ref_model,
                                                eig512, mu0_ref):
    fitted = slope_fit(slope_branch)
    predicted = slope_prediction(ref_model, eig512)
    assert fitted < 0.0
    assert fitted == pytest.approx(predicted, abs=1e-3)


# ------------------------------------------------------------- rescaling


# The reference model's own tail exponents and limit on GRID16.
THETA = (0.8, 0.6)
W_STAR = solve_limit_problem(GRID16, MODEL)[0]


def _tail_branch(lams, extra=0.0):
    pts = []
    for lam in lams:
        u1 = lam ** -(THETA[0] - extra) * W_STAR.u1
        u2 = lam ** -(THETA[1] - extra) * W_STAR.u2
        pts.append(_point(lam, float(u1.max()), float(u2.max())))
    return _branch(pts)


def test_rescale_check_exact_power_tail():
    assert theta_exponents(MODEL) == pytest.approx(THETA, abs=1e-15)
    lams = np.logspace(-2, -4, 6)
    table = rescale_check(_tail_branch(lams))
    assert table.ok and table.monotone
    assert table.final_dev <= 1e-12
    assert len(table.rows) == 6
    # rows ordered by decreasing parameter, all ratios at 1
    assert all(a[0] > b[0] for a, b in zip(table.rows[:-1], table.rows[1:]))
    for _, r1, r2 in table.rows:
        assert r1 == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_rescale_check_flags_wrong_exponent():
    lams = np.logspace(-2, -4, 6)
    # states decay with exponents off by 0.1: ratios drift like lam^0.1
    table = rescale_check(_tail_branch(lams, extra=0.1))
    assert not table.ok
    assert table.final_dev > 0.02


def test_rescale_check_needs_tail_rows():
    pts = [_point(lam, float(W_STAR.u1.max()), float(W_STAR.u2.max()))
           for lam in (0.3, 0.2, 0.1)]
    with pytest.raises(InsufficientDataError):
        rescale_check(_branch(pts))


# ---------------------------------------------------------------- bound


def test_nonexistence_bound_reference(ref_model):
    # K = 3/4 so the bound is (4/3) mu1
    assert nonexistence_bound(ref_model, 0.3) == pytest.approx(0.4, rel=1e-14)
    with pytest.raises(ConfigError):
        nonexistence_bound(ref_model, 0.0)


# --------------------------------------------------------------- report


def test_build_report_without_branch(grid128, ref_model):
    rep = build_report(grid128, ref_model)
    assert isinstance(rep, BifurcationReport)
    assert rep.sigma == 1.0 and rep.zeta == 1.0
    assert rep.mu0 == pytest.approx(rep.mu1, rel=1e-14)  # sigma = 1
    assert (rep.theta1, rep.theta2) == pytest.approx((0.8, 0.6))
    assert rep.direction is Direction.RIGHT
    assert rep.r0_under == rep.r0_over == pytest.approx(-0.125)
    assert not hasattr(rep, "slope_fitted")  # slope_fit(branch) stands beside
    assert rep.K_bound == pytest.approx(4.0 * rep.mu1 / 3.0, rel=1e-14)


def test_build_report_with_branch(grid512, ref_model, ref_branch,
                                  slope_branch):
    # the report takes no branch; the fit from one stands beside it
    rep = build_report(grid512, ref_model)
    assert rep.direction is Direction.RIGHT
    fitted = slope_fit(slope_branch)
    assert fitted < 0.0
    assert fitted == pytest.approx(rep.slope_predicted, abs=1e-3)
    # ordering: bifurcation point < fold < nonexistence bound
    assert rep.mu0 < ref_branch.fold.lam_bar <= rep.K_bound + 1e-8
    with pytest.raises(TypeError):
        build_report(grid512, ref_model, branch=slope_branch)
