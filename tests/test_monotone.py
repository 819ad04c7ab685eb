"""Subsolution construction, increasing iteration, and the two-solution
driver.

The canonical run at lam = 0.3231227939747531 (between the bifurcation
value and the fold) must reproduce the lower branch crossing: the
iteration from a small kernel-direction subsolution converges to the
minimal solution, which solutions_at reaches independently as the lower
root of the scalar trace equation.  second_solution takes that root and
the branch solution from solutions_at; the iteration stays the
independent reference.
"""

import math

import numpy as np
import pytest

from radbif import monotone

from radbif import (CheckResult, ConfigError, DistinctnessError,
                    MonotonicityViolationError, NonConvergenceError,
                    NonlinearityModel,
                    SubsolutionError, SystemState, bifurcation_point,
                    boundary_flux, build_grid, build_subsolution,
                    continue_branch, jacobian, linear_bvp_solve,
                    linear_model, monotone_iterate, pair_norm,
                    quadratic_model,
                    residual, scaled_residual_norm,
                    second_solution, solutions_at, solve_flux_bvp,
                    steklov_eigenpair, Branch, FoldInfo)

LAMBDA_MID = 0.3231227939747531


def _flux_gap(grid, model, lam, state):
    g1 = lam * model.f1(float(state.u2[-1])) - boundary_flux(grid, state.u1)
    g2 = lam * model.f2(float(state.u1[-1])) - boundary_flux(grid, state.u2)
    return min(g1, g2)


def _logistic():
    """f1 = f2 = s - s^2, decreasing beyond s = 1/2, with its constants set
    by hand: polynomial_model refuses the negative leading coefficient."""
    return NonlinearityModel(
        f1=lambda s: s - s * s, f2=lambda s: s - s * s,
        df1=lambda s: 1.0 - 2.0 * s, df2=lambda s: 1.0 - 2.0 * s,
        p1=2.0, p2=2.0, b1=1.0, b2=1.0,
        nu1=2.0, nu2=2.0, K=0.5)


def test_subsolution_accepted_at_initial_amplitude(grid512, ref_model,
                                                   mu0_ref):
    # f1'(0) = f2'(0) = 1: both components start at amplitude 1e-2
    lam = 1.1 * mu0_ref
    sub = build_subsolution(grid512, ref_model, lam)
    assert sub.u1.min() > 0.0 and sub.u2.min() > 0.0
    assert sub.u1.max() == sub.u2.max() == 1e-2  # no halving
    assert _flux_gap(grid512, ref_model, lam, sub) >= 0.0


def test_subsolution_start_amplitude_follows_the_larger_slope(grid512,
                                                              mu_h512):
    # f1'(0) = 1, f2'(0) = 4: eps = 1e-2/2, components (eps, 2 eps) phi1
    model = linear_model(1.0, 4.0)
    sub = build_subsolution(grid512, model,
                            1.1 * bifurcation_point(model, mu_h512))
    assert sub.u1.max() == 5e-3 and sub.u2.max() == 1e-2


def test_subsolution_halves_until_admissible(grid512, ref_model,
                                             mu0_ref):
    # close to the bifurcation value only small amplitudes are admissible:
    # at 1.005 mu0 the start 1e-2 is halved once
    lam = 1.005 * mu0_ref
    sub = build_subsolution(grid512, ref_model, lam)
    assert float(sub.u1.max()) == 1e-2 / 2
    assert _flux_gap(grid512, ref_model, lam, sub) >= 0.0
    # the amplitude one halving earlier was rejected
    big = SystemState(2.0 * sub.u1, 2.0 * sub.u2)
    assert _flux_gap(grid512, ref_model, lam, big) < 0.0


def test_subsolution_below_bifurcation_fails(grid512, ref_model,
                                             mu0_ref):
    with pytest.raises(SubsolutionError):
        build_subsolution(grid512, ref_model, 0.5 * mu0_ref)


def test_subsolution_parameter_validation(grid512, ref_model):
    # refused up front: a NaN parameter fails every halving
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="parameter must be positive and finite"):
            build_subsolution(grid512, ref_model, bad)


@pytest.mark.parametrize("slope1, slope2", [(0.0, 0.0), (-1.0, 1.0)])
def test_subsolution_refuses_a_derivative_at_zero_not_positive(grid512,
                                                               slope1, slope2):
    # zero slopes would divide by zero and a negative one take a square
    # root of it: both are the model's fault, so both are ConfigError
    model = NonlinearityModel(
        f1=lambda s: s * s, f2=lambda s: s * s,
        df1=lambda s: slope1 + 2.0 * s, df2=lambda s: slope2 + 2.0 * s,
        p1=2.0, p2=2.0, b1=1.0, b2=1.0,
        nu1=2.0, nu2=2.0, K=1e-8)
    with pytest.raises(ConfigError, match="derivatives at zero must be positive"):
        build_subsolution(grid512, model, 1.0)


def test_iteration_fixed_at_zero(grid512, ref_model):
    z = SystemState.zero(grid512)
    out = monotone_iterate(grid512, ref_model, LAMBDA_MID, z)
    assert pair_norm(out) == 0.0


def test_iteration_reaches_minimal_solution(grid512, ref_model,
                                            ref_branch):
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    minimal = monotone_iterate(grid512, ref_model, LAMBDA_MID, sub)
    # the limit solves the nonlinear system
    rnorm = scaled_residual_norm(
        residual(grid512, ref_model, LAMBDA_MID, minimal), minimal)
    assert rnorm <= 1e-10
    # iterates never went below the start
    assert np.all(minimal.u1 >= sub.u1 - 1e-12)
    assert np.all(minimal.u2 >= sub.u2 - 1e-12)
    # agrees with the lower branch crossing found by continuation
    lower = solutions_at(ref_branch, LAMBDA_MID)[0]
    assert pair_norm(minimal) == pytest.approx(pair_norm(lower), abs=1e-8)
    assert float(np.abs(minimal.u1 - lower.u1).max()) <= 1e-8


def test_iteration_respects_supersolution_ceiling(grid512, ref_model,
                                                  ref_branch):
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    upper = solutions_at(ref_branch, LAMBDA_MID)[-1]
    minimal = monotone_iterate(grid512, ref_model, LAMBDA_MID, sub, sup=upper)
    assert np.all(minimal.u1 <= upper.u1 + 1e-10)
    assert np.all(minimal.u2 <= upper.u2 + 1e-10)


def test_iteration_stops_at_a_ceiling_below_the_limit(grid512, ref_model,
                                                      ref_branch):
    # half the minimal solution is no supersolution: the iterates must
    # cross it and the check must say so
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    lower = solutions_at(ref_branch, LAMBDA_MID)[0]
    ceiling = SystemState(0.5 * lower.u1, 0.5 * lower.u2)
    with pytest.raises(MonotonicityViolationError) as exc:
        monotone_iterate(grid512, ref_model, LAMBDA_MID, sub, sup=ceiling)
    assert "exceeded the supersolution" in str(exc.value)


def test_iteration_rejects_inadmissible_start(grid512, ref_model):
    # traces 0.3 sit between the two crossings where the first component
    # flux inequality fails
    v = solve_flux_bvp(grid512, 1.0)
    w = v / v[-1]
    bad = SystemState(0.3 * w, 0.3 * w)
    assert _flux_gap(grid512, ref_model, LAMBDA_MID, bad) < 0.0
    with pytest.raises(SubsolutionError):
        monotone_iterate(grid512, ref_model, LAMBDA_MID, bad)


def test_iteration_parameter_validation(grid512, ref_model):
    z = SystemState.zero(grid512)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="parameter must be positive and finite"):
            monotone_iterate(grid512, ref_model, bad, z)


def test_iteration_budget_exhaustion(grid512, ref_model, monkeypatch):
    monkeypatch.setattr(monotone, "MAX_ITER", 1)
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    with pytest.raises(NonConvergenceError, match="did not settle in 1 steps") as exc:
        monotone_iterate(grid512, ref_model, LAMBDA_MID, sub)
    assert len(exc.value.trace) == 1
    assert exc.value.last_state is not None


def test_validate_rejects_non_monotone_model(grid512):
    logistic = _logistic()
    z = SystemState.zero(grid512)
    with pytest.raises(ConfigError, match="not monotone"):
        monotone_iterate(grid512, logistic, 1.0, z)


def test_second_solution_rejects_non_monotone_model_on_every_call(grid512,
                                                                  mu_h512):
    # the monotone check is sampled once per model object and kept: the
    # second call raises as well, without sampling f_i' again (f1'(0) =
    # df1(0) is read on every call, and no sample point is 0)
    import dataclasses
    logistic = _logistic()
    seen = []
    model = dataclasses.replace(
        logistic, df1=lambda s: seen.append(s) or logistic.df1(s))
    lam = 1.5 * bifurcation_point(model, mu_h512)
    branch = Branch(grid512, model, fold=FoldInfo(10.0 * lam, 0, 1.0, 1.0))
    counts = []
    for _ in range(2):
        with pytest.raises(ConfigError, match="not monotone"):
            second_solution(grid512, model, lam, branch)
        counts.append(sum(s > 0 for s in seen))
    assert counts[0] > 0 and counts[1] == counts[0]


def test_solutions_at_rejects_non_monotone_model(grid512, mu_h512):
    # its brackets rest on G_lam growing with lam, which a decreasing f_i
    # breaks: refused before any node is read
    logistic = _logistic()
    lam = 1.5 * bifurcation_point(logistic, mu_h512)
    branch = Branch(grid512, logistic, fold=FoldInfo(10.0 * lam, 0, 1.0, 1.0))
    with pytest.raises(ConfigError, match="not monotone"):
        solutions_at(branch, lam)


def test_ordering_check_catches_decreasing_iterates(grid512, mu_h512,
                                                    monkeypatch):
    # f = s - s^2 with lam = 3 mu_h turns the trace map into the logistic
    # map 3t(1-t): 0.4 -> 0.72 -> 0.6048, a decrease the check must catch
    # once the model check, which refuses this model, is passed over
    monkeypatch.setattr(monotone, "monotone_check",
                        lambda model: CheckResult("monotone", True, ""))
    logistic = _logistic()
    v = solve_flux_bvp(grid512, 1.0)
    w = v / v[-1]
    start = SystemState(0.4 * w, 0.4 * w)
    with pytest.raises(MonotonicityViolationError) as exc:
        monotone_iterate(grid512, logistic, 3.0 * mu_h512, start)
    assert "decreased" in str(exc.value)


def test_second_solution_pair(grid512, ref_model, ref_branch):
    minimal, upper = second_solution(grid512, ref_model, LAMBDA_MID,
                                     ref_branch)
    gap = pair_norm(upper) - pair_norm(minimal)
    assert gap > 1e-3
    # ordered nodewise, strictly somewhere
    assert np.all(minimal.u1 <= upper.u1 + 1e-10)
    assert np.all(minimal.u2 <= upper.u2 + 1e-10)
    assert float((upper.u1 - minimal.u1).max()) > 0.1
    for st in (minimal, upper):
        rnorm = scaled_residual_norm(
            residual(grid512, ref_model, LAMBDA_MID, st), st)
        assert rnorm <= 1e-10
        assert st.u1.min() > 0.0 and st.u2.min() > 0.0


def test_second_solution_at_the_window_ends(grid512, ref_model,
                                            ref_branch, mu0_ref):
    # the increasing iteration stalls at both ends of (mu0, fold), where its
    # contraction tends to 1; the roots of q_lam do not.  Both states are
    # the outer ones of solutions_at, bit for bit.
    fold = ref_branch.fold.lam_bar
    for lam in (LAMBDA_MID, mu0_ref + 1e-6, mu0_ref + 1e-4, mu0_ref + 1e-3,
                mu0_ref + 3e-3, fold - 1e-5, fold - 1e-7):
        minimal, upper = second_solution(grid512, ref_model, lam, ref_branch)
        states = solutions_at(ref_branch, lam)
        for got, want in ((minimal, states[0]), (upper, states[-1])):
            assert np.array_equal(got.u1, want.u1), lam
            assert np.array_equal(got.u2, want.u2), lam
        sub = build_subsolution(grid512, ref_model, lam)
        assert np.all(minimal.u1 >= sub.u1) and np.all(minimal.u2 >= sub.u2)
        assert np.all(minimal.u1 <= upper.u1) and np.all(minimal.u2 <= upper.u2)
        assert pair_norm(minimal) < pair_norm(upper)
        for st in (minimal, upper):
            assert scaled_residual_norm(
                residual(grid512, ref_model, lam, st), st) <= 1e-10, lam
    with pytest.raises(DistinctnessError):
        second_solution(grid512, ref_model, fold - 1e-9, ref_branch)
    # at mu0 + 1e-10 the minimal state's pair norm (about 3e-9) is below
    # the zero floor, so only the branch solution is a positive state
    with pytest.raises(DistinctnessError) as exc:
        second_solution(grid512, ref_model, mu0_ref + 1e-10, ref_branch)
    assert "1e-08" in str(exc.value) and "mu0 + 1e-10" in str(exc.value)


def test_operator_factored_once_per_grid(ref_model, branch_cfg, monkeypatch):
    import radbif.grid as grid_module
    calls = []
    factor = grid_module.dgbtrf

    def counting(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(grid_module, "dgbtrf", counting)
    grid = build_grid(3, 1.0, 128)
    branch = continue_branch(grid, ref_model, branch_cfg)
    mu0 = bifurcation_point(ref_model, steklov_eigenpair(grid).mu1)
    second_solution(grid, ref_model, 0.5 * (mu0 + branch.fold.lam_bar), branch)
    assert len(calls) == 1


def test_banded_solves_per_grid_and_per_call(ref_model, monkeypatch):
    """dgbtrs runs twice per grid (the unit-flux column and its refinement
    pass), once per Jacobian solve, and never for a flux solve: those are
    multiples of the cached column."""
    import radbif.grid as grid_module
    import radbif.solver as solver_module
    calls = []
    solve = grid_module.dgbtrs

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(grid_module, "dgbtrs", counting)
    monkeypatch.setattr(solver_module, "dgbtrs", counting)
    grid = build_grid(3, 1.0, 128)
    eig = steklov_eigenpair(grid)
    assert len(calls) == 2
    state = SystemState(0.3 * eig.phi1, 0.4 * eig.phi1)
    jac = jacobian(grid, ref_model, 0.3, state)
    for k in range(1, 4):
        jac.solve(np.ones(2 * (grid.M + 1)))
        assert len(calls) == 2 + k
    calls.clear()
    solve_flux_bvp(grid, 0.7)
    linear_bvp_solve(grid, 0.4, -0.1)
    sub = build_subsolution(grid, ref_model, LAMBDA_MID)
    monotone_iterate(grid, ref_model, LAMBDA_MID, sub)
    assert calls == []


def test_second_solution_requires_supercritical_parameter(grid512, ref_model,
                                                          ref_branch,
                                                          mu0_ref):
    with pytest.raises(ConfigError):
        second_solution(grid512, ref_model, 0.9 * mu0_ref, ref_branch)
    for lam in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="parameter must be positive and finite"):
            second_solution(grid512, ref_model, lam, ref_branch)


def test_second_solution_requires_fold(grid512, ref_model):
    # a branch without a fold has fewer than two states at lam: the count
    # of solutions_at refuses it, as it refuses lam above the fold
    with pytest.raises(DistinctnessError, match="only 0 positive state"):
        second_solution(grid512, ref_model, LAMBDA_MID,
                        Branch(grid512, ref_model))


def test_second_solution_on_the_two_fold_branch(grid512, two_fold_model,
                                                two_fold_branch):
    # lam = 0.35 lies between mu0 (about 0.31303) and the maximum fold,
    # above the first turn of lam, a minimum
    minimal, upper = second_solution(grid512, two_fold_model, 0.35,
                                     two_fold_branch)
    assert pair_norm(minimal) == pytest.approx(0.653, abs=1e-3)
    assert pair_norm(upper) == pytest.approx(1.321, abs=1e-3)
    for st in (minimal, upper):
        assert scaled_residual_norm(
            residual(grid512, two_fold_model, 0.35, st), st) <= 1e-10
    with pytest.raises(DistinctnessError, match="its largest lam is 0.3708"):
        second_solution(grid512, two_fold_model, 0.3709, two_fold_branch)


def test_second_solution_above_the_branch_names_its_largest_lam(
        grid128, grid512, ref_model, ref_branch, branch_cfg):
    # above every lam a branch reaches there is no state to miss: the error
    # names the largest lam (the fold, or mu0 on a branch that bifurcates
    # to the left) and does not blame the zero floor
    quad = quadratic_model()
    quad_branch = continue_branch(grid128, quad, branch_cfg)
    cases = ((grid512, ref_model, ref_branch, 0.34, ref_branch.fold.lam_bar),
             (grid128, quad, quad_branch, 0.4, quad_branch.points[0].lam))
    for grid, model, branch, lam, top in cases:
        with pytest.raises(DistinctnessError) as exc:
            second_solution(grid, model, lam, branch)
        msg = str(exc.value)
        assert f"its largest lam is {top:.17g}" in msg, msg
        assert "zero floor" not in msg and "POSITIVITY_ZERO_FLOOR" not in msg


def test_second_solution_refuses_a_branch_of_another_problem(
        grid512, ref_model, ref_branch):
    # the reference branch with the quadratic model would end in a
    # DistinctnessError blaming the zero floor; a grid equal in value but
    # another object is refused too, as the rule is identity
    for grid, model in ((grid512, quadratic_model()),
                        (build_grid(3, 1.0, 512), ref_model)):
        with pytest.raises(ConfigError, match="another grid or model"):
            second_solution(grid, model, LAMBDA_MID, ref_branch)


def test_second_solution_degenerate_at_fold(grid512, ref_model, ref_branch):
    with pytest.raises(DistinctnessError):
        second_solution(grid512, ref_model, ref_branch.fold.lam_bar,
                        ref_branch)
