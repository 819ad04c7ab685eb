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

from radbif import (ConfigError, DistinctnessError,
                    MonotonicityViolationError, NonConvergenceError,
                    SubsolutionError, SystemState, bifurcation_point,
                    boundary_flux, build_grid, build_subsolution,
                    continue_branch, monotone_iterate, pair_norm,
                    polynomial_model, residual, scaled_residual_norm,
                    second_solution, solutions_at, solve_flux_bvp,
                    steklov_eigenpair, Branch)

LAMBDA_MID = 0.3231227939747531


def _flux_gap(grid, model, lam, state):
    g1 = lam * model.f1(float(state.u2[-1])) - boundary_flux(grid, state.u1)
    g2 = lam * model.f2(float(state.u1[-1])) - boundary_flux(grid, state.u2)
    return min(g1, g2)


def test_subsolution_accepted_at_initial_amplitude(grid512, ref_model,
                                                   mu0_ref):
    lam = 1.1 * mu0_ref
    sub = build_subsolution(grid512, ref_model, lam, 1e-2)
    assert sub.u1.min() > 0.0 and sub.u2.min() > 0.0
    assert sub.u1.max() == pytest.approx(1e-2, rel=1e-12)  # no halving
    assert _flux_gap(grid512, ref_model, lam, sub) >= 0.0


def test_subsolution_halves_until_admissible(grid512, ref_model,
                                             mu0_ref):
    # close to the bifurcation value only small amplitudes are admissible
    sub = build_subsolution(grid512, ref_model, 1.01 * mu0_ref, 0.5)
    amp = float(sub.u1.max())
    assert amp == pytest.approx(0.5 / 2 ** 6, rel=1e-12)
    assert _flux_gap(grid512, ref_model, 1.01 * mu0_ref, sub) >= 0.0
    # the amplitude one halving earlier was rejected
    big = SystemState(2.0 * sub.u1, 2.0 * sub.u2)
    assert _flux_gap(grid512, ref_model, 1.01 * mu0_ref, big) < 0.0


def test_subsolution_large_amplitude_superlinear(grid512, ref_model,
                                                 mu0_ref):
    # cubic growth dominates the linear flux: eps = 1e3 verifies directly
    sub = build_subsolution(grid512, ref_model, 1.1 * mu0_ref, 1e3)
    assert sub.u1.max() == pytest.approx(1e3, rel=1e-12)


def test_subsolution_below_bifurcation_fails(grid512, ref_model,
                                             mu0_ref):
    with pytest.raises(SubsolutionError):
        build_subsolution(grid512, ref_model, 0.5 * mu0_ref, 1e-2)


def test_subsolution_parameter_validation(grid512, ref_model,
                                          mu0_ref):
    with pytest.raises(ConfigError):
        build_subsolution(grid512, ref_model, mu0_ref * 1.1, 0.0)
    with pytest.raises(ConfigError):
        build_subsolution(grid512, ref_model, -1.0, 1e-2)


def test_iteration_fixed_at_zero(grid512, ref_model):
    z = SystemState.zero(grid512)
    out = monotone_iterate(grid512, ref_model, LAMBDA_MID, z)
    assert pair_norm(out) == 0.0


def test_iteration_reaches_minimal_solution(grid512, ref_model,
                                            ref_branch):
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID, 1e-2)
    trace = []
    minimal = monotone_iterate(grid512, ref_model, LAMBDA_MID, sub,
                               trace=trace)
    assert trace[-1] <= 1e-12
    assert len(trace) < 2000
    # the limit solves the nonlinear system
    rnorm = scaled_residual_norm(
        residual(grid512, ref_model, LAMBDA_MID, minimal), minimal)
    assert rnorm <= 1e-10
    # iterates never went below the start
    assert np.all(minimal.u1 >= sub.u1 - 1e-12)
    assert np.all(minimal.u2 >= sub.u2 - 1e-12)
    # agrees with the lower branch crossing found by continuation
    lower = solutions_at(ref_branch, LAMBDA_MID, grid512, ref_model)[0]
    assert pair_norm(minimal) == pytest.approx(pair_norm(lower), abs=1e-8)
    assert float(np.abs(minimal.u1 - lower.u1).max()) <= 1e-8


def test_iteration_respects_supersolution_ceiling(grid512, ref_model,
                                                  ref_branch):
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID, 1e-2)
    upper = solutions_at(ref_branch, LAMBDA_MID, grid512, ref_model)[-1]
    minimal = monotone_iterate(grid512, ref_model, LAMBDA_MID, sub, sup=upper)
    assert np.all(minimal.u1 <= upper.u1 + 1e-10)
    assert np.all(minimal.u2 <= upper.u2 + 1e-10)


def test_iteration_stops_at_a_ceiling_below_the_limit(grid512, ref_model,
                                                      ref_branch):
    # half the minimal solution is no supersolution: the iterates must
    # cross it and the check must say so
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID, 1e-2)
    lower = solutions_at(ref_branch, LAMBDA_MID, grid512, ref_model)[0]
    ceiling = SystemState(0.5 * lower.u1, 0.5 * lower.u2)
    trace = []
    with pytest.raises(MonotonicityViolationError) as exc:
        monotone_iterate(grid512, ref_model, LAMBDA_MID, sub, sup=ceiling,
                         trace=trace)
    assert "exceeded the supersolution" in str(exc.value)
    assert 1 <= len(trace) < 2000


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
    with pytest.raises(ConfigError):
        monotone_iterate(grid512, ref_model, 0.0, z)
    with pytest.raises(ConfigError):
        monotone_iterate(grid512, ref_model, LAMBDA_MID, z, tol=0.0)
    with pytest.raises(ConfigError):
        monotone_iterate(grid512, ref_model, LAMBDA_MID, z, max_iter=0)


def test_iteration_budget_exhaustion(grid512, ref_model):
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID, 1e-2)
    with pytest.raises(NonConvergenceError) as exc:
        monotone_iterate(grid512, ref_model, LAMBDA_MID, sub, max_iter=1)
    assert len(exc.value.trace) == 1
    assert exc.value.last_state is not None


def test_validate_rejects_non_monotone_model(grid512):
    logistic = polynomial_model([0.0, 1.0, -1.0], [0.0, 1.0, -1.0],
                                p1=2.0, p2=2.0, b1=1.0, b2=1.0,
                                nu1=2.0, nu2=2.0, K=0.5)
    z = SystemState.zero(grid512)
    with pytest.raises(ConfigError):
        monotone_iterate(grid512, logistic, 1.0, z, validate=True)


def test_ordering_check_catches_decreasing_iterates(grid512, mu_h512):
    # f = s - s^2 with lam = 3 mu_h turns the trace map into the logistic
    # map 3t(1-t): 0.4 -> 0.72 -> 0.6048, a decrease the check must catch
    logistic = polynomial_model([0.0, 1.0, -1.0], [0.0, 1.0, -1.0],
                                p1=2.0, p2=2.0, b1=1.0, b2=1.0,
                                nu1=2.0, nu2=2.0, K=0.5)
    v = solve_flux_bvp(grid512, 1.0)
    w = v / v[-1]
    start = SystemState(0.4 * w, 0.4 * w)
    with pytest.raises(MonotonicityViolationError) as exc:
        monotone_iterate(grid512, logistic, 3.0 * mu_h512, start,
                         validate=False)
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
    eps = 1e-2 / math.sqrt(max(ref_model.fp0_1, ref_model.fp0_2))
    for lam in (LAMBDA_MID, mu0_ref + 1e-6, mu0_ref + 1e-4, mu0_ref + 1e-3,
                mu0_ref + 3e-3, fold - 1e-5, fold - 1e-7):
        minimal, upper = second_solution(grid512, ref_model, lam, ref_branch)
        states = solutions_at(ref_branch, lam, grid512, ref_model)
        for got, want in ((minimal, states[0]), (upper, states[-1])):
            assert np.array_equal(got.u1, want.u1), lam
            assert np.array_equal(got.u2, want.u2), lam
        sub = build_subsolution(grid512, ref_model, lam, eps)
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


def test_second_solution_requires_supercritical_parameter(grid512, ref_model,
                                                          ref_branch,
                                                          mu0_ref):
    with pytest.raises(ConfigError):
        second_solution(grid512, ref_model, 0.9 * mu0_ref, ref_branch)


def test_second_solution_requires_fold(grid512, ref_model):
    with pytest.raises(ConfigError):
        second_solution(grid512, ref_model, LAMBDA_MID, Branch())


def test_second_solution_degenerate_at_fold(grid512, ref_model, ref_branch):
    with pytest.raises(DistinctnessError):
        second_solution(grid512, ref_model, ref_branch.fold.lam_bar,
                        ref_branch)
