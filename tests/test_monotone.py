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
import warnings

import numpy as np
import pytest

from radbif import monotone
from radbif.solver import _on_ray

from radbif import (ConfigError, DistinctnessError,
                    MonotonicityViolationError, NonConvergenceError,
                    NonlinearityModel,
                    SubsolutionError, SystemState, bifurcation_point,
                    boundary_flux, build_grid, build_subsolution,
                    f_extended,
                    continue_branch, linear_model, monotone_iterate, newton_solve, pair_norm,
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


@pytest.mark.parametrize("which", ["sub", "sup"])
@pytest.mark.parametrize("bad", ["nan", "short"])
def test_iteration_refuses_a_bound_without_the_grids_finite_nodes(
        which, bad, ref_model):
    # a sup whose u1 is all NaN made every ceiling comparison false, so
    # the iteration returned a "minimal solution" unchecked; one of the
    # wrong length failed in numpy broadcasting.  Both are ValueError
    # naming the argument
    grid, lam = build_grid(3, 1.0, 128), 0.32
    sub = build_subsolution(grid, ref_model, lam)
    u = np.full(grid.M + 1, np.nan) if bad == "nan" else np.ones(grid.M)
    bound = SystemState(u, np.ones(u.size))
    args = (bound, None) if which == "sub" else (sub, bound)
    with pytest.raises(ValueError, match=f"^{which} must have the grid's "
                                         f"129 finite nodal values"):
        monotone_iterate(grid, ref_model, lam, *args)


def test_iteration_parameter_validation(grid512, ref_model):
    z = SystemState.zero(grid512)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="parameter must be positive and finite"):
            monotone_iterate(grid512, ref_model, bad, z)


def test_iteration_above_the_fold_stops_at_its_first_overflow(ref_model):
    # no solution at lam = 0.36 > fold: the traces grow without bound and
    # overflow at step 50; the error says so there, instead of running the
    # rest of the budget on NaN
    grid = build_grid(3, 1.0, 128)
    sub = build_subsolution(grid, ref_model, 0.36)
    with pytest.raises(NonConvergenceError, match="diverged at step 50") as exc:
        monotone_iterate(grid, ref_model, 0.36, sub)
    trace = exc.value.trace
    assert len(trace) == 50 and not math.isfinite(trace[-1])
    assert all(math.isfinite(c) for c in trace[:-1])
    # the error carries the last finite iterate, step 49's, not the
    # overflowed one
    last = exc.value.last_state
    assert np.isfinite(last.u1).all() and np.isfinite(last.u2).all()
    assert last.u1.min() > 0.0 and last.u2.min() > 0.0
    assert last.u1[-1] > sub.u1[-1]


def test_iteration_budget_exhaustion(grid512, ref_model, monkeypatch):
    monkeypatch.setattr(monotone, "MAX_ITER", 1)
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    with pytest.raises(NonConvergenceError, match="did not settle in 1 steps") as exc:
        monotone_iterate(grid512, ref_model, LAMBDA_MID, sub)
    assert len(exc.value.trace) == 1
    assert exc.value.last_state is not None


def _array_iterate(grid, model, lam, sub, sup=None):
    """The iteration's loop as it ran on numpy arrays, M + 1 nodes at the
    first step and the boundary node after it: the reference that the
    float loop of monotone_iterate must reproduce bit for bit."""
    eig = steklov_eigenpair(grid)
    if sup is not None:
        ceil_slack = monotone.ORDER_SLACK_REL * max(1.0, pair_norm(sup))
        cap1 = float(((sup.u1 + ceil_slack) / eig.phi1).min())
        cap2 = float(((sup.u2 + ceil_slack) / eig.phi1).min())

    def rebuild(flux1, flux2):
        return _on_ray(eig.profile, flux1 / eig.mu1, flux2 / eig.mu1)

    cur1, cur2, shape = sub.u1, sub.u2, eig.phi1
    changes, fluxes = [], None
    for _ in range(monotone.MAX_ITER):
        flux1 = lam * f_extended(model, 1, float(cur2[-1]))
        flux2 = lam * f_extended(model, 2, float(cur1[-1]))
        nxt1 = (flux1 / eig.mu1) * shape
        nxt2 = (flux2 / eig.mu1) * shape
        slack = monotone.ORDER_SLACK_REL * max(
            1e-300, float(np.abs(cur1).max() + np.abs(cur2).max()))
        drop = max(float((cur1 - nxt1).max()), float((cur2 - nxt2).max()))
        if drop > slack:
            raise MonotonicityViolationError(
                f"iterate decreased by {drop:.3e} at some node "
                f"(allowed slack {slack:.3e})")
        if sup is not None and (nxt1[-1] > cap1 or nxt2[-1] > cap2):
            over = max(float((nxt1[-1] * eig.phi1 - sup.u1).max()),
                       float((nxt2[-1] * eig.phi1 - sup.u2).max()))
            raise MonotonicityViolationError(
                f"iterate exceeded the supersolution by {over:.3e}")
        change = max(float(np.abs(nxt1 - cur1).max()),
                     float(np.abs(nxt2 - cur2).max()))
        changes.append(change)
        cur1, cur2, shape = nxt1[-1:], nxt2[-1:], eig.phi1[-1:]
        if not math.isfinite(change):
            break
        fluxes = flux1, flux2
        if change <= monotone.ITER_TOL:
            return rebuild(*fluxes)
    reason = (f"did not settle in {monotone.MAX_ITER} steps"
              if math.isfinite(change)
              else f"diverged at step {len(changes)}")
    raise NonConvergenceError(
        f"monotone iteration {reason} (last change {change:.3e})",
        trace=changes,
        last_state=sub if fluxes is None else rebuild(*fluxes))


def _outcome(iterate, *args, **kwargs):
    """(state, None) or (last_state, (type, message, trace)) of a call."""
    try:
        return iterate(*args, **kwargs), None
    except (MonotonicityViolationError, NonConvergenceError) as exc:
        return (getattr(exc, "last_state", None),
                (type(exc), str(exc), getattr(exc, "trace", None)))


def _assert_same_outcome(args, kwargs=None):
    kwargs = kwargs or {}
    got, want = (_outcome(f, *args, **kwargs)
                 for f in (monotone_iterate, _array_iterate))
    assert got[1] == want[1]
    if want[0] is None:
        assert got[0] is None
    else:
        np.testing.assert_array_equal(got[0].u1, want[0].u1, strict=True)
        np.testing.assert_array_equal(got[0].u2, want[0].u2, strict=True)


@pytest.mark.parametrize("k", [1, 3, 8, 14, 20, 26, 32, 37, 39])
def test_iteration_is_bit_identical_to_the_array_loop(k, grid512, ref_model,
                                                      mu0_ref, ref_branch):
    # lam at k/40 of the way from mu0 to the fold, with no ceiling and
    # with the branch solution as the ceiling: the same states, the same
    # change per step and the same messages
    lam = mu0_ref + (ref_branch.fold.lam_bar - mu0_ref) * k / 40
    sub = build_subsolution(grid512, ref_model, lam)
    ceiling = solutions_at(ref_branch, lam)[-1]
    for sup in (None, ceiling, SystemState(0.5 * ceiling.u1,
                                           0.5 * ceiling.u2)):
        _assert_same_outcome((grid512, ref_model, lam, sub), {"sup": sup})


def test_iteration_failures_are_bit_identical_to_the_array_loop(
        ref_model, grid512, mu_h512, monkeypatch):
    # the overflow above the fold at M = 128, a budget of one step, a
    # decrease at an interior node of the first step, and one at the
    # second step
    grid = build_grid(3, 1.0, 128)
    _assert_same_outcome((grid, ref_model, 0.36,
                          build_subsolution(grid, ref_model, 0.36)))
    sub = build_subsolution(grid512, ref_model, LAMBDA_MID)
    monkeypatch.setattr(monotone, "MAX_ITER", 1)
    _assert_same_outcome((grid512, ref_model, LAMBDA_MID, sub))
    monkeypatch.undo()
    bump = np.where(grid512.r < 0.5, 0.5, 0.0)
    _assert_same_outcome((grid512, ref_model, LAMBDA_MID,
                          SystemState(sub.u1 + bump, sub.u2)))
    monkeypatch.setattr(monotone, "require_monotone", lambda model: None)
    w = steklov_eigenpair(grid512).phi1
    _assert_same_outcome((grid512, _logistic(), 3.0 * mu_h512,
                          SystemState(0.4 * w, 0.4 * w)))


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
    monkeypatch.setattr(monotone, "require_monotone", lambda model: None)
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
    # the grid's solver (its regular solution) is set up once per grid
    import radbif.steklov as steklov_module
    calls = []
    setup = steklov_module._kernel_solver

    def counting(grid):
        calls.append(1)
        return setup(grid)

    monkeypatch.setattr(steklov_module, "_kernel_solver", counting)
    grid = build_grid(3, 1.0, 128)
    branch = continue_branch(grid, ref_model, branch_cfg)
    mu0 = bifurcation_point(ref_model, steklov_eigenpair(grid).mu1)
    second_solution(grid, ref_model, 0.5 * (mu0 + branch.fold.lam_bar), branch)
    assert len(calls) == 1


def test_kernel_solves_per_grid_and_per_call(ref_model, monkeypatch):
    """The grid's solver solves three times at its first
    steklov_eigenpair: the unit-flux column and two longdouble refinement
    passes, which give v and the unit-trace profile.  It never solves after
    that, nor is it set up again: the profile is already there, Newton
    works on the two traces, and a flux solve is a multiple of the cached
    column."""
    import radbif.steklov as steklov_module
    calls = []
    setup = steklov_module._kernel_solver

    def counting_setup(grid):
        solve = setup(grid)

        def counting(s):
            calls.append(1)
            return solve(s)

        return counting

    monkeypatch.setattr(steklov_module, "_kernel_solver", counting_setup)
    grid = build_grid(3, 1.0, 128)
    eig = steklov_eigenpair(grid)
    assert len(calls) == 3
    calls.clear()
    profile = eig.profile
    assert profile.dtype == np.longdouble and profile[-1] == 1.0
    monkeypatch.setattr(steklov_module, "_kernel_solver",
                        lambda grid: pytest.fail("a second set-up"))
    for amp in (0.3, 1.0, 3.0):  # to the trivial state, then the upper one
        init = SystemState(amp * eig.phi1, amp * eig.phi1)
        newton_solve(grid, ref_model, LAMBDA_MID, init)
    assert calls == []
    solve_flux_bvp(grid, 0.7)
    sub = build_subsolution(grid, ref_model, LAMBDA_MID)
    monotone_iterate(grid, ref_model, LAMBDA_MID, sub)
    assert calls == []


def test_no_kernel_solve_once_the_grid_is_set_up(ref_model, branch_cfg,
                                                 monkeypatch):
    # the grid's first steklov_eigenpair builds its whole ray, the
    # longdouble profile included, and keeps no solver: tracing, the
    # states at one lam, the second solution and Newton make no solve on
    # that grid after it, which would need a new set-up
    import radbif.steklov as steklov_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a set-up or solve after set-up")

    grid = build_grid(3, 1.0, 128)
    eig = steklov_eigenpair(grid)
    monkeypatch.setattr(steklov_module, "_kernel_solver", forbidden)
    branch = continue_branch(grid, ref_model, branch_cfg)
    assert branch.termination == "lambda_floor"
    assert len(solutions_at(branch, LAMBDA_MID)) == 2
    minimal, upper = second_solution(grid, ref_model, LAMBDA_MID, branch)
    assert pair_norm(minimal) < pair_norm(upper)
    init = SystemState(3.0 * eig.phi1, 3.0 * eig.phi1)
    assert newton_solve(grid, ref_model, LAMBDA_MID, init).positive


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


def test_a_huge_lambda_has_no_state_and_no_overflow(grid512, ref_model,
                                                     ref_branch):
    # lam - lam_k near 1e200: the level crossings are found by sign, not
    # by a product of two such differences, which overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solutions_at(ref_branch, 1e200) == []
        with pytest.raises(DistinctnessError) as exc:
            second_solution(grid512, ref_model, 1e200, ref_branch)
    top = max([p.lam for p in ref_branch.points]
              + [f.lam_bar for f in ref_branch.folds])
    assert f"its largest lam is {top:.17g}" in str(exc.value)


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
