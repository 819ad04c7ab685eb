"""Branch tracing: step-off, arclength stepping, fold detection, slicing.

The session branch fixture is the reference continuation run at M = 512;
its fold location is checked against the independent trace-system value
0.33320994441151214 computed from the discrete eigenvalue reduction, and
every branch point against the trace-system oracle in conftest.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import radbif
from conftest import bisect_root, trace_system_solve
from radbif import (Branch, ConfigError, ContinuationConfig,
                    ContinuationError, NonConvergenceError, SystemState,
                    bifurcation_point, build_grid, continue_branch, eval_f,
                    f_extended, fprime_extended, initial_tangent,
                    linear_model, newton_solve,
                    quadratic_model, residual, scaled_residual_norm,
                    second_solution, solutions_at, solve_flux_bvp,
                    steklov_eigenpair)
from radbif.continuation import _on_ray, _TraceSystem
from radbif.solver import MAX_NEWTON_ITER, POSITIVITY_ZERO_FLOOR, ULP_SHIFTS
from radbif.grid import _stencil

LAMBDA_BAR_512 = 0.33320994441151214  # trace-system fold at M = 512
LAMBDA_MID = 0.3231227939747531
# a short branch through the fold for the tests that patch the corrector
FAST_CFG = ContinuationConfig(lambda_stop_low=0.2, max_points=1000)


def test_initial_tangent_equal_derivatives(ref_model, eig512, grid512):
    t = initial_tangent(ref_model, eig512)
    np.testing.assert_allclose(t.u1, eig512.phi1 / 2.0, atol=1e-15)
    np.testing.assert_allclose(t.u2, eig512.phi1 / 2.0, atol=1e-15)
    from radbif import pair_norm
    assert pair_norm(t) == pytest.approx(1.0, abs=1e-14)


def test_initial_tangent_ratio_from_derivatives(eig512):
    # f1'(0) = 1, f2'(0) = 4 -> zeta = 2 -> (phi/3, 2 phi/3)
    m = linear_model(1.0, 4.0)
    t = initial_tangent(m, eig512)
    np.testing.assert_allclose(t.u1, eig512.phi1 / 3.0, atol=1e-15)
    np.testing.assert_allclose(t.u2, 2.0 * eig512.phi1 / 3.0, atol=1e-15)


def test_initial_tangent_rejects_a_zero_slope_at_zero(ref_model, eig512):
    # zeta and sigma share one rule: both slopes at zero must be positive
    flat = dataclasses.replace(ref_model, df1=lambda s: 0.0)
    with pytest.raises(ConfigError, match="derivatives at zero"):
        initial_tangent(flat, eig512)
    with pytest.raises(ConfigError, match="derivatives at zero"):
        bifurcation_point(flat, eig512.mu1)


def _step_off(grid, model, eps):
    """points[1] of a two-point branch: the step-off alone."""
    branch = continue_branch(
        grid, model, ContinuationConfig(eps_step_off=eps, max_points=2))
    assert branch.termination == "max_points" and len(branch.points) == 2
    return branch.points[1]


def test_step_off_leaves_to_the_right(grid512, ref_model, mu0_ref):
    pt = _step_off(grid512, ref_model, 1e-3)
    assert pt.lam > mu0_ref
    assert pt.tangent_lambda_sign == 1
    assert pt.norm == pytest.approx(1e-3, rel=1e-3)


def test_step_off_leaves_to_the_left(grid512, eig512):
    mu0 = eig512.mu1  # sigma = 1
    pt = _step_off(grid512, quadratic_model(), 1e-3)
    assert pt.lam < mu0
    assert pt.tangent_lambda_sign == -1


def test_step_off_amplitude_validation(grid512, ref_model, mu0_ref,
                                       monkeypatch):
    # the step-off's pair norm is eps_step_off, and a state at or below
    # the numerical zero floor is trivial, so no such step-off could pass
    # positivity: the configuration refuses it, naming the key and floor
    for eps in (0.0, 1e-300, 1e-30, 1e-9, POSITIVITY_ZERO_FLOOR, 0.2):
        with pytest.raises(ConfigError, match=r"eps_step_off must lie in "
                           r"\(1e-08, 0\.1\].*POSITIVITY_ZERO_FLOOR = 1e-08"):
            ContinuationConfig(eps_step_off=eps)
    assert ContinuationConfig(eps_step_off=2e-8).eps_step_off == 2e-8
    # a step-off that is not positive keeps the trivial anchor: here the
    # floor is raised above its amplitude
    monkeypatch.setattr(radbif.solver, "POSITIVITY_ZERO_FLOOR", 1e-2)
    with pytest.raises(ContinuationError, match="could not leave the trivial "
                       "branch at eps=0.001") as info:
        continue_branch(grid512, ref_model, ContinuationConfig(eps_step_off=1e-3))
    anchor = info.value.last_point
    assert anchor.lam == mu0_ref and anchor.norm == 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ContinuationConfig(ds0=1e-9, ds_min=1e-8)
    with pytest.raises(ConfigError):
        ContinuationConfig(eps_step_off=0.5)
    with pytest.raises(ConfigError):
        ContinuationConfig(lambda_stop_low=0.0)
    with pytest.raises(ConfigError):
        ContinuationConfig(max_points=1)
    for low in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            ContinuationConfig(lambda_stop_low=low)
    for points in (2.5, 100.0, math.nan):
        with pytest.raises(ConfigError, match="integer"):
            ContinuationConfig(max_points=points)
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tol_residual"):
            ContinuationConfig(tol_residual=tol)
    # one tolerance, no Newton settings that the tracing would ignore
    with pytest.raises(TypeError):
        ContinuationConfig(newton=None)


def test_branch_structure_and_termination(ref_branch, mu0_ref):
    assert ref_branch.termination == "lambda_floor"
    assert ref_branch.points[0].lam == pytest.approx(mu0_ref, abs=1e-14)
    assert ref_branch.points[0].norm == 0.0
    assert ref_branch.folds == [ref_branch.fold]  # a single fold
    assert ref_branch.fold is not None
    # steps grow with the pair norm: 47 points where fixed steps took 439
    assert len(ref_branch.points) < 60
    lams = ref_branch.lambdas()
    norms = ref_branch.norms()
    assert lams.shape == norms.shape == (len(ref_branch.points),)
    assert lams[-1] <= 1e-3


def test_branch_fold_matches_trace_system(ref_branch, mu0_ref, ref_model,
                                          mu_h512):
    fold = ref_branch.fold
    assert fold.lam_bar == pytest.approx(LAMBDA_BAR_512, abs=1e-10)
    # pinned to the bit, and bench/fold_oracle.exact_fold's value
    assert fold.lam_bar == 0.3332099444116074
    assert fold.lam_bar == _fold_oracle().exact_fold(ref_branch.grid,
                                                     ref_model)
    assert fold.lam_bar > mu0_ref  # strictly right of mu0
    # the fold is the true maximum: no computed point lies above it
    assert ref_branch.lambdas().max() <= LAMBDA_BAR_512
    # the fold traces solve the trace system at the fold parameter
    assert abs(mu_h512 * fold.t1
               - fold.lam_bar * eval_f(ref_model, 1, fold.t2)) <= 1e-12
    assert abs(mu_h512 * fold.t2
               - fold.lam_bar * eval_f(ref_model, 2, fold.t1)) <= 1e-12
    # and make the trace Jacobian singular: fold_row = det F_t / mu_h^2
    kappa = fold.lam_bar / mu_h512
    fold_row = 1.0 - kappa ** 2 * (fprime_extended(ref_model, 1, fold.t2)
                                   * fprime_extended(ref_model, 2, fold.t1))
    assert abs(fold_row) <= 1e-12


def test_trace_jacobian_matches_central_differences(grid512, ref_model):
    ts = _TraceSystem(grid512, ref_model)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = np.array([*rng.uniform(0.01, 50.0, 2), rng.uniform(0.01, 0.5)])
        fd = np.empty((2, 3))
        for j in range(3):
            delta = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += delta
            xm[j] -= delta
            fd[:, j] = (np.array(ts.linearize(*xp)[0])
                        - np.array(ts.linearize(*xm)[0])) / (2.0 * delta)
        jac = np.array(ts.linearize(*x)[1])
        assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(jac).max())


@pytest.mark.parametrize("M", [128, 512, 4096])
def test_trace_metric_weight_is_one_fsum_per_grid(M, ref_model):
    # w = (phi_h.phi_h)/(2(M+1)) with the squares summed by math.fsum,
    # correctly rounded and with no BLAS dot, and kept with the grid's
    # ray, so a second trace system reads the same float
    grid = build_grid(3, 1.0, M)
    phi = steklov_eigenpair(grid).phi1
    ts = _TraceSystem(grid, ref_model)
    assert type(ts.w) is float
    assert ts.w == math.fsum((phi * phi).tolist()) / (2 * (M + 1))
    assert (_TraceSystem(grid, quadratic_model()).w is ts.w
            is steklov_eigenpair(grid).w)


def test_trace_distance_is_the_plain_float_formula(grid512, ref_model):
    ts, rng = _TraceSystem(grid512, ref_model), np.random.default_rng(11)
    for _ in range(500):
        xa, xb = (tuple(rng.uniform(-50.0, 50.0, 3).tolist())
                  for _ in range(2))
        d1, d2, d3 = (a - b for a, b in zip(xa, xb))
        got = ts.dist(xa, xb)
        assert type(got) is float
        assert got == math.sqrt(ts.w * (d1 * d1 + d2 * d2) + d3 * d3)


def test_branch_traces_solve_the_trace_system(ref_branch, ref_model,
                                              mu_h512):
    for p in ref_branch.points[1:]:
        lam = p.lam
        t1, t2 = float(p.state.u1[-1]), float(p.state.u2[-1])
        got = trace_system_solve(
            mu_h512,
            lambda t: lam * eval_f(ref_model, 1, t),
            lambda t: lam * eval_f(ref_model, 2, t),
            lambda t: lam * fprime_extended(ref_model, 1, t),
            lambda t: lam * fprime_extended(ref_model, 2, t), t1, t2)
        scale = max(1.0, t1, t2)
        assert abs(got[0] - t1) <= 1e-10 * scale
        assert abs(got[1] - t2) <= 1e-10 * scale


def test_branch_records_diagnostics(ref_branch, branch_cfg):
    tol = branch_cfg.tol_residual
    for p in ref_branch.points[1:]:
        # the count includes the refinement step taken after convergence
        assert 1 <= p.corrector_iterations <= MAX_NEWTON_ITER + 1
        assert p.ulp_shift in ULP_SHIFTS
        assert 0.0 <= p.residual <= tol
    # every rejected attempt is counted and the latest keeps its reason
    assert (ref_branch.rejections > 0) == bool(ref_branch.last_rejection)


def test_eight_corrector_steps_halve_the_next_step(grid128, ref_model,
                                                   monkeypatch):
    # the fourth corrector solve (step-off included) reports 8 steps; the
    # step after its point is half as long, where 4..7 steps keep it
    import radbif.continuation as cont
    corrector, calls = cont._trace_newton, []

    def slow(ts, extra, x0, tol):
        x, history = corrector(ts, extra, x0, tol)
        if extra != ts.fold_row:
            calls.append(x0)
            if len(calls) == 4:
                assert len(history) <= 9
                history = history + [history[-1]] * (9 - len(history))
        return x, history

    monkeypatch.setattr(cont, "_trace_newton", slow)
    branch = continue_branch(grid128, ref_model, FAST_CFG)
    assert branch.rejections == 0
    iters = [p.corrector_iterations for p in branch.points]
    assert iters.count(8) == 1
    k = iters.index(8)
    assert k == 4 and branch.points[k].ds > FAST_CFG.ds_min
    assert branch.points[k + 1].ds == 0.5 * branch.points[k].ds


def test_branch_respects_nonexistence_bound(ref_branch, ref_model, eig512):
    bound = eig512.mu1 / ref_model.K
    assert ref_branch.lambdas().max() <= bound + 1e-8


def test_branch_states_positive_after_first_step(ref_branch):
    for p in ref_branch.points[1:]:
        assert p.state.u1.min() > 0.0 and p.state.u2.min() > 0.0
        assert p.norm > 0.0


def test_branch_lambda_monotone_after_fold(ref_branch):
    k = int(np.argmax(ref_branch.lambdas()))
    tail = ref_branch.lambdas()[k + 2:]
    assert np.all(np.diff(tail) < 0.0)
    assert ref_branch.norms()[-1] > 100.0  # tail grows toward blow-up


def test_branch_points_reverify_residual(ref_branch, grid512, ref_model):
    # spot-check accepted points independently of the corrector's claim
    for k in (1, 5, len(ref_branch.points) // 2, -1):
        p = ref_branch.points[k]
        rnorm = scaled_residual_norm(
            residual(grid512, ref_model, p.lam, p.state), p.state)
        assert rnorm <= 1e-10


def test_branch_arclength_consistency(ref_branch):
    # distance in the (lam, norm) plane stays within a generous band of ds
    pts = ref_branch.points
    for a, b in zip(pts[1:-1], pts[2:]):
        d = math.hypot(b.lam - a.lam, b.norm - a.norm)
        assert 0.05 * b.ds <= d <= 20.0 * b.ds


def test_branch_determinism(grid512, ref_model, branch_cfg, ref_branch):
    again = continue_branch(grid512, ref_model, branch_cfg)
    assert len(again.points) == len(ref_branch.points)
    assert np.array_equal(again.lambdas(), ref_branch.lambdas())
    assert np.array_equal(again.norms(), ref_branch.norms())


def test_fold_reproducible_across_grids(ref_branch, ref_model, mu_h512):
    # tol 1e-9 clears the representation floor eps*(2/h^2) at M = 1024
    cfg = ContinuationConfig(ds0=0.01, ds_min=1e-8, ds_max=0.25,
                             eps_step_off=1e-4, lambda_stop_low=0.2,
                             max_points=1000,
                             tol_residual=1e-9)
    kappa512 = ref_branch.fold.lam_bar / mu_h512
    for M in (128, 1024):
        grid = build_grid(3, 1.0, M)
        branch = continue_branch(grid, ref_model, cfg)
        assert branch.fold is not None
        # lam = mu_h kappa: the fold kappa is a model constant, the same on
        # every grid up to rounding
        mu_h = 1.0 / float(solve_flux_bvp(grid, 1.0)[-1])
        assert abs(branch.fold.lam_bar / mu_h - kappa512) <= 1e-14 * kappa512
        # every point solves the grid-free system t1 = k f1(t2), t2 = k f2(t1)
        for p in branch.points[1:]:
            t1, t2 = float(p.state.u1[-1]), float(p.state.u2[-1])
            k, scale = p.lam / mu_h, max(1.0, t1, t2)
            assert abs(t1 - k * eval_f(ref_model, 1, t2)) <= 1e-12 * scale
            assert abs(t2 - k * eval_f(ref_model, 2, t1)) <= 1e-12 * scale


def _numpy_corrector(ts, extra, x0, tol):
    """The trace Newton iteration as it was before it worked on floats: x,
    the flux rows and their Jacobian as numpy arrays, the bordered system
    stacked with vstack and append, the step by np.linalg.solve.  Kept as
    the reference the float iteration matches to rounding."""
    m, mu = ts.model, ts.mu_h

    def rows(x):
        t1, t2, lam = x
        return np.array([mu * t1 - lam * f_extended(m, 1, t2),
                         mu * t2 - lam * f_extended(m, 2, t1)])

    def jac(x):
        t1, t2, lam = x
        return np.array([
            [mu, -lam * fprime_extended(m, 1, t2), -f_extended(m, 1, t2)],
            [-lam * fprime_extended(m, 2, t1), mu, -f_extended(m, 2, t1)]])

    def admissible(x):
        return bool(x[2] > 0.0 and np.all(np.isfinite(x)))

    def rnorm(x):
        return float(np.abs(rows(x)).max()) / max(1.0, abs(x[0]), abs(x[1]))

    x, history = np.array(x0, dtype=float), []
    for it in range(MAX_NEWTON_ITER + 1):
        if not admissible(x):
            raise NonConvergenceError("iterate left the admissible region")
        res = rows(x)
        value, grad = extra(x)
        history.append(rnorm(x))
        converged = history[-1] <= tol and abs(value) <= tol
        if it == MAX_NEWTON_ITER and not converged:
            raise NonConvergenceError(
                f"no convergence in {MAX_NEWTON_ITER} iterations")
        try:
            step = x + np.linalg.solve(np.vstack([jac(x), grad]),
                                       -np.append(res, value))
        except np.linalg.LinAlgError as exc:
            if not converged:
                raise NonConvergenceError(f"singular Jacobian: {exc}")
            step = x
        if converged:
            x = step if admissible(step) else x
            return tuple(x.tolist()), history + [rnorm(x)]
        x = step


def _ulps(a, b):
    """The largest count of doubles between a and b, elementwise; values
    of one sign."""
    a, b = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    return int(np.abs(a - b).max())


def _branch_record(branch):
    """A branch's step record, the (lam, t1, t2) of its points, and the
    lam and (t1, t2) of its folds."""
    steps = [(p.corrector_iterations, p.ulp_shift) for p in branch.points]
    return ((steps, len(branch.folds), branch.termination),
            [(p.lam, p.t1, p.t2) for p in branch.points],
            [f.lam_bar for f in branch.folds],
            [(f.t1, f.t2) for f in branch.folds])


def _fixed_lambda_solves(grid, model):
    """newton_solve's step count, positivity and state from a few starts
    on both sides of the fold, at a tolerance above the M = 512
    representation floor."""
    phi, out = steklov_eigenpair(grid).phi1, []
    for lam in (0.05, LAMBDA_MID, 0.5):
        for amp in (0.01, 0.5, 3.0):
            r = newton_solve(grid, model, lam,
                             SystemState(amp * phi, amp * phi), tol=1e-9)
            out.append((r.iterations, r.positive, r.state))
    return out


@pytest.mark.parametrize("M", [128, 512])
def test_float_corrector_matches_the_numpy_one_to_rounding(
        M, grid512, ref_branch, ref_model, branch_cfg, monkeypatch):
    # continuation and newton_solve run the one trace Newton iteration;
    # the adjugate step rounds otherwise than LAPACK's: by at most 1 ulp
    # at the branch points and in every fold lam, and by up to 11 ulps in
    # the fold traces and in the fixed-lam states near the fold.  There
    # the float step lies nearer the exact roots: the M = 512 fold traces
    # within 1.3 ulps of the trace system's (LAPACK's 7.4 and 9.7), the
    # fixed-lam traces at M = 128 within 2.6 ulps (LAPACK's 8.4 and 4.5)
    import radbif.continuation as cont
    import radbif.solver as solver
    grid = grid512 if M == 512 else build_grid(3, 1.0, M)
    new = (ref_branch if M == 512
           else continue_branch(grid, ref_model, branch_cfg))
    new_solves = _fixed_lambda_solves(grid, ref_model)
    monkeypatch.setattr(cont, "_trace_newton", _numpy_corrector)
    monkeypatch.setattr(solver, "_trace_newton", _numpy_corrector)
    old = continue_branch(grid, ref_model, branch_cfg)
    assert old.fold is not None and old.termination == "lambda_floor"
    steps, points, fold_lams, fold_traces = _branch_record(new)
    steps0, points0, fold_lams0, fold_traces0 = _branch_record(old)
    assert steps == steps0
    assert _ulps(points, points0) <= 2
    assert _ulps(fold_lams, fold_lams0) <= 2
    assert _ulps(fold_traces, fold_traces0) <= 16
    old_solves = _fixed_lambda_solves(grid, ref_model)
    assert [s[:2] for s in new_solves] == [s[:2] for s in old_solves]
    for (_, positive, a), (_, _, b) in zip(new_solves, old_solves):
        if positive:
            assert _ulps([a.u1, a.u2], [b.u1, b.u2]) <= 16


def test_no_lapack_solve_in_continuation_or_newton(grid128, two_fold_model,
                                                   ref_model, branch_cfg,
                                                   monkeypatch):
    # the trace Newton step is float arithmetic: with np.linalg.solve
    # unavailable, a branch through two turns of lam and a fixed-lam
    # solve give the same results
    branch = continue_branch(grid128, two_fold_model, branch_cfg)
    phi = steklov_eigenpair(grid128).phi1
    init = SystemState(0.5 * phi, 0.5 * phi)
    solve = newton_solve(grid128, ref_model, LAMBDA_MID, init)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refused)
    again = continue_branch(grid128, two_fold_model, branch_cfg)
    assert len(again.folds) == 2
    assert _branch_record(again) == _branch_record(branch)
    r = newton_solve(grid128, ref_model, LAMBDA_MID, init)
    assert r.history == solve.history
    assert r.state.u1.tobytes() == solve.state.u1.tobytes()
    assert r.state.u2.tobytes() == solve.state.u2.tobytes()


def test_a_converged_singular_system_returns_the_iterate(grid128):
    # the linear model's mu0 is mu_h exactly, so at the trivial state the
    # fixed-lam system's determinant mu_h^2 - mu0^2 is zero once converged
    model = linear_model()
    mu0 = bifurcation_point(model, steklov_eigenpair(grid128).mu1)
    r = newton_solve(grid128, model, mu0, SystemState.zero(grid128))
    assert r.iterations == 1 and r.residual_norm == 0.0
    assert not r.positive
    assert r.history == [0.0, 0.0]


def test_a_tail_cutoff_at_or_above_mu0_is_refused(grid128, ref_model):
    mu0 = bifurcation_point(ref_model, steklov_eigenpair(grid128).mu1)
    for cutoff in (mu0, 0.5):
        with pytest.raises(ConfigError, match=f"mu0 = {mu0}:"):
            continue_branch(grid128, ref_model,
                            ContinuationConfig(lambda_stop_low=cutoff))


def _sign_flips(branch):
    """Count of tangent signs opposite to the last nonzero one before them."""
    signs = [p.tangent_lambda_sign for p in branch.points
             if p.tangent_lambda_sign != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@pytest.mark.parametrize("which", ["reference", "two-fold"])
def test_every_flip_is_one_fold_row_solve(which, grid128, ref_model,
                                          two_fold_model, monkeypatch):
    # each turn of lam is one Newton solve of the extended system, started
    # at the extreme point of the three around its flip, not a bisection
    # of corrector solves along the arclength
    import radbif.continuation as cont
    model = ref_model if which == "reference" else two_fold_model
    corrector, solves = cont._trace_newton, []

    def counting(ts, extra, x0, tol):
        out = corrector(ts, extra, x0, tol)
        if extra == ts.fold_row:
            solves.append((np.array(x0), len(out[1]) - 1))
        return out

    monkeypatch.setattr(cont, "_trace_newton", counting)
    branch = continue_branch(grid128, model, FAST_CFG)
    assert len(solves) == len(branch.folds) == _sign_flips(branch)
    assert len(branch.folds) == (1 if which == "reference" else 2)
    lams = branch.lambdas()
    for (x0, steps), fold in zip(solves, branch.folds):
        assert steps <= MAX_NEWTON_ITER
        start = branch.points[fold.index]
        assert np.array_equal(x0, [start.state.u1[-1], start.state.u2[-1],
                                   start.lam])
        # the start is the window's extreme: a maximum from above no
        # sample, a minimum from below none
        k = fold.index
        window = lams[max(k - 2, 0):k + 3]
        if fold is branch.fold:
            assert start.lam == window.max() and fold.lam_bar >= start.lam
        else:
            assert start.lam == window.min() and fold.lam_bar <= start.lam
    assert lams.max() <= branch.fold.lam_bar


def test_fold_scan_forms_no_second_derivative(grid512, two_fold_model,
                                              two_fold_branch, monkeypatch):
    # the scan for sign changes reads fold_value, which forms no f_i'':
    # _fpp runs in no call before the first fold solve, and the folds are
    # those of the traced branch
    import radbif.continuation as cont
    import radbif.solver as solver
    fpp, calls = solver._fpp, []

    def counting(*args):
        calls.append(args)
        return fpp(*args)

    class FirstSolve(Exception):
        pass

    def stop(*args):
        raise FirstSolve

    monkeypatch.setattr(solver, "_fpp", counting)
    ts = _TraceSystem(grid512, two_fold_model)
    branch = dataclasses.replace(two_fold_branch, folds=[], fold=None)
    with monkeypatch.context() as mp:
        mp.setattr(cont, "_trace_newton", stop)
        with pytest.raises(FirstSolve):
            cont._locate_folds(ts, branch, branch.tol)
    assert calls == []
    cont._locate_folds(ts, branch, branch.tol)
    assert calls  # the fold solves still steer by fold_row's gradient
    assert len(branch.folds) == 2
    assert branch.folds == two_fold_branch.folds
    assert branch.fold == two_fold_branch.fold


@pytest.mark.parametrize("which", ["reference", "two-fold"])
def test_fold_solve_starts_at_the_point_before_the_flip(which, ref_branch,
                                                         two_fold_branch):
    # a flip at point k, a tangent sign opposite to that of point k-1, is
    # solved from point k-1; no two neighbours share a lam, so k-1 is the
    # strict extreme of points k-2 .. k
    branch = ref_branch if which == "reference" else two_fold_branch
    signs = [p.tangent_lambda_sign for p in branch.points]
    assert signs[0] == 0 and 0 not in signs[1:]
    flips = [k for k in range(2, len(signs)) if signs[k] != signs[k - 1]]
    assert [f.index for f in branch.folds] == [k - 1 for k in flips]
    assert len(flips) == (1 if which == "reference" else 2)
    lams = branch.lambdas()
    for k in flips:
        others = (lams[k - 2], lams[k])
        if signs[k - 1] > 0:  # a maximum
            assert lams[k - 1] > max(others)
        else:
            assert lams[k - 1] < min(others)


def test_failed_fold_solve_raises(grid128, ref_model, two_fold_model,
                                  monkeypatch):
    # a fold solve that fails is an error, never replaced by a sample
    import radbif.continuation as cont
    corrector = cont._trace_newton

    def no_fold(ts, extra, *args, **kwargs):
        if extra == ts.fold_row:
            raise NonConvergenceError("forced fold failure")
        return corrector(ts, extra, *args, **kwargs)

    monkeypatch.setattr(cont, "_trace_newton", no_fold)
    with pytest.raises(ContinuationError, match="forced fold failure") as exc:
        continue_branch(grid128, ref_model, FAST_CFG)
    assert exc.value.last_point is not None and exc.value.last_point.norm > 0.0
    monkeypatch.setattr(cont, "_trace_newton", corrector)

    # a solve that leaves the positive cone, or ends above the start of a
    # minimum or below the start of a maximum, is not a fold either.  The
    # scaled points below are no solutions, so the fold's re-check is
    # passed through here: the bracket checks alone are under test
    branch = continue_branch(grid128, two_fold_model, FAST_CFG)
    ts = _TraceSystem(grid128, two_fold_model)
    monkeypatch.setattr(cont, "_verify",
                        lambda grid, ts, x, tol: (x[0], x[1], 0, 0.0, None))
    for scale, why in (([-1.0, 1.0, 1.0], "positive cone"),
                       ([1.0, 1.0, 1.001], "wrong side"),
                       ([1.0, 1.0, 0.999], "wrong side")):
        solves = []

        def scaled(ts, extra, x0, tol):
            solves.append(x0)
            return tuple((np.array(x0) * scale).tolist()), [0.0, 0.0]

        monkeypatch.setattr(cont, "_trace_newton", scaled)
        with pytest.raises(ContinuationError, match=why):
            cont._locate_folds(ts, Branch(grid128, two_fold_model,
                                          points=branch.points), 1e-10)
        # each failing turn is tried from both ends of its bracket: 1.001
        # fails at the first turn, a minimum; 0.999 at the maximum
        assert len(solves) == (3 if scale[2] == 0.999 else 2)


def test_every_fold_is_rechecked_in_full_space(grid128, two_fold_model,
                                               monkeypatch):
    # a fold passes the full-space re-check of every branch point, and
    # keeps the traces of the rounding that passed; a fold whose re-check
    # fails from both ends of its bracket raises, naming that fold
    import radbif.continuation as cont
    branch = continue_branch(grid128, two_fold_model, FAST_CFG)
    ts = _TraceSystem(grid128, two_fold_model)
    minimum, maximum = branch.folds
    assert minimum.lam_bar < maximum.lam_bar and branch.fold is maximum
    verify, tried = cont._verify, []

    def shifted(grid, ts, x, tol):
        t1, t2, *rest = verify(grid, ts, x, tol)
        return (math.nextafter(t1, 2.0), t2, *rest)

    monkeypatch.setattr(cont, "_verify", shifted)
    again = Branch(grid128, two_fold_model, points=branch.points)
    cont._locate_folds(ts, again, branch.tol)
    assert [f.t1 for f in again.folds] == [
        math.nextafter(f.t1, 2.0) for f in branch.folds]

    def failing(grid, ts, x, tol):
        if x[2] > minimum.lam_bar + 1e-6:
            tried.append(x)
            raise NonConvergenceError("forced re-check failure")
        return verify(grid, ts, x, tol)

    monkeypatch.setattr(cont, "_verify", failing)
    again = Branch(grid128, two_fold_model, points=branch.points)
    with pytest.raises(ContinuationError, match="forced re-check failure") as exc:
        cont._locate_folds(ts, again, branch.tol)
    a, b = map(int, re.search(r"lam maximum between points (\d+) and (\d+)",
                              str(exc.value)).groups())
    assert b == a + 1 and maximum.index in (a, b)
    assert exc.value.last_point in branch.points[a:b + 1]
    assert len(tried) == 2
    assert again.folds == [minimum]


def test_branch_ends_on_corrector_failure_keeping_its_points(
        grid128, ref_model, monkeypatch):
    import radbif.continuation as cont
    verify, calls = cont._verify, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 4:  # the step-off and three steps pass
            raise NonConvergenceError("forced re-check failure")
        return verify(*args, **kwargs)

    monkeypatch.setattr(cont, "_verify", failing)
    cfg = ContinuationConfig(ds0=0.01, ds_min=0.0025, lambda_stop_low=0.2)
    branch = continue_branch(grid128, ref_model, cfg)
    assert branch.termination == "corrector_failure"
    assert len(branch.points) == 5  # the anchor, the step-off, three steps
    assert all(p.norm > 0.0 for p in branch.points[1:])
    # every halving from the last ds down to ds_min was tried and counted
    assert branch.rejections == len(calls) - 4 >= 2
    assert "forced re-check failure" in branch.last_rejection


@pytest.mark.parametrize("ds", [1e-30, 1e-20])
def test_a_step_that_rounds_to_nothing_is_rejected(ds, grid128, ref_model):
    """A step far below the tolerance and the ulps of the traces meets the
    arclength row at any advance rounding gives.  It is rejected with the
    advance made and the step asked, so the branch ends after its step-off
    with one rejection and a reason, and t1 never goes backwards (checked
    by the session fixture in conftest.py)."""
    cfg = ContinuationConfig(ds0=ds, ds_min=ds, ds_max=ds)
    branch = continue_branch(grid128, ref_model, cfg)
    assert branch.termination == "corrector_failure"
    assert len(branch.points) == 2  # the anchor and the step-off
    assert branch.rejections == 1
    assert branch.last_rejection.startswith("step advanced ")
    assert branch.last_rejection.endswith(f"along the secant, {ds:.3g} asked")


def test_failed_step_off_raises_with_the_trivial_anchor(grid128, ref_model,
                                                       monkeypatch):
    import radbif.continuation as cont

    def failing(*args, **kwargs):
        raise NonConvergenceError("forced corrector failure")

    monkeypatch.setattr(cont, "_trace_newton", failing)
    with pytest.raises(ContinuationError,
                       match="forced corrector failure") as info:
        continue_branch(grid128, ref_model, FAST_CFG)
    anchor = info.value.last_point
    assert anchor.lam == bifurcation_point(ref_model,
                                           steklov_eigenpair(grid128).mu1)
    assert anchor.norm == 0.0 and not anchor.state.u1.any()


def test_solutions_at_counts(ref_branch, grid512, ref_model, mu0_ref,
                             mu_h512):
    from radbif import pair_norm

    def check_traces(lam, states):
        # each state's traces solve the trace system (independent oracle)
        for st in states:
            t1, t2 = float(st.u1[-1]), float(st.u2[-1])
            got = trace_system_solve(
                mu_h512,
                lambda t: lam * eval_f(ref_model, 1, t),
                lambda t: lam * eval_f(ref_model, 2, t),
                lambda t: lam * fprime_extended(ref_model, 1, t),
                lambda t: lam * fprime_extended(ref_model, 2, t), t1, t2)
            scale = max(1.0, t1, t2)
            assert abs(got[0] - t1) <= 1e-12 * scale, lam
            assert abs(got[1] - t2) <= 1e-12 * scale, lam

    # the values near the fold have both roots of q_lam in the two branch
    # intervals next to the fold trace; 0.3332077382 lies between the
    # largest sampled lam and the exact fold, so only the fold node
    # separates them.  mu0 + 1e-6 has its lower root between the trivial
    # anchor and the step-off point.
    for lam in (LAMBDA_MID, 0.3329574, 0.3330077, 0.3330580, 0.3331083,
                0.3331586, 0.3332077382, mu0_ref + 1e-6):
        two = solutions_at(ref_branch, lam)
        assert len(two) == 2, lam
        gap = abs(pair_norm(two[1]) - pair_norm(two[0]))
        assert gap > 1e-3
        for st in two:
            assert scaled_residual_norm(
                residual(grid512, ref_model, lam, st), st) <= 1e-10
        check_traces(lam, two)
    assert 0.0 < two[0].u1[-1] < ref_branch.points[1].state.u1[-1]

    for lam in (mu0_ref - 0.005, 0.01):
        one = solutions_at(ref_branch, lam)
        assert len(one) == 1, lam
        check_traces(lam, one)

    none = solutions_at(ref_branch, 0.34)
    assert none == []

    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            solutions_at(ref_branch, lam)


def test_the_continuation_tolerance_verifies_every_state(grid128, ref_model,
                                                        monkeypatch):
    # cfg.tol_residual is the branch's tol and the one tolerance of the
    # corrector, the fold solves and every re-check, solutions_at's too
    import radbif.continuation as cont
    cfg = dataclasses.replace(FAST_CFG, tol_residual=1e-9)
    verify, corrector = cont._verify, cont._trace_newton
    tols, corrector_tols = [], set()

    def recording(grid, ts, x, tol):
        tols.append(tol)
        return verify(grid, ts, x, tol)

    def recording_corrector(ts, extra, x0, tol):
        corrector_tols.add(tol)
        return corrector(ts, extra, x0, tol)

    monkeypatch.setattr(cont, "_verify", recording)
    monkeypatch.setattr(cont, "_trace_newton", recording_corrector)
    branch = continue_branch(grid128, ref_model, cfg)
    assert branch.tol == 1e-9 and corrector_tols == {1e-9}
    assert set(tols) == {1e-9}
    assert len(tols) >= len(branch.points) - 1  # a re-check per point
    assert all(p.residual <= 1e-9 for p in branch.points[1:])
    tols.clear()
    states = solutions_at(branch, 0.5 * (branch.points[0].lam
                                         + branch.fold.lam_bar))
    assert len(states) == 2
    assert tols == [1e-9] * 2
    assert ContinuationConfig().tol_residual == 1e-10
    assert continue_branch(grid128, ref_model, FAST_CFG).tol == 1e-10


def test_solutions_at_polishes_once_per_root(ref_branch, grid512, ref_model,
                                             monkeypatch):
    # roots come from the scalar trace equation: no corrector solve, one
    # full-space re-check per returned state
    import radbif.continuation as cont
    calls = []
    verify = cont._verify
    monkeypatch.setattr(cont, "_trace_newton",
                        lambda *a, **k: calls.append("corrector"))
    monkeypatch.setattr(cont, "_verify",
                        lambda *a, **k: calls.append("verify") or verify(*a, **k))
    states = solutions_at(ref_branch, LAMBDA_MID)
    assert len(states) == 2
    assert calls == ["verify", "verify"]


def test_solutions_at_states_reconverged(ref_branch, grid512, ref_model):
    for st in solutions_at(ref_branch, LAMBDA_MID):
        rnorm = scaled_residual_norm(
            residual(grid512, ref_model, LAMBDA_MID, st), st)
        assert rnorm <= 1e-10
        assert st.u1.min() > 0.0 and st.u2.min() > 0.0


@pytest.fixture(scope="module")
def quad_branch128(grid128, branch_cfg):
    # quadratic_model's branch has no fold: lam falls from mu0 all the way
    return continue_branch(grid128, quadratic_model(), branch_cfg)


def _top(branch):
    """Index and lam of the branch's highest node: the fold, or the
    anchor at mu0 when the branch has none."""
    if branch.fold is not None:
        return branch.fold.index, branch.fold.lam_bar
    return 0, branch.points[0].lam


def _node_lams(branch):
    """The lam values of the nodes in t1 order, every fold included: the
    levels solutions_at's brackets are read from."""
    nodes = {float(p.state.u1[-1]): p.lam for p in branch.points}
    for fold in branch.folds:
        nodes.setdefault(fold.t1, fold.lam_bar)
    return [nodes[t] for t in sorted(nodes)]


@pytest.fixture(scope="module")
def two_fold_branch128(grid128, two_fold_model, branch_cfg):
    return continue_branch(grid128, two_fold_model, branch_cfg)


@pytest.fixture(scope="module")
def cubic_branch512(grid512, branch_cfg):
    # f1 = s - 1.2 s^2 + 0.5 s^3, f2 = s + s^2: one fold, near 0.4823
    model = radbif.polynomial_model([0.0, 1.0, -1.2, 0.5], [0.0, 1.0, 1.0])
    return continue_branch(grid512, model, branch_cfg)


@pytest.mark.parametrize("which", ["reference-512", "quadratic-128",
                                   "two-fold-512", "two-fold-128",
                                   "cubic-512"])
def test_solutions_at_equals_the_node_scan_bit_for_bit(which, request):
    # the level-crossing brackets give the states of the exhaustive scan,
    # bit for bit: across the range, on and next to every node lam near
    # the top, on and one ulp either side of every fold, and just above
    # mu0.  One ulp above a fold, q_lam's noise can put the scan's sign
    # changes between nodes whose lam values do not enclose lam (the
    # two-fold branches and cubic-512, at one set of operator bits or
    # another); a node within 8 ulps of lam counts as a crossing for that.
    from conftest import scan_solutions_at
    branch = request.getfixturevalue({
        "reference-512": "ref_branch", "quadratic-128": "quad_branch128",
        "two-fold-512": "two_fold_branch", "two-fold-128": "two_fold_branch128",
        "cubic-512": "cubic_branch512"}[which])
    mu0 = branch.points[0].lam
    top, high = _top(branch)
    lams = list(np.linspace(0.5 * mu0, 1.05 * high, 200))
    for p in branch.points[max(top - 20, 0):top + 21]:
        lams += [p.lam, np.nextafter(p.lam, 0.0), np.nextafter(p.lam, 1.0)]
    for level in [high] + [f.lam_bar for f in branch.folds]:
        lams += [level, np.nextafter(level, 0.0), np.nextafter(level, 1.0)]
    lams += [mu0 + 1e-6, mu0 + 1e-10]
    counts = set()
    for lam in map(float, lams):
        got, want = solutions_at(branch, lam), scan_solutions_at(branch, lam)
        assert len(got) == len(want), lam
        for a, b in zip(got, want):
            assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2), lam
        counts.add(len(got))
    assert counts == set(range(len(branch.folds) + 2))


def _probe_lams(branch):
    """300 lam across (mu0 / 2, top), mu0 + 1e-10, mu0 + 1e-6, and every
    fold with one ulp either side: where q_lam is flattest and its roots
    meet."""
    mu0 = branch.points[0].lam
    lams = list(np.linspace(0.5 * mu0, _top(branch)[1], 300))
    lams += [mu0 + 1e-10, mu0 + 1e-6]
    for fold in branch.folds:
        lams += [fold.lam_bar, np.nextafter(fold.lam_bar, 0.0),
                 np.nextafter(fold.lam_bar, 1.0)]
    return [float(lam) for lam in lams]


@pytest.fixture(scope="module")
def root_probes(ref_branch, two_fold_branch):
    """Per branch, every root solutions_at finds at the _probe_lams as
    (lam, lo, hi, q_lo, q_hi, root, q values spent)."""
    q, root = _TraceSystem.q, _TraceSystem.root
    spent = []

    def counting_q(self, t, lam):
        spent.append(t)
        return q(self, t, lam)

    def recording_root(self, lam, lo, hi, q_lo, q_hi):
        spent.clear()
        t = root(self, lam, lo, hi, q_lo, q_hi)
        found.append((lam, lo, hi, q_lo, q_hi, t, len(spent)))
        return t

    probes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_TraceSystem, "q", counting_q)
        mp.setattr(_TraceSystem, "root", recording_root)
        for which, branch in (("reference-512", ref_branch),
                              ("two-fold-512", two_fold_branch)):
            found = probes[which] = []
            for lam in _probe_lams(branch):
                solutions_at(branch, lam)
    return probes


@pytest.mark.parametrize("which", ["reference-512", "two-fold-512"])
def test_every_root_is_a_sign_change_of_q(which, ref_branch, two_fold_branch,
                                          root_probes):
    # the root contract, read from q itself: an exact zero, or the lo end
    # of two adjacent doubles whose computed q values have opposite signs
    branch = {"reference-512": ref_branch,
              "two-fold-512": two_fold_branch}[which]
    ts = _TraceSystem(branch.grid, branch.model)
    probes = root_probes[which]
    assert len(probes) >= 300
    for lam, lo, hi, q_lo, q_hi, t, _ in probes:
        assert q_lo == ts.q(lo, lam) and q_hi == ts.q(hi, lam)
        assert lo <= t < hi, lam
        q_t, q_next = ts.q(t, lam), ts.q(math.nextafter(t, math.inf), lam)
        assert (q_t == 0.0 or (q_t > 0.0 and q_next < 0.0)
                or (q_t < 0.0 and q_next > 0.0)), lam


@pytest.mark.parametrize("which", ["reference-512", "two-fold-512"])
def test_roots_spend_few_q_values(which, root_probes):
    # plain bisection spent about 50 q values on every root
    spent = [n for *_, n in root_probes[which]]
    assert np.mean(spent) <= 16 and max(spent) <= 64


@pytest.mark.parametrize("which", ["reference-512", "two-fold-512"])
def test_solutions_at_agrees_with_the_bisected_roots(which, ref_branch,
                                                     two_fold_branch,
                                                     monkeypatch):
    # away from mu0 and the folds, where q_lam is not flat, the roots move
    # only inside q's noise band: the same states as with plain bisection,
    # up to 1e-12 relative in pair norm.  The states are verified at the
    # command line's tolerance for this grid, twice the representation
    # floor eps 2/h^2.  At the branches' own 1e-10, below that floor at
    # M = 512, about one root in nine below mu0 fails its re-check with
    # either root finder, so whether a state is kept there turns on which
    # double of the noise band is rebuilt.
    from radbif import pair_norm
    branch = {"reference-512": ref_branch,
              "two-fold-512": two_fold_branch}[which]
    floor = np.finfo(float).eps * 2.0 / branch.grid.h ** 2
    branch = dataclasses.replace(branch, tol=2.0 * floor)
    levels = [branch.points[0].lam] + [f.lam_bar for f in branch.folds]
    lams = [lam for lam in _probe_lams(branch)
            if min(abs(lam - level) for level in levels) >= 1e-6]
    assert len(lams) >= 290
    got = [solutions_at(branch, lam) for lam in lams]
    monkeypatch.setattr(
        _TraceSystem, "root", lambda self, lam, lo, hi, q_lo, q_hi:
        bisect_root(lambda t: self.q(t, lam), lo, hi))
    counts = set()
    for lam, states in zip(lams, got):
        want = solutions_at(branch, lam)
        assert len(states) == len(want), lam
        for a, b in zip(states, want):
            assert pair_norm(a) == pytest.approx(pair_norm(b), rel=1e-12), lam
        counts.add(len(states))
    assert counts == set(range(1, len(branch.folds) + 2))


@pytest.mark.parametrize("which", ["reference-128", "quadratic-128"])
def test_solutions_at_evaluates_q_per_level_crossing(which, grid128,
                                                     ref_model, monkeypatch):
    # at most four q values per node pair whose lam values enclose lam,
    # outside the root iteration: the same bound on long branches, traced
    # with ds_max = 0.005 to about 600 and 700 points
    model = ref_model if which == "reference-128" else quadratic_model()
    cfg = ContinuationConfig(ds0=0.005, ds_max=0.005, max_points=4000)
    branch = continue_branch(grid128, model, cfg)
    levels = _node_lams(branch)
    mu0 = branch.points[0].lam
    top, high = _top(branch)
    calls, in_root = [], []
    q, root = _TraceSystem.q, _TraceSystem.root

    def counting_q(self, t, lam):
        if not in_root:
            calls.append(t)
        return q(self, t, lam)

    def flagged_root(self, *args):
        in_root.append(1)
        try:
            return root(self, *args)
        finally:
            in_root.pop()

    monkeypatch.setattr(_TraceSystem, "q", counting_q)
    monkeypatch.setattr(_TraceSystem, "root", flagged_root)
    lams = list(np.linspace(0.5 * mu0, 1.05 * high, 40))
    lams += [branch.points[top + 1].lam, np.nextafter(high, 0.0),
             mu0 + 1e-6, 2.0 * branch.points[-1].lam]
    for lam in map(float, lams):
        calls.clear()
        solutions_at(branch, lam)
        crossings = sum((lam - a) * (lam - b) <= 0.0
                        for a, b in zip(levels, levels[1:]))
        assert len(calls) <= 4 * crossings, lam
    assert len(branch.points) > 400


def test_linear_model_branch_is_refused(grid512, monkeypatch):
    # degenerate linear model: p1 p2 = 1, so every nontrivial state sits at
    # lam = mu0 and there is no tail to trace; continue_branch refuses it
    # with the rule of theta_exponents before its first corrector step
    import radbif.continuation as cont

    def no_step(*args):
        raise AssertionError("corrector ran for a refused model")

    monkeypatch.setattr(cont, "_trace_newton", no_step)
    with pytest.raises(ConfigError, match=r"p1\*p2 > 1"):
        continue_branch(grid512, linear_model(), ContinuationConfig(max_points=50))


def test_rebuild_rounds_once_from_the_longdouble_profile(grid512, ref_model,
                                                          eig512, ref_branch):
    phi_ext = eig512.profile
    assert phi_ext.dtype == np.longdouble and phi_ext[-1] == 1.0
    assert steklov_eigenpair(grid512).profile is phi_ext
    # the profile solves the interior rows to longdouble rounding, far
    # below what the double phi1 can (about 2e-16 of the row scale)
    scale = 2.0 / grid512.h ** 2 + 1.0
    res = _stencil(grid512, phi_ext[:, None])[:-1]
    assert res.dtype == np.longdouble
    assert float(np.abs(res).max()) / scale <= 1e-18
    assert np.abs(phi_ext - eig512.phi1).max() <= 1e-15
    rng = np.random.default_rng(3)
    for x in (*rng.uniform(0.0, 50.0, (10, 3)), (1e-4, 3e-4, 0.3), (1e5, 7.5, 1e-3)):
        st = _on_ray(phi_ext, x[0], x[1])
        for t, u in zip(x, (st.u1, st.u2)):
            np.testing.assert_array_equal(
                u[1:], (np.longdouble(t) * phi_ext[1:]).astype(float))
            assert u[-1] == t
            # u_0 is the root of row 0 given the rounded u_1, rounded once,
            # so row 0 keeps at most half an ulp of u_0 times 2N/h^2 + 1
            assert u[0] == float(phi_ext[0] / phi_ext[1] * u[1])
            row0 = _stencil(grid512, u[:, None].astype(np.longdouble))[0, 0]
            coeff = 2.0 * grid512.N_dim / grid512.h ** 2 + 1.0
            assert abs(float(row0)) <= 0.5 * coeff * math.ulp(u[0]) * (1 + 1e-6)
    # every accepted point is the rebuild from its own traces
    for p in ref_branch.points[1:]:
        st = _on_ray(phi_ext, p.state.u1[-1], p.state.u2[-1])
        np.testing.assert_array_equal(st.u1, p.state.u1)
        np.testing.assert_array_equal(st.u2, p.state.u2)


@pytest.mark.parametrize("which", ["reference-512", "two-fold-512",
                                   "reference-4096"])
def test_branch_points_are_their_traces(which, ref_branch, two_fold_branch,
                                        ref_model):
    # a point stores (t1, t2) and the grid's one profile; its state is
    # their rebuild, and its sups and norm are read off the traces
    from radbif import pair_norm
    if which == "reference-4096":
        branch = continue_branch(build_grid(3, 1.0, 4096), ref_model,
                                 ContinuationConfig(tol_residual=1e-8))
    else:
        branch = {"reference-512": ref_branch,
                  "two-fold-512": two_fold_branch}[which]
    profile = steklov_eigenpair(branch.grid).profile
    for p in branch.points:
        assert p.profile is profile
        state, rebuilt = p.state, _on_ray(profile, p.t1, p.t2)
        assert state.u1.tobytes() == rebuilt.u1.tobytes()
        assert state.u2.tobytes() == rebuilt.u2.tobytes()
        assert state.u1[-1] == p.t1 and state.u2[-1] == p.t2
        assert p.norm == p.t1 + p.t2 == pair_norm(state)
        assert p.residual <= branch.tol


def test_continuation_makes_no_newton_step(grid512, ref_model, two_fold_model,
                                           monkeypatch):
    # every point is checked on the kernel ray: once the grid is set up,
    # tracing, solutions_at and second_solution make no Newton solve and
    # no linear solve, which would need a new set-up of the grid's solver
    import radbif
    import radbif.continuation as cont

    def forbidden(*args, **kwargs):
        raise AssertionError("a Newton solve or a linear solve")

    assert not hasattr(cont, "newton_solve")
    steklov_eigenpair(grid512)
    monkeypatch.setattr(radbif.solver, "newton_solve", forbidden)
    monkeypatch.setattr(radbif.steklov, "_kernel_solver", forbidden)
    ref = continue_branch(grid512, ref_model, FAST_CFG)
    two = continue_branch(grid512, two_fold_model, FAST_CFG)
    assert ref.termination == two.termination == "lambda_floor"
    assert len(ref.folds) == 1 and len(two.folds) == 2
    assert len(solutions_at(ref, LAMBDA_MID)) == 2
    assert len(solutions_at(two, 0.35)) == 2
    minimal, upper = second_solution(grid512, ref_model, LAMBDA_MID, ref)
    assert radbif.pair_norm(minimal) < radbif.pair_norm(upper)


def test_most_rebuilt_points_need_no_polish_step(ref_branch):
    # tol 1e-10 lies below the representation floor eps*2/h^2 = 1.16e-10 of
    # M = 512; the once-rounded rebuild passes the re-check as it stands,
    # with no ulp shift, at every point of this branch
    accepted = ref_branch.points[1:]
    zero = sum(p.ulp_shift == 0 for p in accepted)
    assert zero >= 0.7 * len(accepted)


def test_a_tail_point_below_the_representation_floor_needs_a_shift(
        two_fold_branch):
    # tol 1e-10 below the floor eps*2/h^2 at M = 512: tail point 29 of the
    # two-fold branch (lam about 0.0356, past both folds) passes the
    # re-check only at -2 ulps of its traces, and it is the only shifted
    # point, so the re-check's roundings are still needed below the
    # command line's floor
    branch = two_fold_branch
    assert branch.termination == "lambda_floor" and branch.tol == 1e-10
    shifted = {i: p.ulp_shift for i, p in enumerate(branch.points)
               if p.ulp_shift}
    assert shifted == {29: -2}
    assert branch.points[29].lam == pytest.approx(0.03562, rel=1e-3)
    assert all(f.lam_bar > branch.points[29].lam for f in branch.folds)


def test_fine_grid_branch_keeps_its_fold_and_skips_the_polish(ref_model):
    # M = 4096 at tol 1e-8: at least 90 % of the points pass the re-check
    # with no ulp shift (all of them since the rebuild solves row 0 for
    # u_0), and the fold keeps its bits
    grid = build_grid(3, 1.0, 4096)
    cfg = ContinuationConfig(tol_residual=1e-8)
    branch = continue_branch(grid, ref_model, cfg)
    assert branch.termination == "lambda_floor"
    assert branch.fold.lam_bar == 0.33321029684945225
    accepted = branch.points[1:]
    zero = sum(p.ulp_shift == 0 for p in accepted)
    assert zero >= 0.9 * len(accepted)
    # every rebuilt state passes the full-space residual itself, not only
    # the figure the branch recorded
    for p in accepted:
        assert scaled_residual_norm(
            residual(grid, ref_model, p.lam, p.state), p.state) <= 1e-8
        assert p.state.u1.min() > 0.0 and p.state.u2.min() > 0.0


def _fold_oracle():
    """bench/fold_oracle.py, loaded by path: the fold as the maximum of
    lam(t1) along the trace curve, with no continuation code."""
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "fold_oracle.py"
    spec = importlib.util.spec_from_file_location("fold_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def two_fold_branches(two_fold_model, grid128, grid512, two_fold_branch):
    """The two-fold model's branch at M = 128 and 512 (tol 1e-10) and
    M = 4096 (tol 1e-8, above its representation floor)."""
    grid4096 = build_grid(3, 1.0, 4096)
    cfg4096 = ContinuationConfig(tol_residual=1e-8)
    return {128: (grid128, continue_branch(grid128, two_fold_model,
                                           ContinuationConfig())),
            512: (grid512, two_fold_branch),
            4096: (grid4096, continue_branch(grid4096, two_fold_model,
                                             cfg4096))}


@pytest.mark.parametrize("M", [128, 512, 4096])
def test_two_fold_branch_reports_the_true_maximum(M, two_fold_model,
                                                  two_fold_branches):
    # lam turns at a minimum and then at a maximum; branch.fold is the
    # maximum, within an ulp of the oracle's, and no point lies above it
    grid, branch = two_fold_branches[M]
    assert branch.termination == "lambda_floor"
    low, high = branch.folds
    assert branch.fold is high and low.lam_bar < high.lam_bar
    want = _fold_oracle().exact_fold(grid, two_fold_model)
    assert abs(high.lam_bar - want) <= np.spacing(want), (high.lam_bar, want)
    assert branch.lambdas().max() <= high.lam_bar


@pytest.mark.parametrize("M", [128, 512, 4096])
def test_two_fold_branch_solves_its_minimum_exactly(M, two_fold_model,
                                                    two_fold_branches):
    # the first turn is a minimum of lam below mu0: the fold row vanishes
    # there, the traces solve the flux rows, and no point before the
    # maximum lies below it
    grid, branch = two_fold_branches[M]
    low, high = branch.folds
    ts = _TraceSystem(grid, two_fold_model)
    assert abs(ts.fold_row((low.t1, low.t2, low.lam_bar))[0]) <= 1e-12
    (r1, r2), _ = ts.linearize(low.t1, low.t2, low.lam_bar)
    assert max(abs(r1), abs(r2)) <= 1e-12 * max(1.0, low.t1, low.t2)
    assert 0.0 < low.t1 < high.t1
    assert low.lam_bar < branch.points[0].lam
    assert low.lam_bar <= branch.lambdas()[:high.index + 1].min()


def test_solutions_at_counts_every_turn_of_the_two_fold_branch(
        two_fold_branch):
    # three states between the minimum and mu0, two up to the maximum,
    # none above it
    counts = {lam: len(solutions_at(two_fold_branch, lam))
              for lam in (0.3127, 0.313, 0.3135, 0.35, 0.3708, 0.3709)}
    assert counts == {0.3127: 3, 0.313: 3, 0.3135: 2, 0.35: 2, 0.3708: 2,
                      0.3709: 0}


@pytest.mark.parametrize("a, want", [
    (-1.145, (0.30777841954580626, 0.30847192233096715)),
    (-1.15, (0.30793275458015024, 0.3088448741699297))])
def test_close_turns_are_both_found(a, want, grid128):
    # f1 = s + a s^2 + s^3, f2 = s + 1.72 s^2: lam turns at a minimum and
    # then at a maximum less than 1e-3 above it.  At a = -1.145 one step
    # passes both turns while lam keeps falling, so no tangent sign flips;
    # the fold row's sign still changes twice.  A branch traced with
    # ds_max = 0.01 gives the same two values within an ulp
    model = radbif.polynomial_model([0.0, 1.0, a, 1.0], [0.0, 1.0, 1.72])
    branch = continue_branch(grid128, model, ContinuationConfig())
    assert branch.termination == "lambda_floor"
    assert [f.lam_bar for f in branch.folds] == pytest.approx(want, rel=1e-12)
    assert branch.fold is branch.folds[1]
    if a == -1.145:
        assert _sign_flips(branch) == 0


P = np.polynomial.polynomial


def _lam_curve(mu_h, c1, c2, t1):
    """lam(t1) = mu_h t1 / f1(t2) on an array t1 > 0, where t2 = H(t1)
    solves t2 f1(t2) = t1 f2(t1) for the coefficient lists c1, c2: a
    vectorized bisection down to adjacent doubles, with no radbif code."""
    target = t1 * P.polyval(t1, c2)
    lo, hi = np.zeros_like(t1), np.maximum(t1, 1.0)
    while np.any(short := hi * P.polyval(hi, c1) < target):
        hi = np.where(short, 2.0 * hi, hi)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        below = mid * P.polyval(mid, c1) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return mu_h * t1 / P.polyval(hi, c1)


def _turns(mu_h, c1, c2, t1):
    """lam at every turn of lam(t1) inside the sorted grid t1, each
    refined by three rounds of a 1001-point zoom around the extreme."""
    lam = _lam_curve(mu_h, c1, c2, t1)
    d = np.sign(np.diff(lam))
    values = []
    for k in np.flatnonzero(d[:-1] != d[1:]) + 1:
        sign, t = d[k - 1], t1[k - 1:k + 2]
        for _ in range(3):
            t = np.linspace(t[0], t[-1], 1001)
            curve = sign * _lam_curve(mu_h, c1, c2, t)
            j = min(max(int(np.argmax(curve)), 1), t.size - 2)
            t = t[j - 1:j + 2]
        values.append(float(curve.max() * sign))
    return values


def _random_model(rng):
    """Coefficients of f1, f2 of degree 3 or 2 with f(0) = 0, f'(0) > 0
    and a positive leading coefficient, each strictly increasing on s >= 0:
    a cubic's middle coefficient is b = c sqrt(3 f'(0) lead) with |c| < 1.
    A negative b can make the branch leave to the right and turn twice."""
    coeffs = []
    for _ in range(2):
        slope, lead = rng.uniform(0.2, 2.0), rng.uniform(0.05, 2.0)
        if rng.random() < 0.5:
            b = rng.uniform(-0.99, 0.99) * math.sqrt(3.0 * slope * lead)
            coeffs.append([0.0, slope, b, lead])
        else:
            coeffs.append([0.0, slope, lead])
    return coeffs


@given(seed=st.integers(0, 2**32 - 1))
def test_generated_models_keep_every_turn_and_every_state(seed, grid128):
    # on a random monotone model the branch reaches its floor, every turn
    # of the independent curve lam(t1) over the branch's t1 range is a
    # fold, the state counts equal the curve's level crossings at ten
    # random lam, and every point passes the full-space re-check
    rng = np.random.default_rng(seed)
    c1, c2 = _random_model(rng)
    model = radbif.polynomial_model(c1, c2)
    branch = continue_branch(grid128, model, ContinuationConfig())
    assert branch.termination == "lambda_floor"
    for p in branch.points:
        assert scaled_residual_norm(residual(grid128, model, p.lam, p.state),
                                    p.state) <= branch.tol

    mu_h = steklov_eigenpair(grid128).mu1
    t1 = np.geomspace(branch.points[1].t1, branch.points[-1].t1, 4000)
    turns = _turns(mu_h, c1, c2, t1)
    assert [f.lam_bar for f in branch.folds] == pytest.approx(turns, rel=1e-9)

    mu0 = branch.points[0].lam
    curve = np.concatenate(([mu0], _lam_curve(mu_h, c1, c2, t1)))
    low, high = branch.points[-1].lam, 1.05 * curve.max()
    for u in rng.uniform(size=10):
        lam = low + u * (high - low)
        if any(abs(lam - v) <= 1e-4 * v for v in turns + [mu0, low]):
            continue  # two roots may share a grid cell, or a root the end
        crossings = int(np.count_nonzero(np.diff(np.sign(curve - lam))))
        assert len(solutions_at(branch, lam)) == crossings, lam
