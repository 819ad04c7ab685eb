"""Branch tracing: step-off, arclength stepping, fold detection, slicing.

The session branch fixture is the reference continuation run at M = 512;
its fold location is checked against the independent trace-system value
0.33320994441151214 computed from the discrete eigenvalue reduction, and
every branch point against the trace-system oracle in conftest.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import band_loop, bisect_root, trace_system_solve
from radbif import (Branch, ConfigError, ContinuationConfig,
                    ContinuationError, bifurcation_point, build_grid,
                    continue_branch, eval_f, f_extended, fprime_extended,
                    initial_tangent, linear_model, operator_bands,
                    quadratic_model, residual, scaled_residual_norm,
                    solutions_at, solve_flux_bvp, steklov_eigenpair)
from radbif.continuation import (MAX_CORRECTOR_ITER, MAX_POLISH_ITER,
                                  _CorrectorFailure, _TraceSystem)
from radbif.grid import _unit_trace_extended

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


def test_step_off_amplitude_validation(grid512, ref_model, mu0_ref):
    for eps in (0.0, 0.2):
        with pytest.raises(ConfigError, match="eps_step_off"):
            ContinuationConfig(eps_step_off=eps)
    # amplitudes below the numerical zero floor cannot certify positivity;
    # the failure keeps the trivial anchor
    with pytest.raises(ContinuationError, match="could not leave the trivial "
                       "branch at eps=1e-30") as info:
        continue_branch(grid512, ref_model, ContinuationConfig(eps_step_off=1e-30))
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
    assert len(ref_branch.points) > 100
    lams = ref_branch.lambdas()
    norms = ref_branch.norms()
    assert lams.shape == norms.shape == (len(ref_branch.points),)
    assert lams[-1] <= 1e-3


def test_branch_fold_matches_trace_system(ref_branch, mu0_ref, ref_model,
                                          mu_h512):
    fold = ref_branch.fold
    assert fold.lam_bar == pytest.approx(LAMBDA_BAR_512, abs=1e-10)
    assert fold.lam_bar == 0.3332099444119068  # pinned to the bit
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
        assert 1 <= p.corrector_iterations <= MAX_CORRECTOR_ITER + 1
        assert 0 <= p.polish_iterations <= MAX_POLISH_ITER
        assert 0.0 <= p.residual <= tol
    # every rejected attempt is counted and the latest keeps its reason
    assert (ref_branch.rejections > 0) == bool(ref_branch.last_rejection)


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
    """The trace corrector as it was before it worked on floats: x, the
    flux rows and their Jacobian as numpy arrays, the bordered system
    stacked with vstack and append.  Kept as the bit-for-bit reference."""
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

    x = np.array(x0, dtype=float)
    for it in range(MAX_CORRECTOR_ITER + 1):
        if not admissible(x):
            raise _CorrectorFailure("iterate left the admissible region")
        res = rows(x)
        value, grad = extra(x)
        rnorm = float(np.abs(res).max()) / max(1.0, abs(x[0]), abs(x[1]))
        converged = rnorm <= tol and abs(value) <= tol
        if it == MAX_CORRECTOR_ITER and not converged:
            raise _CorrectorFailure(
                f"no convergence in {MAX_CORRECTOR_ITER} iterations")
        try:
            step = x + np.linalg.solve(np.vstack([jac(x), grad]),
                                       -np.append(res, value))
        except np.linalg.LinAlgError as exc:
            if not converged:
                raise _CorrectorFailure(f"singular bordered system: {exc}")
            step = x
        if converged:
            return (step if admissible(step) else x), it + 1
        x = step
    raise _CorrectorFailure("unreachable")


def _branch_bits(branch):
    """Every recorded bit of a branch."""
    def bits(*values):
        return np.array(values, dtype=float).view(np.int64).tolist()
    points = [(bits(p.lam, p.norm, p.ds, p.residual), p.state.u1.tobytes(),
               p.state.u2.tobytes(), p.tangent_lambda_sign,
               p.corrector_iterations, p.polish_iterations)
              for p in branch.points]
    fold = None if branch.fold is None else (
        bits(branch.fold.lam_bar, branch.fold.t1, branch.fold.t2),
        branch.fold.index)
    folds = [(bits(f.lam_bar, f.t1, f.t2), f.index) for f in branch.folds]
    return (points, fold, folds, branch.rejections,
            branch.last_rejection, branch.termination)


@pytest.mark.parametrize("M", [128, 512])
def test_float_corrector_is_bit_identical_to_the_numpy_one(
        M, grid512, ref_branch, ref_model, branch_cfg, monkeypatch):
    import radbif.continuation as cont
    grid = grid512 if M == 512 else build_grid(3, 1.0, M)
    new = (ref_branch if M == 512
           else continue_branch(grid, ref_model, branch_cfg))
    monkeypatch.setattr(cont, "_corrector", _numpy_corrector)
    old = continue_branch(grid, ref_model, branch_cfg)
    assert old.fold is not None and old.termination == "lambda_floor"
    assert _branch_bits(new) == _branch_bits(old)


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
    corrector, solves = cont._corrector, []

    def counting(ts, extra, x0, tol):
        out = corrector(ts, extra, x0, tol)
        if extra == ts.fold_row:
            solves.append((np.array(x0), out[1]))
        return out

    monkeypatch.setattr(cont, "_corrector", counting)
    branch = continue_branch(grid128, model, FAST_CFG)
    assert len(solves) == len(branch.folds) == _sign_flips(branch)
    assert len(branch.folds) == (1 if which == "reference" else 2)
    lams = branch.lambdas()
    for (x0, steps), fold in zip(solves, branch.folds):
        assert steps <= MAX_CORRECTOR_ITER
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
    corrector = cont._corrector

    def no_fold(ts, extra, *args, **kwargs):
        if extra == ts.fold_row:
            raise cont._CorrectorFailure("forced fold failure")
        return corrector(ts, extra, *args, **kwargs)

    monkeypatch.setattr(cont, "_corrector", no_fold)
    with pytest.raises(ContinuationError, match="forced fold failure") as exc:
        continue_branch(grid128, ref_model, FAST_CFG)
    assert exc.value.last_point is not None and exc.value.last_point.norm > 0.0
    monkeypatch.setattr(cont, "_corrector", corrector)

    # a solve that leaves the positive cone, or ends above the start of a
    # minimum or below the start of a maximum, is not a fold either
    branch = continue_branch(grid128, two_fold_model, FAST_CFG)
    ts = _TraceSystem(grid128, two_fold_model)
    for scale, why in (([-1.0, 1.0, 1.0], "positive cone"),
                       ([1.0, 1.0, 1.001], "wrong side"),
                       ([1.0, 1.0, 0.999], "wrong side")):
        solves = []

        def scaled(ts, extra, x0, tol):
            solves.append(x0)
            return tuple((np.array(x0) * scale).tolist()), 1

        monkeypatch.setattr(cont, "_corrector", scaled)
        with pytest.raises(ContinuationError, match=why):
            cont._locate_folds(ts, Branch(grid128, two_fold_model,
                                          points=branch.points), 1e-10)
        # 1.001 fails at the first turn, a minimum; 0.999 at the maximum
        assert len(solves) == (2 if scale[2] == 0.999 else 1)


def test_branch_ends_on_corrector_failure_keeping_its_points(
        grid128, ref_model, monkeypatch):
    import radbif.continuation as cont
    polish, calls = cont._polish, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > 4:  # the step-off and three steps pass
            raise cont._CorrectorFailure("forced polish failure")
        return polish(*args, **kwargs)

    monkeypatch.setattr(cont, "_polish", failing)
    cfg = ContinuationConfig(ds0=0.01, ds_min=0.0025, lambda_stop_low=0.2)
    branch = continue_branch(grid128, ref_model, cfg)
    assert branch.termination == "corrector_failure"
    assert len(branch.points) == 5  # the anchor, the step-off, three steps
    assert all(p.norm > 0.0 for p in branch.points[1:])
    # every halving from the last ds down to ds_min was tried and counted
    assert branch.rejections == len(calls) - 4 >= 2
    assert "forced polish failure" in branch.last_rejection


def test_failed_step_off_raises_with_the_trivial_anchor(grid128, ref_model,
                                                       monkeypatch):
    import radbif.continuation as cont

    def failing(*args, **kwargs):
        raise cont._CorrectorFailure("forced corrector failure")

    monkeypatch.setattr(cont, "_corrector", failing)
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
    # corrector, the fold solves and every polish, solutions_at's too
    import radbif.continuation as cont
    cfg = dataclasses.replace(FAST_CFG, tol_residual=1e-9)
    newton_solve, corrector = cont.newton_solve, cont._corrector
    tols, corrector_tols = [], set()

    def recording(grid, model, lam, init, ncfg):
        tols.append((ncfg.tol_residual, ncfg.max_iter))
        return newton_solve(grid, model, lam, init, ncfg)

    def recording_corrector(ts, extra, x0, tol):
        corrector_tols.add(tol)
        return corrector(ts, extra, x0, tol)

    monkeypatch.setattr(cont, "newton_solve", recording)
    monkeypatch.setattr(cont, "_corrector", recording_corrector)
    branch = continue_branch(grid128, ref_model, cfg)
    assert branch.tol == 1e-9 and corrector_tols == {1e-9}
    assert set(tols) == {(1e-9, MAX_POLISH_ITER)}
    assert len(tols) >= len(branch.points) - 1  # a polish per point
    assert all(p.residual <= 1e-9 for p in branch.points[1:])
    tols.clear()
    states = solutions_at(branch, 0.5 * (branch.points[0].lam
                                         + branch.fold.lam_bar))
    assert len(states) == 2
    assert tols == [(1e-9, MAX_POLISH_ITER)] * 2
    assert ContinuationConfig().tol_residual == 1e-10
    assert continue_branch(grid128, ref_model, FAST_CFG).tol == 1e-10


def test_solutions_at_polishes_once_per_root(ref_branch, grid512, ref_model,
                                             monkeypatch):
    # roots come from the scalar trace equation: no corrector solve, one
    # full-space polish per returned state
    import radbif.continuation as cont
    calls = []
    polish = cont._polish
    monkeypatch.setattr(cont, "_corrector",
                        lambda *a, **k: calls.append("corrector"))
    monkeypatch.setattr(cont, "_polish",
                        lambda *a, **k: calls.append("polish") or polish(*a, **k))
    states = solutions_at(ref_branch, LAMBDA_MID)
    assert len(states) == 2
    assert calls == ["polish", "polish"]


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


@pytest.mark.parametrize("which", ["reference-512", "quadratic-128",
                                   "two-fold-512"])
def test_solutions_at_equals_the_node_scan_bit_for_bit(which, ref_branch,
                                                        quad_branch128,
                                                        two_fold_branch):
    # the level-crossing brackets give the states of the exhaustive scan,
    # bit for bit: across the range, on and next to every node lam near
    # the top, on and one ulp either side of every fold, and just above mu0
    from conftest import scan_solutions_at
    branch = {"reference-512": ref_branch, "quadratic-128": quad_branch128,
              "two-fold-512": two_fold_branch}[which]
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
    # M = 512, about one root in nine below mu0 fails its polish with
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
                                                     ref_model, branch_cfg,
                                                     quad_branch128,
                                                     monkeypatch):
    # at most four q values per node pair whose lam values enclose lam,
    # outside the root iteration: the same bound on a branch of about 400
    # points and one of about 1100
    import radbif.continuation as cont
    branch = (continue_branch(grid128, ref_model, branch_cfg)
              if which == "reference-128" else quad_branch128)
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

    monkeypatch.setattr(cont, "_corrector", no_step)
    with pytest.raises(ConfigError, match=r"p1\*p2 > 1"):
        continue_branch(grid512, linear_model(), ContinuationConfig(max_points=50))


def test_rebuild_rounds_once_from_the_longdouble_profile(grid512, ref_model,
                                                          eig512, ref_branch):
    phi_ext = _unit_trace_extended(grid512)
    assert phi_ext.dtype == np.longdouble and phi_ext[-1] == 1.0
    assert _unit_trace_extended(grid512) is phi_ext
    # the profile solves the interior rows to longdouble rounding, far
    # below what the double phi1 can (about 2e-16 of the row scale)
    scale = 2.0 / grid512.h ** 2 + 1.0
    res = band_loop(operator_bands(grid512), phi_ext)[:-1]
    assert float(np.abs(res).max()) / scale <= 1e-18
    assert np.abs(phi_ext - eig512.phi1).max() <= 1e-15
    ts = _TraceSystem(grid512, ref_model)
    rng = np.random.default_rng(3)
    for x in (*rng.uniform(0.0, 50.0, (10, 3)), (1e-4, 3e-4, 0.3), (1e5, 7.5, 1e-3)):
        st = ts.state(np.array(x))
        for t, u in zip(x, (st.u1, st.u2)):
            np.testing.assert_array_equal(
                u, (np.longdouble(t) * phi_ext).astype(float))
            assert u[-1] == t
    # a point accepted without a polish step is the rebuild itself
    for p in ref_branch.points[1:]:
        if p.polish_iterations == 0:
            st = ts.state(np.array([p.state.u1[-1], p.state.u2[-1]]))
            np.testing.assert_array_equal(st.u1, p.state.u1)
            np.testing.assert_array_equal(st.u2, p.state.u2)


def test_most_rebuilt_points_need_no_polish_step(ref_branch):
    # tol 1e-10 lies below the representation floor eps*2/h^2 = 1.16e-10 of
    # M = 512; the once-rounded rebuild passes the re-check as it stands at
    # about 80 % of the points
    accepted = ref_branch.points[1:]
    zero = sum(p.polish_iterations == 0 for p in accepted)
    assert zero >= 0.7 * len(accepted)


def test_fine_grid_branch_keeps_its_fold_and_skips_the_polish(ref_model):
    # M = 4096 at tol 1e-8: about 94 % of the points pass the re-check with
    # no Newton step, and the fold keeps its bits
    grid = build_grid(3, 1.0, 4096)
    cfg = ContinuationConfig(tol_residual=1e-8)
    branch = continue_branch(grid, ref_model, cfg)
    assert branch.termination == "lambda_floor"
    assert branch.fold.lam_bar == 0.3332102968730778
    accepted = branch.points[1:]
    zero = sum(p.polish_iterations == 0 for p in accepted)
    assert zero >= 0.9 * len(accepted)
    for p in accepted:
        assert p.residual <= 1e-8
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
