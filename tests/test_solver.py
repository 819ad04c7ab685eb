"""Coupled Newton solver, Jacobian, positivity classification, limit problem.

The sharpest checks exploit an exact reduction: the interior rows force any
discrete solution pair onto the ray spanned by the kernel function, so its
boundary values must solve a 2x2 trace system with the discrete eigenvalue.
That system is solved independently in conftest and used as an oracle here.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import band_loop, trace_system_solve
from radbif import (ConfigError, NewtonConfig, NewtonResult,
                    NonConvergenceError, SystemState, apply_operator,
                    boundary_flux, build_grid, eval_f, f_extended,
                    fprime_extended, is_positive_state, jacobian,
                    linear_bvp_solve, linear_model, newton_solve,
                    operator_bands, pair_norm, residual,
                    scaled_residual_norm, solve_flux_bvp, solve_limit_problem)
from radbif.solver import DAMPING_FLOOR, POSITIVITY_ZERO_FLOOR, _pair_residual

LAMBDA_MID = 0.3231227939747531  # halfway between bifurcation point and fold


def test_residual_vanishes_at_zero_state(grid128, ref_model):
    for lam in (0.0, 0.3, 2.0):
        res = residual(grid128, ref_model, lam, SystemState.zero(grid128))
        assert np.all(res == 0.0)


def test_residual_rejects_negative_parameter(grid128, ref_model):
    # lam = 0 is legal (test above); NaN and infinity are not
    for lam in (-0.1, math.nan, math.inf):
        for call in (residual, jacobian):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                call(grid128, ref_model, lam, SystemState.zero(grid128))


def test_residual_on_kernel_ray_at_lambda_zero(grid512, ref_model):
    # interior rows vanish to O(h^2); boundary rows equal c * g'(R)
    r = grid512.r
    g = np.ones_like(r)
    g[1:] = np.sinh(r[1:]) / r[1:]
    c = 0.7
    state = SystemState(c * g, c * g)
    res = residual(grid512, ref_model, 0.0, state)
    interior = np.concatenate([res[0:-2:2], res[1:-2:2]])
    assert np.abs(interior).max() < 1e-5
    gp = math.cosh(1.0) - math.sinh(1.0)
    assert res[-2] == pytest.approx(c * gp, abs=1e-5)
    assert res[-1] == pytest.approx(c * gp, abs=1e-5)


def test_interior_rows_pin_solutions_to_the_kernel_ray(grid512, ref_model):
    """Any converged state is t_i * w with w the unit-trace kernel vector."""
    init = SystemState(0.5 * np.ones(grid512.M + 1),
                       0.5 * np.ones(grid512.M + 1))
    result = newton_solve(grid512, ref_model, LAMBDA_MID, init)
    w = solve_flux_bvp(grid512, 1.0)
    w = w / w[-1]
    for u in (result.state.u1, result.state.u2):
        t = float(u[-1])
        assert np.abs(u - t * w).max() <= 1e-10 * max(1.0, abs(t))


def test_converged_traces_solve_the_reduced_system(grid512, ref_model,
                                                   mu_h512):
    lam = LAMBDA_MID
    g1 = lambda t: lam * eval_f(ref_model, 1, t)
    g2 = lambda t: lam * eval_f(ref_model, 2, t)
    dg1 = lambda t: lam * fprime_extended(ref_model, 1, t)
    dg2 = lambda t: lam * fprime_extended(ref_model, 2, t)
    # the two crossings of the reduced system at this parameter
    lower = trace_system_solve(mu_h512, g1, g2, dg1, dg2, 0.12, 0.13)
    upper = trace_system_solve(mu_h512, g1, g2, dg1, dg2, 0.47, 0.60)

    init_lo = SystemState(0.1 * np.ones(grid512.M + 1),
                          0.1 * np.ones(grid512.M + 1))
    init_hi = SystemState(0.5 * np.ones(grid512.M + 1),
                          0.5 * np.ones(grid512.M + 1))
    got_lo = newton_solve(grid512, ref_model, lam, init_lo).state
    got_hi = newton_solve(grid512, ref_model, lam, init_hi).state
    assert got_lo.u1[-1] == pytest.approx(lower[0], abs=1e-9)
    assert got_lo.u2[-1] == pytest.approx(lower[1], abs=1e-9)
    assert got_hi.u1[-1] == pytest.approx(upper[0], abs=1e-9)
    assert got_hi.u2[-1] == pytest.approx(upper[1], abs=1e-9)


def test_newton_zero_init_returns_zero_in_zero_iterations(grid128, ref_model):
    result = newton_solve(grid128, ref_model, 0.5, SystemState.zero(grid128))
    assert result.iterations == 0
    assert np.all(result.state.u1 == 0.0) and np.all(result.state.u2 == 0.0)
    assert not result.positive


def test_newton_postcondition_residual_below_tolerance(grid512, ref_model):
    init = SystemState(0.5 * np.ones(grid512.M + 1),
                       0.5 * np.ones(grid512.M + 1))
    cfg = NewtonConfig(tol_residual=1e-10)
    result = newton_solve(grid512, ref_model, LAMBDA_MID, init, cfg)
    res = residual(grid512, ref_model, LAMBDA_MID, result.state)
    assert scaled_residual_norm(res, result.state) <= 1e-10
    assert result.positive


def test_newton_quadratic_tail_near_fold(grid512, ref_model):
    # just below the fold; init on the kernel ray near the branch
    lam = 0.98 * 0.33320994441151214
    w = solve_flux_bvp(grid512, 1.0)
    w = w / w[-1]
    result = newton_solve(grid512, ref_model, lam,
                          SystemState(0.33 * w, 0.38 * w))
    hist = result.history
    # inside the quadratic basin each residual is bounded by C r^2; pairs
    # close to the evaluation floor (~1e-13 at M=512) are excluded
    tail = [(a, b) for a, b in zip(hist[:-1], hist[1:])
            if a < 1e-2 and b > 1e-9]
    assert tail, "no quadratic-regime iterations recorded"
    for a, b in tail:
        assert b <= 1e3 * a * a


def test_newton_never_returns_positive_beyond_the_bound(grid512, ref_model,
                                                        eig512):
    lam = 1.5 * eig512.mu1 / ref_model.K
    for amp in (0.03, 1.0, 30.0):
        init = SystemState(amp * eig512.phi1, amp * eig512.phi1)
        try:
            result = newton_solve(grid512, ref_model, lam, init)
        except NonConvergenceError:
            continue
        assert not result.positive
        assert pair_norm(result.state) <= POSITIVITY_ZERO_FLOOR


def test_nonconvergence_raises_with_trace(grid128, ref_model):
    cfg = NewtonConfig(tol_residual=1e-10, max_iter=1)
    init = SystemState(0.5 * np.ones(grid128.M + 1),
                       0.5 * np.ones(grid128.M + 1))
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(grid128, ref_model, LAMBDA_MID, init, cfg)
    assert len(err.value.trace) >= 1
    assert err.value.last_state is not None


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _near_spacing(draw):
    # d with 2^-k d near the spacing of x (2^-52 relative) for some k in
    # 0..20, so that x + 2^-k d turns into a round-back within the range
    x = draw(FINITE)
    m = draw(st.floats(0.5, 1.0)) * draw(st.sampled_from((1.0, -1.0)))
    e = draw(st.integers(-74, -32))
    return x, math.ldexp(m, min(math.frexp(x)[1] + e, 1023))


@given(st.one_of(st.tuples(FINITE, FINITE), _near_spacing()))
@example((-0.0, -5e-324))
@example((1.0, 2.0 ** -53))
@example((1.0, -2.0 ** -54))
def test_round_back_persists_under_halving(xd):
    # the lemma behind the backtracking exit: once x + 2^-k d rounds to x
    # bit for bit, so does x + 2^-(k+1) d (rounding is monotone)
    x, d = np.float64(xd[0]), np.float64(xd[1])
    t = np.ldexp(1.0, -np.arange(21))
    back = (x + t * d).view(np.int64) == x.view(np.int64)
    assert not np.any(back[:-1] & ~back[1:])


def _halve_to_floor(grid, model, lam, init, tol):
    """The backtracking loop without the round-back exit: every rejected
    step halves down to DAMPING_FLOOR.  Returns the residual history, the
    last iterate, the residual evaluations and how many of those were on a
    trial equal to the iterate bit for bit."""
    state = init
    res = residual(grid, model, lam, state)
    rnorm = scaled_residual_norm(res, state)
    history, calls, round_backs = [rnorm], 1, 0
    while rnorm > tol:
        step = jacobian(grid, model, lam, state).solve(-res)
        x, t = state.to_vector(), 1.0
        while t >= DAMPING_FLOOR:
            xt = x + t * step
            round_backs += np.array_equal(xt.view(np.int64), x.view(np.int64))
            trial = SystemState.from_vector(xt)
            res_t = residual(grid, model, lam, trial)
            calls += 1
            rnorm_t = scaled_residual_norm(res_t, trial)
            if rnorm_t < rnorm:
                state, res, rnorm = trial, res_t, rnorm_t
                break
            t *= 0.5
        else:
            return history, state, calls, round_backs
        history.append(rnorm)
    raise AssertionError("converged below the representation floor")


def test_backtracking_stops_once_the_trial_rounds_back(grid512, ref_model,
                                                       mu_h512, monkeypatch):
    # a branch point rebuilt on the kernel ray sits on the representation
    # floor (eps 2/h^2, about 1.2e-10 at M = 512); Newton at 1e-13 makes a
    # few steps of rounding-level progress and then stalls, ending with the
    # same error, trace and state as halving all the way to the floor, in
    # fewer residual evaluations
    lam = 0.3
    g1 = lambda t: lam * eval_f(ref_model, 1, t)
    g2 = lambda t: lam * eval_f(ref_model, 2, t)
    dg1 = lambda t: lam * fprime_extended(ref_model, 1, t)
    dg2 = lambda t: lam * fprime_extended(ref_model, 2, t)
    t1, t2 = trace_system_solve(mu_h512, g1, g2, dg1, dg2, 0.6, 0.8)
    w = solve_flux_bvp(grid512, 1.0)
    w = w / w[-1]
    init = SystemState(t1 * w, t2 * w)
    cfg = NewtonConfig(tol_residual=1e-13)
    history, last, calls, round_backs = _halve_to_floor(
        grid512, ref_model, lam, init, cfg.tol_residual)
    assert len(history) > 1 and round_backs > 0

    import radbif.solver as solver_module
    counted = []

    def counting(*args):
        counted.append(1)
        return residual(*args)

    monkeypatch.setattr(solver_module, "residual", counting)
    with pytest.raises(NonConvergenceError,
                       match="backtracking hit the damping floor without "
                             "progress") as err:
        newton_solve(grid512, ref_model, lam, init, cfg)
    assert err.value.trace == history
    assert np.array_equal(err.value.last_state.u1, last.u1)
    assert np.array_equal(err.value.last_state.u2, last.u2)
    assert len(counted) == calls - round_backs


def test_is_positive_state_classification(grid128):
    n = grid128.M + 1
    assert not is_positive_state(SystemState.zero(grid128))
    assert is_positive_state(SystemState(np.full(n, 0.2), np.full(n, 0.1)))
    bad = np.full(n, 0.2)
    bad[3] = -1e-6
    assert not is_positive_state(SystemState(bad, np.full(n, 0.1)))
    # one-signed rounding noise is the trivial state, not a positive one
    noise = np.full(n, 1e-17)
    assert not is_positive_state(SystemState(noise, noise))
    # just above the noise floor counts again
    small = np.full(n, 1e-7)
    assert is_positive_state(SystemState(small, small))


def test_jacobian_decouples_at_lambda_zero(grid128, ref_model):
    state = SystemState(0.3 * np.ones(grid128.M + 1),
                        0.2 * np.ones(grid128.M + 1))
    dense = jacobian(grid128, ref_model, 0.0, state).todense()
    M = grid128.M
    assert dense[2 * M, 2 * M + 1] == 0.0
    assert dense[2 * M + 1, 2 * M] == 0.0


def test_jacobian_coupling_entries_at_zero_state(grid128, ref_model):
    lam = 0.4
    dense = jacobian(grid128, ref_model, lam, SystemState.zero(grid128)).todense()
    M = grid128.M
    assert dense[2 * M, 2 * M + 1] == pytest.approx(
        -lam * fprime_extended(ref_model, 1, 0.0))
    assert dense[2 * M + 1, 2 * M] == pytest.approx(
        -lam * fprime_extended(ref_model, 2, 0.0))


def test_residual_rows_match_reference_formulas(ref_model):
    # at lam = 0 the interleaved residual is the stencil alone: interior
    # rows are apply_operator and the flux rows boundary_flux, per component
    grid = build_grid(3, 1.0, 64)
    rng = np.random.default_rng(11)
    M = grid.M
    for _ in range(5):
        u1, u2 = rng.uniform(-2.0, 2.0, M + 1), rng.uniform(-2.0, 2.0, M + 1)
        res = residual(grid, ref_model, 0.0, SystemState(u1, u2))
        for c, u in ((0, u1), (1, u2)):
            rows = res[c::2]
            ref = np.append(apply_operator(grid, u), boundary_flux(grid, u))
            assert np.abs(rows - ref).max() <= 1e-12 * np.abs(ref).max()


def test_jacobian_matches_finite_differences(ref_model):
    grid = build_grid(3, 1.0, 64)
    rng = np.random.default_rng(5)
    n = grid.M + 1
    lam = 0.35
    for _ in range(3):
        state = SystemState(rng.uniform(0.05, 1.5, n), rng.uniform(0.05, 1.5, n))
        dense = jacobian(grid, ref_model, lam, state).todense()
        x = state.to_vector()
        fd = np.zeros_like(dense)
        for j in range(x.size):
            d = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += d
            xm[j] -= d
            rp = residual(grid, ref_model, lam, SystemState.from_vector(xp))
            rm = residual(grid, ref_model, lam, SystemState.from_vector(xm))
            fd[:, j] = (rp - rm) / (2.0 * d)
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(dense - fd).max() / scale <= 1e-6


def test_banded_todense_and_solve_agree(grid128, ref_model):
    state = SystemState(0.3 * np.ones(grid128.M + 1),
                        0.4 * np.ones(grid128.M + 1))
    jac = jacobian(grid128, ref_model, 0.3, state)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(2 * (grid128.M + 1))
    x = jac.solve(rhs)
    np.testing.assert_allclose(jac.todense() @ x, rhs, rtol=0, atol=1e-7)


def _two_matvec_residual(grid, state, g1, g2):
    """The residual as it was before the pair operator: one extended
    matvec per component (the band loop, bit-identical to the
    single-component longdouble CSR it replaced), the two scalar flux
    terms, then one interleave.  Kept as the bit-for-bit reference of
    _pair_residual."""
    M = grid.M
    ab = operator_bands(grid)
    r1 = band_loop(ab, state.u1)
    r2 = band_loop(ab, state.u2)
    r1[M] -= g1(float(state.u2[M]))
    r2[M] -= g2(float(state.u1[M]))
    out = np.empty(2 * (M + 1))
    out[0::2] = r1
    out[1::2] = r2
    return out


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("M", [16, 128, 4096])
def test_pair_residual_is_bit_identical_to_two_matvecs(ref_model, M):
    grid = build_grid(3, 1.0, M)
    n = M + 1
    rng = np.random.default_rng(M)
    w = solve_flux_bvp(grid, 1.0)
    w = w / w[-1]
    mixed = rng.uniform(-1.5, 2.0, (2, n))
    mixed[0, -1] = -0.0
    singles = [np.zeros((2, n)), np.full((2, n), -0.0), mixed,
               np.array([0.3 * w, 0.4 * w]),
               np.array([2e3 * w, 9e4 * w]),  # tail-scale amplitudes
               rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, 1))]
    # the strided component views of an interleaved vector that
    # newton_solve and the jacobian-fd check pass
    x = rng.uniform(0.05, 2.0, 2 * n)
    cases = ([SystemState(*u) for u in singles]
             + [SystemState(x[0::2], x[1::2])])
    for lam in (0.0, 0.3):
        g1 = lambda t: lam * f_extended(ref_model, 1, t)
        g2 = lambda t: lam * f_extended(ref_model, 2, t)
        for state in cases:
            got = residual(grid, ref_model, lam, state)
            assert got.shape == (2 * n,)
            np.testing.assert_array_equal(
                _bits(got), _bits(_two_matvec_residual(grid, state, g1, g2)))
    # the pure-power flux rows of solve_limit_problem
    p1 = lambda t: 0.5 * max(t, 0.0) ** 2
    p2 = lambda t: max(t, 0.0) ** 3
    for state in cases:
        np.testing.assert_array_equal(
            _bits(_pair_residual(grid, state, p2, p1)),
            _bits(_two_matvec_residual(grid, state, p2, p1)))


def _newton_on_copies(grid, model, lam, init, cfg=NewtonConfig()):
    """newton_solve as it was before it iterated on the interleaved vector:
    each trial split into SystemState copies, the iterate re-interleaved
    per step.  Kept as the bit-for-bit reference."""
    state = init
    res = residual(grid, model, lam, state)
    rnorm = scaled_residual_norm(res, state)
    history = [rnorm]
    damping = 1.0
    for it in range(1, cfg.max_iter + 1):
        if rnorm <= cfg.tol_residual:
            return NewtonResult(state, it - 1, rnorm, damping,
                                is_positive_state(state), history)
        step = jacobian(grid, model, lam, state).solve(-res)
        x = state.to_vector()
        t = 1.0
        accepted = False
        while t >= DAMPING_FLOOR:
            xt = x + t * step
            if np.array_equal(xt.view(np.int64), x.view(np.int64)):
                break
            trial = SystemState.from_vector(xt)
            res_t = residual(grid, model, lam, trial)
            rnorm_t = scaled_residual_norm(res_t, trial)
            if np.isfinite(rnorm_t) and rnorm_t < rnorm:
                state, res, rnorm, damping = trial, res_t, rnorm_t, t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NonConvergenceError(
                "backtracking hit the damping floor without progress",
                trace=history, last_state=state)
        history.append(rnorm)
    if rnorm <= cfg.tol_residual:
        return NewtonResult(state, cfg.max_iter, rnorm, damping,
                            is_positive_state(state), history)
    raise NonConvergenceError(
        f"no convergence in {cfg.max_iter} iterations (residual {rnorm:.3e})",
        trace=history, last_state=state)


def _newton_outcome(solve, *args):
    """Every bit of a Newton run: the result, or the error it raised."""
    def state_bits(s):
        return s.u1.tobytes(), s.u2.tobytes()
    try:
        r = solve(*args)
    except NonConvergenceError as exc:
        return ("raised", str(exc), _bits(exc.trace).tolist(),
                state_bits(exc.last_state))
    return ("converged", r.iterations, _bits([r.damping, r.residual_norm]).tolist(),
            r.positive, _bits(r.history).tolist(), state_bits(r.state))


def test_newton_on_the_interleaved_vector_is_bit_identical(
        grid512, ref_model, eig512, mu_h512):
    ones = np.ones(grid512.M + 1)
    runs = [(LAMBDA_MID, SystemState(0.5 * ones, 0.5 * ones), NewtonConfig()),
            (LAMBDA_MID, SystemState(0.5 * ones, 0.5 * ones),
             NewtonConfig(max_iter=1)),
            (0.5, SystemState.zero(grid512), NewtonConfig()),
            # a sign-mixed start that converges with a last step of 1/4
            (0.05, SystemState(-10.0 * eig512.phi1, 10.0 * eig512.phi1),
             NewtonConfig())]
    # the nonexistence check's starts, just beyond mu1/K
    lam = 1.01 * eig512.mu1 / ref_model.K
    runs += [(lam, SystemState(amp * eig512.phi1, amp * eig512.phi1),
              NewtonConfig()) for amp in np.logspace(-2, 2, 5)]
    outcomes, dampings = set(), set()
    for lam, init, cfg in runs:
        got = _newton_outcome(newton_solve, grid512, ref_model, lam, init, cfg)
        want = _newton_outcome(_newton_on_copies, grid512, ref_model, lam,
                               init, cfg)
        assert got == want
        outcomes.add(got[0])
        dampings.add(got[2][0] if got[0] == "converged" else None)
    assert outcomes == {"converged", "raised"}
    assert _bits([0.25])[0] in dampings


def test_singular_factor_surfaces_at_the_solve(ref_model, monkeypatch):
    import radbif.grid as grid_module
    from scipy.linalg import LinAlgError

    def singular(ab, kl, ku, **kwargs):
        return ab, np.zeros(ab.shape[1], dtype=np.int32), ab.shape[1]

    monkeypatch.setattr(grid_module, "dgbtrf", singular)
    grid = build_grid(3, 1.0, 32)
    state = SystemState(0.3 * np.ones(grid.M + 1), 0.4 * np.ones(grid.M + 1))
    jac = jacobian(grid, ref_model, 0.3, state)
    with pytest.raises(LinAlgError):
        jac.solve(np.ones(2 * (grid.M + 1)))
    with pytest.raises(NonConvergenceError, match="singular Jacobian"):
        newton_solve(grid, ref_model, 0.3, state)


def test_linear_bvp_solve_components_and_linearity(grid128):
    s = linear_bvp_solve(grid128, 0.4, -0.1)
    np.testing.assert_array_equal(s.u1, solve_flux_bvp(grid128, 0.4))
    np.testing.assert_array_equal(s.u2, solve_flux_bvp(grid128, -0.1))
    a = linear_bvp_solve(grid128, 0.25, 0.5)
    b = linear_bvp_solve(grid128, 0.15, -0.6)
    c = linear_bvp_solve(grid128, 0.40, -0.1)
    np.testing.assert_allclose(a.u1 + b.u1, c.u1, atol=1e-13)
    np.testing.assert_allclose(a.u2 + b.u2, c.u2, atol=1e-13)


def test_fixed_lambda_solution_richardson_order(ref_model):
    # tol sits above the per-grid representation floor eps*(2/h^2), which
    # reaches ~4.7e-10 at M=1024; solution accuracy stays far below the
    # O(h^2) norm differences the ratio measures
    lam = LAMBDA_MID
    cfg = NewtonConfig(tol_residual=1e-9)
    norms = []
    for M in (256, 512, 1024):
        grid = build_grid(3, 1.0, M)
        w = solve_flux_bvp(grid, 1.0)
        w = w / w[-1]
        init = SystemState(0.47 * w, 0.60 * w)
        norms.append(pair_norm(
            newton_solve(grid, ref_model, lam, init, cfg).state))
    ratio = (norms[0] - norms[1]) / (norms[1] - norms[2])
    order = math.log2(abs(ratio))
    assert 1.8 <= order <= 2.2


def test_limit_problem_traces_match_reduced_system(grid512, ref_model,
                                                   mu_h512):
    m = ref_model
    g1 = lambda t: m.b2 * max(t, 0.0) ** m.p2
    g2 = lambda t: m.b1 * max(t, 0.0) ** m.p1
    dg1 = lambda t: m.b2 * m.p2 * max(t, 0.0) ** (m.p2 - 1.0)
    dg2 = lambda t: m.b1 * m.p1 * max(t, 0.0) ** (m.p1 - 1.0)
    t1, t2 = trace_system_solve(mu_h512, g1, g2, dg1, dg2, 0.6, 0.57)
    # continuum values for context: t1* ~ 0.59854, t2* ~ 0.57222
    assert t1 == pytest.approx(0.5985392467650285, abs=2e-6)
    assert t2 == pytest.approx(0.5722186068362778, abs=2e-6)

    state, res = solve_limit_problem(grid512, ref_model)
    assert is_positive_state(state)
    assert res <= 1e-10
    assert state.u1[-1] == pytest.approx(t1, abs=1e-9)
    assert state.u2[-1] == pytest.approx(t2, abs=1e-9)
    # boundary rows of the limit problem hold at the stated tolerance
    f1 = boundary_flux(grid512, state.u1)
    f2 = boundary_flux(grid512, state.u2)
    assert f1 == pytest.approx(g1(float(state.u2[-1])), abs=1e-9)
    assert f2 == pytest.approx(g2(float(state.u1[-1])), abs=1e-9)


def test_newton_config_rejects_bad_settings():
    for kwargs in ({"tol_residual": 0.0}, {"tol_residual": math.nan},
                   {"tol_residual": math.inf}, {"max_iter": 0},
                   {"max_iter": 2.5}, {"max_iter": math.nan}):
        with pytest.raises(ConfigError):
            NewtonConfig(**kwargs)


def test_limit_problem_needs_superlinear_powers(grid128):
    # p1 = p2 = 1: the limit rows are linear and have no isolated solution
    with pytest.raises(ConfigError):
        solve_limit_problem(grid128, linear_model())
