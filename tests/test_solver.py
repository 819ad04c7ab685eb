"""Coupled Newton solver, residual and its derivative, positivity
classification, limit problem.

The sharpest checks exploit an exact reduction: the interior rows force any
discrete solution pair onto the ray spanned by the kernel function, so its
boundary values must solve a 2x2 trace system with the discrete eigenvalue.
That system is solved independently in conftest and used as an oracle here.
"""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (bisect_root, exact_stencil,
                      is_positive_state_reference, trace_system_solve)
from radbif import (ConfigError, NonConvergenceError, NonlinearityModel,
                    NumericalError, SystemState, apply_operator,
                    boundary_flux, build_grid, eval_f, f_extended,
                    fprime_extended, is_positive_state, linear_model,
                    newton_solve, pair_norm, quadratic_model,
                    reference_model, residual, scaled_residual_norm,
                    solve_flux_bvp, solve_limit_problem, steklov_eigenpair)
import radbif.solver as solver_module
from radbif.grid import _stencil
from radbif.solver import (POSITIVITY_REL_FLOOR, POSITIVITY_ZERO_FLOOR,
                           _on_ray, _pair_residual, _TraceSystem)

LAMBDA_MID = 0.3231227939747531  # halfway between bifurcation point and fold


def test_residual_vanishes_at_zero_state(grid128, ref_model):
    for lam in (0.0, 0.3, 2.0):
        res = residual(grid128, ref_model, lam, SystemState.zero(grid128))
        assert np.all(res == 0.0)


def test_residual_rejects_negative_parameter(grid128, ref_model):
    # lam = 0 is legal (test above); NaN and infinity are not
    for lam in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            residual(grid128, ref_model, lam, SystemState.zero(grid128))


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


def test_interior_rows_pin_solutions_to_the_kernel_ray(grid512, ref_model,
                                                       eig512, monkeypatch):
    """The interior rows are linear with no source term: one undamped
    full-space Newton step (a dense solve with the Jacobian written out
    from A's coefficients) from a state off the ray lands on t_i * phi,
    at the traces of newton_solve's first step, which works on the traces
    alone."""
    ones, phi = np.ones(grid512.M + 1), eig512.phi1
    monkeypatch.setattr(solver_module, "MAX_NEWTON_ITER", 1)
    for lam, init in ((LAMBDA_MID, SystemState(0.5 * ones, 0.5 * ones)),
                      (0.05, SystemState(-10.0 * phi, 10.0 * phi))):
        dense = _coefficient_jacobian(grid512, ref_model, lam, init)
        step = np.linalg.solve(dense, -residual(grid512, ref_model, lam, init))
        landed = SystemState(init.u1 + step[0::2], init.u2 + step[1::2])
        with pytest.raises(NonConvergenceError, match="no convergence") as err:
            newton_solve(grid512, ref_model, lam, init)
        traced = err.value.last_state
        for u, w in ((landed.u1, traced.u1), (landed.u2, traced.u2)):
            t, scale = float(u[-1]), max(1.0, abs(float(u[-1])))
            assert np.abs(u - t * phi).max() <= 1e-12 * scale
            assert abs(t - float(w[-1])) <= 1e-12 * scale


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


def test_newton_zero_init_returns_zero_in_one_step(grid128, ref_model):
    # the zero state meets every tolerance; the one full step taken after
    # convergence is zero, and the state is flagged, not positive
    result = newton_solve(grid128, ref_model, 0.5, SystemState.zero(grid128))
    assert result.iterations == 1 and result.history == [0.0, 0.0]
    assert np.all(result.state.u1 == 0.0) and np.all(result.state.u2 == 0.0)
    assert not result.positive


def test_newton_postcondition_residual_below_tolerance(grid512, ref_model):
    init = SystemState(0.5 * np.ones(grid512.M + 1),
                       0.5 * np.ones(grid512.M + 1))
    result = newton_solve(grid512, ref_model, LAMBDA_MID, init, tol=1e-10)
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


@pytest.mark.parametrize("M", [512, 4096])
def test_newton_from_far_above_a_small_lambda_reaches_the_trivial_state(
        M, ref_model):
    # at lam = 0.05 the reference model has (0, 0) and a tail state of
    # norm about 9.3; from 10^(1/3) phi full Newton steps reach (0, 0),
    # where halving each step until the trace residual fell stalled at
    # its smallest fraction
    grid = build_grid(3, 1.0, M)
    phi = steklov_eigenpair(grid).phi1
    amp = 10.0 ** (1.0 / 3.0)
    result = newton_solve(grid, ref_model, 0.05,
                          SystemState(amp * phi, amp * phi))
    assert not result.positive
    assert pair_norm(result.state) <= POSITIVITY_ZERO_FLOOR


@pytest.mark.parametrize("which", ["reference", "two-fold"])
def test_newton_start_sweep_lands_on_a_solution(which, grid128, ref_model,
                                                two_fold_model):
    # from every start amp * phi over lam in [0.05, 1]: a positive state
    # whose traces solve the reduced system, or the trivial state; none
    # raises
    model = ref_model if which == "reference" else two_fold_model
    eig = steklov_eigenpair(grid128)
    mu_h = 1.0 / float(solve_flux_bvp(grid128, 1.0)[-1])
    positives = 0
    for lam in np.linspace(0.05, 1.0, 16):
        lam = float(lam)
        g1 = lambda t: lam * eval_f(model, 1, t)
        g2 = lambda t: lam * eval_f(model, 2, t)
        dg1 = lambda t: lam * fprime_extended(model, 1, t)
        dg2 = lambda t: lam * fprime_extended(model, 2, t)
        for amp in np.logspace(-3, 2, 10):
            init = SystemState(amp * eig.phi1, amp * eig.phi1)
            result = newton_solve(grid128, model, lam, init)
            if not result.positive:
                assert pair_norm(result.state) <= POSITIVITY_ZERO_FLOOR
                continue
            positives += 1
            t1, t2 = float(result.state.u1[-1]), float(result.state.u2[-1])
            want = trace_system_solve(mu_h, g1, g2, dg1, dg2, t1, t2)
            assert t1 == pytest.approx(want[0], rel=1e-12)
            assert t2 == pytest.approx(want[1], rel=1e-12)
    assert positives > 0


def test_nonconvergence_raises_with_trace(grid128, ref_model, monkeypatch):
    monkeypatch.setattr(solver_module, "MAX_NEWTON_ITER", 1)
    init = SystemState(0.5 * np.ones(grid128.M + 1),
                       0.5 * np.ones(grid128.M + 1))
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(grid128, ref_model, LAMBDA_MID, init, tol=1e-10)
    assert len(err.value.trace) >= 1
    assert err.value.last_state is not None


def test_newton_below_the_representation_floor_fails_the_recheck(
        grid512, ref_model, mu_h512):
    # the traces meet tol = 1e-13 and the finishing step leaves rounding
    # error only, but no rounding of them passes the full-space re-check:
    # its floor is eps 2/h^2, about 1.2e-10 at M = 512
    lam = 0.3
    g1 = lambda t: lam * eval_f(ref_model, 1, t)
    g2 = lambda t: lam * eval_f(ref_model, 2, t)
    dg1 = lambda t: lam * fprime_extended(ref_model, 1, t)
    dg2 = lambda t: lam * fprime_extended(ref_model, 2, t)
    t1, t2 = trace_system_solve(mu_h512, g1, g2, dg1, dg2, 0.6, 0.8)
    w = solve_flux_bvp(grid512, 1.0)
    w = w / w[-1]
    tol = 1e-13
    with pytest.raises(NonConvergenceError,
                       match="full-space re-check failed: residual > 1e-13 "
                             "at every shift") as err:
        newton_solve(grid512, ref_model, lam, SystemState(t1 * w, t2 * w),
                     tol=tol)
    assert err.value.trace[-2] <= tol
    last = err.value.last_state
    assert last.u1[-1] == pytest.approx(t1, rel=1e-12)
    assert last.u2[-1] == pytest.approx(t2, rel=1e-12)


def test_a_nan_residual_row_fails_every_tolerance(grid128, ref_model,
                                                  monkeypatch):
    # the sup norm keeps a NaN in any row, so the re-check rejects the
    # point at every shift even at an infinite tolerance
    state = SystemState(np.full(grid128.M + 1, 0.5),
                        np.full(grid128.M + 1, 0.4))
    for row in (0, 7, 2 * grid128.M + 1):
        res = residual(grid128, ref_model, 0.3, state)
        res[row] = math.nan
        assert math.isnan(scaled_residual_norm(res, state))
    exact = solver_module.residual

    def nan_row(*args):
        res = exact(*args)
        res[7] = math.nan
        return res

    monkeypatch.setattr(solver_module, "residual", nan_row)
    ts = solver_module._TraceSystem(grid128, ref_model)
    with pytest.raises(NonConvergenceError,
                       match="re-check failed: .* \\(nan at "):
        solver_module._recheck(grid128, ts, (0.5, 0.4, 0.3), math.inf)


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
    # at R = 40 the ray's u(0)/u(R) is about 2R e^-R = 3.4e-16, below the
    # relative floor: every node above 0 and each component's sup above
    # the floor make it positive, while a component whose sup lies below
    # the floor, or a node at 0, does not
    grid = build_grid(3, 40.0, 512)
    phi = solve_flux_bvp(grid, 1.0)
    phi = phi / phi[-1]
    assert 0.0 < phi[0] < 1e-12
    assert is_positive_state(SystemState(phi, 2.0 * phi))
    assert not is_positive_state(SystemState(phi, 1e-13 * phi))
    zero_at_origin = phi.copy()
    zero_at_origin[0] = 0.0
    assert not is_positive_state(SystemState(zero_at_origin, phi))


def _with(u, j, value):
    u = u.copy()
    u[j] = value
    return u


def test_is_positive_state_agrees_with_the_eight_reduction_form(grid128):
    # four reductions, the minima first, classify every pair of these
    # components as the formula through np.abs does: a NaN, an infinity
    # of either sign, a zero node of either sign and a negative node, a
    # pair norm at POSITIVITY_ZERO_FLOOR and just above, and a component
    # at POSITIVITY_REL_FLOOR times the norm and just above
    n = grid128.M + 1
    base = np.linspace(0.1, 1.0, n)
    floor = np.full(n, 0.5 * POSITIVITY_ZERO_FLOOR)  # two make the floor
    rel = np.full(n, POSITIVITY_REL_FLOOR * (1.0 + POSITIVITY_REL_FLOOR))
    assert floor[0] + floor[0] == POSITIVITY_ZERO_FLOOR
    assert rel[0] == POSITIVITY_REL_FLOOR * (1.0 + rel[0])
    above, rel_above = np.nextafter(floor, 1.0), np.nextafter(rel, 1.0)
    components = [
        base, _with(base, 5, math.nan), _with(base, 5, math.inf),
        _with(base, 5, -math.inf), _with(base, 0, 0.0),
        _with(base, 0, -0.0), _with(base, 3, -1e-6), np.ones(n),
        np.zeros(n), np.full(n, math.nan), np.full(n, math.inf),
        floor, above, rel, rel_above, _with(np.ones(n), n - 1, math.nan)]
    for u1 in components:
        for u2 in components:
            state = SystemState(u1, u2)
            assert (is_positive_state(state)
                    == is_positive_state_reference(state)), (u1, u2)
    # the floors themselves are not positive, the next doubles are
    assert not is_positive_state(SystemState(floor, floor))
    assert is_positive_state(SystemState(above, above))
    assert not is_positive_state(SystemState(np.ones(n), rel))
    assert is_positive_state(SystemState(np.ones(n), rel_above))


def test_jacobian_decouples_at_lambda_zero(grid128, ref_model):
    # the trace system's derivative, the one Newton uses
    _, (row1, row2) = _TraceSystem(grid128, ref_model).linearize(0.3, 0.2, 0.0)
    assert row1[1] == 0.0
    assert row2[0] == 0.0


def test_jacobian_coupling_entries_at_zero_state(grid128, ref_model):
    lam = 0.4
    _, (row1, row2) = _TraceSystem(grid128, ref_model).linearize(0.0, 0.0, lam)
    assert row1[1] == pytest.approx(-lam * fprime_extended(ref_model, 1, 0.0))
    assert row2[0] == pytest.approx(-lam * fprime_extended(ref_model, 2, 0.0))


def _tuple_bits(values):
    """The IEEE bits of every float in a nested tuple, in order."""
    if isinstance(values, tuple):
        return b"".join(_tuple_bits(v) for v in values)
    return struct.pack("<d", values)


def _fpp_extended(model, i, s):
    h = 6e-6 * max(1.0, abs(s))
    return (fprime_extended(model, i, s + h)
            - fprime_extended(model, i, s - h)) / (2.0 * h)


def _trace_forms_extended(model, mu, t1, t2, lam):
    """linearize, fold_row, q at t1 and at t2, and at, written with
    f_extended and fprime_extended: the reference that the trace system's
    bound model calls must match bit for bit."""
    f1, f2 = f_extended(model, 1, t2), f_extended(model, 2, t1)
    d1, d2 = fprime_extended(model, 1, t2), fprime_extended(model, 2, t1)
    k = lam / mu

    def q(t):
        if t == 0.0:
            return (lam * lam * fprime_extended(model, 1, 0.0)
                    * fprime_extended(model, 2, 0.0) / (mu * mu) - 1.0)
        return lam * f_extended(model, 1, lam * f_extended(model, 2, t)
                                / mu) / (mu * t) - 1.0

    return (((mu * t1 - lam * f1, mu * t2 - lam * f2),
             ((mu, -lam * d1, -f1), (-lam * d2, mu, -f2))),
            (1.0 - k * k * d1 * d2,
             (-k * (k * d1 * _fpp_extended(model, 2, t1)),
              -k * (k * _fpp_extended(model, 1, t2) * d2),
              -k * (2.0 * d1 * d2 / mu))),
            q(t1), q(t2), (t1, lam * f_extended(model, 2, t1) / mu, lam))


def _hand_built_model():
    """Non-polynomial f_i, one of which returns numpy scalars, with
    f1'(0) = 1 and f2'(0) = 2."""
    return NonlinearityModel(
        f1=lambda s: s * (1.0 + np.tanh(s)),
        df1=lambda s: 1.0 + np.tanh(s) + s / np.cosh(s) ** 2,
        f2=lambda s: 2.0 * s + s ** 1.5,
        df2=lambda s: 2.0 + 1.5 * math.sqrt(s),
        p1=1.5, p2=1.0, b1=1.0, b2=2.0, nu1=1.5, nu2=2.0, K=1.0,
        name="hand-built")


@pytest.mark.parametrize("model", [reference_model(), quadratic_model(),
                                   _hand_built_model()],
                         ids=["reference", "quadratic", "hand-built"])
def test_trace_system_binds_the_extended_forms_bit_for_bit(model, grid128):
    # the trace system calls the model's f_i and f_i' once per value, with
    # f_i'(0) bound once; linearize, fold_row, q, at and fold_value keep
    # the bits of their forms in f_extended and fprime_extended at
    # negative, zero, NaN and positive arguments
    ts = _TraceSystem(grid128, model)
    args = (-0.7, -0.0, 0.0, math.nan, 0.3, 2.5)
    for t1 in args:
        for t2 in args:
            for lam in (0.0, 0.31):
                got = (ts.linearize(t1, t2, lam), ts.fold_row((t1, t2, lam)),
                       ts.q(t1, lam), ts.q(t2, lam), ts.at(t1, lam),
                       ts.fold_value((t1, t2, lam)))
                want = _trace_forms_extended(model, ts.mu_h, t1, t2, lam)
                want += (want[1][0],)  # fold_value is fold_row's value
                assert _tuple_bits(got) == _tuple_bits(want), (t1, t2, lam)


@pytest.mark.parametrize("N, R, M", [(3, 1.0, 16), (3, 1.0, 4096),
                                     (10, 1.0, 512), (3, 40.0, 512)])
def test_rebuild_rounds_each_component_once_bit_for_bit(N, R, M):
    # the one longdouble outer product of (t1, t2) with the profile gives
    # each component's (t profile) rounded to double once, with u_0
    # rounded from (phi_0/phi_1) u_1, at traces from 0 and the least
    # subnormal to 1e300
    profile = steklov_eigenpair(build_grid(N, R, M)).profile
    traces = (0.0, 5e-324, 1e-8, 1.0, 1e150, 1e300)
    for t1 in traces:
        for t2 in traces:
            state = _on_ray(profile, t1, t2)
            for t, u in ((t1, state.u1), (t2, state.u2)):
                want = (np.longdouble(t) * profile).astype(float)
                want[0] = profile[0] / profile[1] * want[1]
                assert u.tobytes() == want.tobytes(), (t1, t2)


def _coefficient_jacobian(grid, model, lam, state):
    """The Jacobian of residual from A's coefficients written out, each
    rounded as written: row 0 (2N/h^2 + 1, -2N/h^2), interior rows
    (-1/h^2 + w_j, 2/h^2 + 1, -1/h^2 - w_j) with w_j = (N-1)/(2 h r_j),
    the flux row (1/(2h), -2/h, 3/(2h)), interleaved, plus the two
    coupling entries -lam f1'(u2(R)) at (2M, 2M+1) and -lam f2'(u1(R))
    at (2M+1, 2M)."""
    M, h, N = grid.M, grid.h, grid.N_dim
    a = np.zeros((M + 1, M + 1))
    a[0, :2] = 2.0 * N / h ** 2 + 1.0, -2.0 * N / h ** 2
    j = np.arange(1, M)
    w = (N - 1) / (2.0 * h * grid.r[j])
    a[j, j - 1], a[j, j], a[j, j + 1] = (-1.0 / h ** 2 + w, 2.0 / h ** 2 + 1.0,
                                         -1.0 / h ** 2 - w)
    a[M, M - 2:] = 1.0 / (2.0 * h), -2.0 / h, 3.0 / (2.0 * h)
    jac = np.zeros((2 * M + 2, 2 * M + 2))
    jac[0::2, 0::2] = jac[1::2, 1::2] = a
    n = 2 * M + 1
    jac[n - 1, n] = -lam * fprime_extended(model, 1, float(state.u2[M]))
    jac[n, n - 1] = -lam * fprime_extended(model, 2, float(state.u1[M]))
    return jac


@pytest.mark.parametrize("N", [3, 10])
@pytest.mark.parametrize("M", [16, 17, 128])
def test_jacobian_is_the_coefficients_bit_for_bit(N, M, ref_model):
    # the stencil of the identity rounds each coefficient as written, so
    # it equals the written-out coefficients of A in every bit, the sign
    # of every zero included, at the even and at the odd rows and columns
    grid = build_grid(N, 1.0, M)
    got = _stencil(grid, np.eye(M + 1)).view(np.uint64)
    want = _coefficient_jacobian(grid, ref_model, 0.3,
                                 SystemState.zero(grid)).view(np.uint64)
    np.testing.assert_array_equal(got, want[0::2, 0::2])
    np.testing.assert_array_equal(got, want[1::2, 1::2])


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
    # column j of the interleaved order is node j // 2 of u1 (j even) or
    # of u2 (j odd)
    grid = build_grid(3, 1.0, 64)
    rng = np.random.default_rng(5)
    n = grid.M + 1
    lam = 0.35
    for _ in range(3):
        u = rng.uniform(0.05, 1.5, (2, n))
        dense = _coefficient_jacobian(grid, ref_model, lam, SystemState(*u))
        fd = np.zeros_like(dense)
        for j in range(2 * n):
            node = j % 2, j // 2
            d = 1e-6 * max(1.0, abs(u[node]))
            up, um = u.copy(), u.copy()
            up[node] += d
            um[node] -= d
            rp = residual(grid, ref_model, lam, SystemState(*up))
            rm = residual(grid, ref_model, lam, SystemState(*um))
            fd[:, j] = (rp - rm) / (2.0 * d)
        scale = max(1.0, np.abs(dense).max())
        assert np.abs(dense - fd).max() / scale <= 1e-6


def _two_matvec_residual(grid, state, g1, g2):
    """The residual as two single-component calls of the grid's stencil
    (each component as a column), the two scalar flux terms, then one
    interleave.  It shares _pair_residual's operator, so comparing the
    two checks only the pair layout: the (M + 1, 2) view of the
    interleaved state, the flux rows and the interleave.  The operator's
    values are checked against the exact formula elsewhere
    (test_residual_rounds_once_against_the_exact_difference_formula)."""
    M = grid.M
    r1 = _stencil(grid, state.u1[:, None])[:, 0]
    r2 = _stencil(grid, state.u2[:, None])[:, 0]
    r1[M] -= g1(float(state.u2[M]))
    r2[M] -= g2(float(state.u1[M]))
    out = np.empty(2 * (M + 1))
    out[0::2] = r1
    out[1::2] = r2
    return out


@pytest.mark.parametrize("M", [128, 1024])
def test_residual_rounds_once_against_the_exact_difference_formula(ref_model, M):
    # on discrete solutions (t1 phi_h, t2 phi_h) from t1 = 0.01 to 2000,
    # every row of the residual lies within eps max(1, sup|u|) of the same
    # formula evaluated exactly in fractions, with the double flux terms
    # subtracted exactly; band sums of A miss this by their rounding,
    # about 1.6e-12 at M = 128
    grid = build_grid(3, 1.0, M)
    eig = steklov_eigenpair(grid)
    eps = np.finfo(float).eps
    for t1 in ((0.01, 0.7, 13.0, 2000.0) if M == 128 else (0.7, 2000.0)):
        # t1 f2(t1) = t2 f1(t2) fixes t2, and the flux rows fix lam
        target = t1 * eval_f(ref_model, 2, t1)
        t2 = bisect_root(lambda s: s * eval_f(ref_model, 1, s) - target,
                         0.0, 2.0 * max(1.0, t1))
        lam = eig.mu1 * t2 / eval_f(ref_model, 2, t1)
        state = SystemState(t1 * eig.phi1, t2 * eig.phi1)
        got = residual(grid, ref_model, lam, state)
        scale = max(1.0, float(state.u1.max()), float(state.u2.max()))
        for k, (u, other) in enumerate(((state.u1, state.u2),
                                        (state.u2, state.u1))):
            exact = exact_stencil(grid, u)
            exact[-1] -= Fraction(lam * f_extended(ref_model, k + 1,
                                                   float(other[-1])))
            err = max(abs(Fraction(float(y)) - e)
                      for y, e in zip(got[k::2], exact))
            assert err <= eps * scale, (t1, k, float(err))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("M", [16, 128, 4096])
def test_pair_residual_is_bit_identical_to_two_matvecs(ref_model, M):
    # the pair layout only (see _two_matvec_residual), on inputs the
    # exactness test does not take: signed zeros, magnitudes from 1e-8 to
    # 1e8 and the strided views of an interleaved vector
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
    # the strided component views of an interleaved vector
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


def test_singular_factor_surfaces_at_the_solve(ref_model, monkeypatch):
    # the grid's set-up is newton_solve's set-up, not one of its steps.  A
    # is singular exactly when the regular solution has zero flux; at
    # R = 1e-8 its rise rounds away, so it is constant in double and the
    # set-up raises NumericalError at every call and caches nothing
    import radbif.steklov as steklov_module
    calls, setup = [], steklov_module._kernel_solver

    def counting(grid):
        calls.append(1)
        return setup(grid)

    monkeypatch.setattr(steklov_module, "_kernel_solver", counting)
    grid = build_grid(3, 1e-8, 32)
    state = SystemState(0.3 * np.ones(grid.M + 1), 0.4 * np.ones(grid.M + 1))
    for n in (1, 2):
        with pytest.raises(NumericalError,
                           match="constant in double, so the grid operator "
                                 "is singular"):
            newton_solve(grid, ref_model, 0.3, state)
        assert len(calls) == n
    assert steklov_eigenpair(build_grid(3, 1e-4, 32)).mu1 > 0.0


def test_singular_trace_coupling_raises(grid128):
    # linear fluxes at lam = mu_h: the 2x2 determinant mu_h^2 - lam^2 is
    # exactly zero, and the traces (1, 2) leave a nonzero residual
    eig = steklov_eigenpair(grid128)
    with pytest.raises(NonConvergenceError, match="singular Jacobian"):
        newton_solve(grid128, linear_model(), eig.mu1,
                     SystemState(eig.phi1, 2.0 * eig.phi1))


def test_fixed_lambda_solution_richardson_order(ref_model):
    # tol sits above the per-grid representation floor eps*(2/h^2), which
    # reaches ~4.7e-10 at M=1024; solution accuracy stays far below the
    # O(h^2) norm differences the ratio measures
    lam = LAMBDA_MID
    norms = []
    for M in (256, 512, 1024):
        grid = build_grid(3, 1.0, M)
        w = solve_flux_bvp(grid, 1.0)
        w = w / w[-1]
        init = SystemState(0.47 * w, 0.60 * w)
        norms.append(pair_norm(
            newton_solve(grid, ref_model, lam, init, tol=1e-9).state))
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


def test_newton_config_rejects_bad_settings(grid128, ref_model):
    # the tolerance is newton_solve's one setting; the step limit is the
    # module constant MAX_NEWTON_ITER
    init = SystemState.zero(grid128)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="tol_residual"):
            newton_solve(grid128, ref_model, 0.3, init, tol=tol)
    # lam = 0 could only reach the trivial state, as solutions_at and the
    # command line say too
    for lam in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="parameter"):
            newton_solve(grid128, ref_model, lam, init)


def test_state_must_have_the_grid_nodes(grid128, ref_model):
    # node M of a longer state is no trace, and a shorter one has no node M
    for n in (grid128.M, grid128.M + 2):
        state = SystemState(np.ones(n), np.ones(n))
        for call in (residual, newton_solve):
            with pytest.raises(ValueError, match="expected 129 nodal values"):
                call(grid128, ref_model, 0.3, state)


def test_newton_iterate_leaving_the_admissible_region_raises(grid128,
                                                            ref_model):
    # from traces of 1e200 the flux rows overflow to inf and the first step
    # is not finite: a failure with its history and last iterate, and no
    # floating-point warning on the way
    phi = steklov_eigenpair(grid128).phi1
    init = SystemState(1e200 * phi, 1e200 * phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError,
                           match="iterate left the admissible region") as exc:
            newton_solve(grid128, ref_model, 0.3, init)
    assert exc.value.trace and exc.value.last_state is not None


def test_limit_problem_needs_superlinear_powers(grid128):
    # p1 = p2 = 1: the limit rows are linear and have no isolated solution
    with pytest.raises(ConfigError):
        solve_limit_problem(grid128, linear_model())
