"""End-to-end verification suite: one test per acceptance check.

The checks live in radbif.verify so the CLI `verify` subcommand and this
module run exactly the same code; the outcome list is computed once per
process and shared.  Each test prints its PASS/FAIL line with the check's
measured detail string.  The jacobian-fd check is also run against a
wrong coupling and a wrong lam column in the trace system's derivative,
and against a residual with a dependency outside a row's reach.
"""

import dataclasses
import re

import numpy as np
import pytest

import radbif.verify as verify
from radbif import (NonConvergenceError, SystemState, bifurcation_point,
                    build_grid, continue_branch, newton_solve,
                    nonexistence_bound, quadratic_model, reference_model,
                    slope_fit, steklov_eigenpair)
from radbif.grid import _stencil
from radbif.verify import run_acceptance

CRITERIA = (
    "steklov-oracle",
    "bifurcation-point",
    "direction-slope",
    "theta-exponents",
    "rescale-tail",
    "nonexistence",
    "multiplicity",
    "jacobian-fd",
    "jordan-identity",
)


@pytest.fixture(scope="module")
def outcomes():
    return {o.name: o for o in run_acceptance()}


def test_suite_is_complete(outcomes):
    assert tuple(outcomes) == CRITERIA


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name, outcomes):
    o = outcomes[name]
    print(f"{'PASS' if o.passed else 'FAIL'}  {o.name}: {o.detail}")
    assert o.passed, f"{o.name}: {o.detail}"


def _fd_error(model, t1=1.3, t2=0.4):
    """The jacobian-fd errors (flux, interior) at one state at M = 128."""
    grid = build_grid(3, 1.0, 128)
    return verify._fd_error(grid, verify._TraceSystem(grid, model),
                            [(t1, t2, 0.3)], verify._row_scales(grid))


@pytest.mark.parametrize("N", [3, 10])
@pytest.mark.parametrize("M", [16, 17, 128, 512])
def test_comb_row_scales_equal_the_identity_row_scales(N, M):
    # the interior row scales max(1, max_j |A_ij|) read off the stencil of
    # three comb columns are those of the stencil of the identity, bit for
    # bit, at M = 0, 1 and 2 (mod 3)
    grid = build_grid(N, 1.0, M)
    a = np.abs(_stencil(grid, np.eye(M + 1))[:M])
    want = np.repeat(np.maximum(1.0, a.max(axis=1)), 2)
    got = verify._row_scales(grid)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_jordan_identity_worst_equals_the_matmul_worst():
    # over the check's 100 seeded pairs the entry-by-entry floats and
    # numpy's P @ J @ Pinv (a BLAS kernel, which may order the products
    # differently pair by pair) reach the same worst error
    rng = np.random.default_rng(verify._RNG_SEED + 1)
    got, want = [], []
    for _ in range(100):
        jd = verify._jordan(*rng.uniform(1e-6, 10.0, 2).tolist())
        got.append(verify._identity_error(jd))
        want.append(float(np.abs(jd.P @ jd.J @ jd.Pinv - jd.A).max()))
    assert max(got) == max(want)
    assert max(got) <= 1e-12
    ok, detail = verify._check_jordan_identity({})
    assert ok and detail == (f"max |P J Pinv - A| = {max(want):.2e} "
                             "over 100 pairs")


def test_fd_check_sees_a_wrong_coupling(monkeypatch):
    # each flux row is measured against its own scale, so the coupling
    # -lam f1'(t2) off by 1e-3 relative is an error of about 1e-3 times
    # its share of the row: the check fails
    model = reference_model()
    base, _ = _fd_error(model)
    exact = verify._TraceSystem.linearize

    def wrong(ts, t1, t2, lam):
        r, ((a, c1, b), row2) = exact(ts, t1, t2, lam)
        return r, ((a, c1 * (1.0 + 1e-3), b), row2)

    monkeypatch.setattr(verify._TraceSystem, "linearize", wrong)
    assert _fd_error(model)[0] > 100.0 * base
    ok, detail = verify._check_jacobian_fd({"model": model})
    assert not ok, detail


def test_fd_check_sees_a_wrong_lambda_column(monkeypatch):
    # the lam column of each flux row is -f_i; scaled by 1 + 1e-3 the
    # check fails
    model = reference_model()
    base, _ = _fd_error(model)
    exact = verify._TraceSystem.linearize

    def wrong(ts, t1, t2, lam):
        r, rows = exact(ts, t1, t2, lam)
        return r, tuple((a, b, c * (1.0 + 1e-3)) for a, b, c in rows)

    monkeypatch.setattr(verify._TraceSystem, "linearize", wrong)
    assert _fd_error(model)[0] > 100.0 * base
    ok, detail = verify._check_jacobian_fd({"model": model})
    assert not ok, detail


@pytest.mark.parametrize("col", [5, 8, 200])
def test_fd_check_catches_a_dependency_outside_the_reach(monkeypatch, col):
    # row 0 reads nodes 0 and 1 of u1; a residual that adds the value of
    # interleaved column col (node col // 2 of u1 or u2) to it moves with
    # the traces on the ray, where the interior rows must not.  The check
    # evaluates its stepped states as blocks of _pair_residual, so the
    # leak goes into every state of a block: state k's row 0 of u1 is
    # column 2k of the block's row 0
    import radbif.solver as solver
    exact = solver._pair_residual

    def leaky(grid, u, flux):
        r = exact(grid, u, flux)
        r[0, 0::2] += u[col // 2, col % 2::2]
        return r

    model = reference_model()
    _, base = _fd_error(model)
    monkeypatch.setattr(solver, "_pair_residual", leaky)
    assert _fd_error(model)[1] > 1e3 * base
    ok, detail = verify._check_jacobian_fd({"model": model})
    assert not ok, detail


def _newton_positives(grid, model, lams):
    """The oracle of the nonexistence count: a newton_solve per start amp
    phi_1, amp in logspace(-2, 2, 20), at each lam, counting the
    positive results; a solve that raises counts as no state."""
    phi, positives = steklov_eigenpair(grid).phi1, 0
    for lam in lams:
        for amp in np.logspace(-2, 2, 20):
            try:
                result = newton_solve(grid, model, lam,
                                      SystemState(amp * phi, amp * phi))
            except NonConvergenceError:
                continue
            positives += result.positive
    return positives


@pytest.mark.parametrize("where", ["beyond-the-bound", "inside-the-window"])
def test_nonexistence_count_is_the_count_of_newton_solve(ref_branch, grid512,
                                                        where, monkeypatch):
    # the check's count of positive states, Newton on the traces
    # re-checked in blocks, is the count of newton_solve per start: none
    # at the check's 1.01, 1.5 and 3 times mu1/K, some at three lam
    # inside (mu0, fold).  Inside the window every point of the first
    # block is also failed on its residual, so it is re-checked alone by
    # the _recheck fallback, which finds the same count
    model = reference_model()
    mu1 = steklov_eigenpair(grid512).mu1
    if where == "beyond-the-bound":
        bound = nonexistence_bound(model, mu1)
        lams = [factor * bound for factor in (1.01, 1.5, 3.0)]
    else:
        mu0, fold = bifurcation_point(model, mu1), ref_branch.fold.lam_bar
        lams = [mu0 + (fold - mu0) * q / 4 for q in (1, 2, 3)]
    want = _newton_positives(grid512, model, lams)
    assert verify._nonexistence_count(grid512, model, lams) == (want, 60)
    assert (want == 0) == (where == "beyond-the-bound")
    if where == "beyond-the-bound":
        return
    block, recheck, blocks, alone = verify._recheck_block, verify._recheck, [], []

    def failing_first(grid, ts, xs, tol):
        u, res, positive = block(grid, ts, xs, tol)
        blocks.append(len(xs))
        return u, [None] * len(xs) if len(blocks) == 1 else res, positive

    def counting(*args):
        alone.append(args[-1])
        return recheck(*args)

    monkeypatch.setattr(verify, "_recheck_block", failing_first)
    monkeypatch.setattr(verify, "_recheck", counting)
    assert verify._nonexistence_count(grid512, model, lams) == (want, 60)
    run = verify._run_length(grid512)
    assert blocks and max(blocks) == run and len(alone) >= run
    assert set(alone[:run]) == {verify.ULP_SHIFTS[1:]}


def test_nonexistence_beyond_the_bound_rebuilds_no_state(grid512,
                                                         monkeypatch):
    # at the check's 1.01, 1.5 and 3 times mu1/K every solve ends on the
    # trivial state, |t1| + |t2| at most half the positivity floor, which
    # no rounding of ULP_SHIFTS makes positive: no state is rebuilt
    model = reference_model()
    bound = nonexistence_bound(model, steklov_eigenpair(grid512).mu1)
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(verify, "_recheck_block",
                        counting(verify._recheck_block))
    monkeypatch.setattr(verify, "_recheck", counting(verify._recheck))
    lams = [factor * bound for factor in (1.01, 1.5, 3.0)]
    assert verify._nonexistence_count(grid512, model, lams) == (0, 60)
    assert calls == []


def test_direction_slope_branches_hold_the_fit_window(grid512, eig512,
                                                      monkeypatch):
    # the check's branches end past norm 0.1, the norm rising at every
    # point, and their fits are those of 30-point branches bit for bit
    cfg = verify._slope_branch_config()
    for model in (reference_model(), quadratic_model()):
        branch = continue_branch(grid512, model, cfg)
        norms = [p.norm for p in branch.points]
        assert norms[-1] >= 0.1
        assert all(a < b for a, b in zip(norms[:-1], norms[1:]))
        longer = continue_branch(grid512, model,
                                 dataclasses.replace(cfg, max_points=30))
        assert slope_fit(branch).hex() == slope_fit(longer).hex()
    # a branch cut short of the window fails the check with that reason
    monkeypatch.setattr(verify, "_slope_branch_config",
                        lambda: dataclasses.replace(cfg, max_points=6))
    ok, detail = verify._check_direction_slope(
        {"grid": grid512, "eig": eig512, "model": reference_model()})
    assert not ok
    assert re.fullmatch(r"ref branch ends at norm=0\.\d{4} after 6 points, "
                        r"short of the fit window's end 0\.1", detail), detail


def test_a_check_that_raises_fails_and_the_others_still_run(monkeypatch):
    def crash(shared):
        raise RuntimeError("forced crash")

    checks = tuple((name, crash if name == "rescale-tail" else fn)
                   for name, fn in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", checks)
    # the memoized outcome list is restored afterwards, so later tests
    # do not read this run's
    monkeypatch.setattr(verify, "_CACHE", None)
    outcomes = {o.name: o for o in run_acceptance(force=True)}
    assert tuple(outcomes) == CRITERIA
    crashed = outcomes.pop("rescale-tail")
    assert not crashed.passed
    assert crashed.detail == "RuntimeError: forced crash"
    assert all(o.passed for o in outcomes.values())


def test_one_set_up_per_distinct_grid(monkeypatch):
    # the steklov-oracle check reads M = 512 off the suite's shared grid,
    # so one run sets up each of its five distinct grids exactly once
    import radbif.steklov as steklov_module
    setup, sizes = steklov_module._kernel_solver, []

    def counting(grid):
        sizes.append(grid.M)
        return setup(grid)

    monkeypatch.setattr(steklov_module, "_kernel_solver", counting)
    monkeypatch.setattr(verify, "_CACHE", None)
    outcomes = run_acceptance(force=True)
    assert all(o.passed for o in outcomes)
    assert sorted(sizes) == [128, 256, 512, 1024, 2048]
