"""End-to-end verification suite: one test per acceptance check.

The checks live in radbif.verify so the CLI `verify` subcommand and this
module run exactly the same code; the outcome list is computed once per
process and shared.  Each test prints its PASS/FAIL line with the check's
measured detail string.  The jacobian-fd check is also run against a
wrong coupling and a wrong lam column in the trace system's derivative,
and against a residual with a dependency outside a row's reach.
"""

import numpy as np
import pytest

import radbif.verify as verify
from radbif import build_grid, reference_model
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
    return verify._fd_error(grid, verify._TraceSystem(grid, model), 0.3,
                            t1, t2, verify._row_scales(grid))


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
    # the traces on the ray, where the interior rows must not
    exact = verify.residual

    def leaky(grid, model, lam, state):
        r = exact(grid, model, lam, state)
        r[0] += (state.u1, state.u2)[col % 2][col // 2]
        return r

    model = reference_model()
    _, base = _fd_error(model)
    monkeypatch.setattr(verify, "residual", leaky)
    assert _fd_error(model)[1] > 1e3 * base
    ok, detail = verify._check_jacobian_fd({"model": model})
    assert not ok, detail


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
