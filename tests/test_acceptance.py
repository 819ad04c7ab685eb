"""End-to-end verification suite: one test per acceptance check.

The checks live in radbif.verify so the CLI `verify` subcommand and this
module run exactly the same code; the outcome list is computed once per
process and shared.  Each test prints its PASS/FAIL line with the check's
measured detail string.  The jacobian-fd check's column-class differences
are also tested against a one-column-at-a-time reference and against a
wrong Jacobian and a residual with a dependency outside the reach.
"""

import numpy as np
import pytest

import radbif.verify as verify
from radbif import SystemState, build_grid, quadratic_model, reference_model
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


def _one_column_fd_error(grid, model, lam, x):
    """The jacobian-fd error with one residual call per column and sign."""
    delta = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = np.zeros((x.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] = x[j] + delta[j]
        xm[j] = x[j] - delta[j]
        fd[:, j] = (verify.residual(grid, model, lam, SystemState.from_vector(xp))
                    - verify.residual(grid, model, lam, SystemState.from_vector(xm))
                    ) / (2.0 * delta)[j]
    dense = verify.jacobian(grid, model, lam, SystemState.from_vector(x)).todense()
    scale = max(1.0, float(np.abs(dense).max()))
    return float(np.abs(dense - fd).max()) / scale


def _fd_states(M, count=4):
    rng = np.random.default_rng(M)
    return [SystemState(rng.uniform(0.05, 2.0, M + 1),
                        rng.uniform(0.05, 2.0, M + 1)).to_vector()
            for _ in range(count)]


@pytest.mark.parametrize("M", [16, 64])
def test_fd_error_equals_the_one_column_reference(M):
    grid = build_grid(3, 1.0, M)
    for model in (reference_model(), quadratic_model()):
        for x in _fd_states(M):
            got = verify._fd_error(grid, model, 0.3, x)
            assert 0.0 < got <= 1e-6
            assert got == _one_column_fd_error(grid, model, 0.3, x)


def test_fd_check_sees_a_wrong_coupling(monkeypatch):
    shared = {"model": reference_model()}
    exact = verify.jacobian
    grid, x = build_grid(3, 1.0, 128), _fd_states(128, 1)[0]
    base = verify._fd_error(grid, shared["model"], 0.3, x)

    def wrong_c1(rel):
        def jac(*args):
            j = exact(*args)
            return j._replace(c1=j.c1 * (1.0 + rel))
        monkeypatch.setattr(verify, "jacobian", jac)

    # c1 off by 1e-3 lifts the error over tenfold, yet the matrix-scale
    # yardstick (about 1e5 at M = 128) keeps it below the 1e-6 bound; off
    # by 1e-1 it fails the check
    wrong_c1(1e-3)
    assert verify._fd_error(grid, shared["model"], 0.3, x) > 10.0 * base
    wrong_c1(1e-1)
    ok, detail = verify._check_jacobian_fd(shared)
    assert not ok, detail


@pytest.mark.parametrize("col", [5, 8])
def test_fd_check_catches_a_dependency_outside_the_reach(monkeypatch, col):
    # row 0 reads columns 0..2; column 5 is in a class that reaches no
    # column of row 0 (error inf), column 8 shares class 0 with column 0
    # and corrupts its entry
    exact = verify.residual

    def leaky(grid, model, lam, state):
        r = exact(grid, model, lam, state)
        r[0] += (state.u1, state.u2)[col % 2][col // 2]
        return r

    monkeypatch.setattr(verify, "residual", leaky)
    ok, detail = verify._check_jacobian_fd({"model": reference_model()})
    assert not ok, detail
    if col == 5:
        assert "error=inf" in detail
