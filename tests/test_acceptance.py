"""End-to-end verification suite: one test per acceptance check.

The checks live in radbif.verify so the CLI `verify` subcommand and this
module run exactly the same code; the outcome list is computed once per
process and shared.  Each test prints its PASS/FAIL line with the check's
measured detail string.  The jacobian-fd check's column-class differences
are also tested against a one-column-at-a-time reference, against a
wrong Jacobian, one with an entry outside a row's reach, and a residual
with a dependency outside the reach.
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
    dense = verify.jacobian(grid, model, lam, SystemState.from_vector(x))
    scale = np.maximum(1.0, np.abs(dense).max(axis=1))
    return float((np.abs(dense - fd).max(axis=1) / scale).max())


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
            n = j.shape[0]
            j[n - 2, n - 1] *= 1.0 + rel
            return j
        monkeypatch.setattr(verify, "jacobian", jac)

    # each row is measured against its own scale, so a coupling off by
    # 1e-3 relative is an error of about 1e-5 in its flux row: the check
    # fails
    wrong_c1(1e-3)
    assert verify._fd_error(grid, shared["model"], 0.3, x) > 10.0 * base
    ok, detail = verify._check_jacobian_fd(shared)
    assert not ok, detail


@pytest.mark.parametrize("row, col", [(0, 10), (129, 135)])
def test_fd_check_sees_an_entry_outside_the_reach(monkeypatch, row, col):
    # row i's differences cover columns i-4 .. i+2 only; an entry of the
    # Jacobian outside them is compared with zero
    exact = verify.jacobian

    def jac(*args):
        j = exact(*args)
        j[row, col] = 1e3
        return j

    monkeypatch.setattr(verify, "jacobian", jac)
    model = reference_model()
    grid, x = build_grid(3, 1.0, 128), _fd_states(128, 1)[0]
    scale = max(1.0, float(np.abs(jac(grid, model, 0.3,
                                      SystemState.from_vector(x))[row]).max()))
    assert verify._fd_error(grid, model, 0.3, x) >= 1e3 / scale > 1e-6
    ok, detail = verify._check_jacobian_fd({"model": model})
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
