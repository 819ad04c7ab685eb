"""Shared fixtures: one reference grid/eigenpair/branch per session.

The continuation run is by far the most expensive object the unit tests
need, so it is computed once and treated as read-only.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import radbif

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def t1_increases_along_every_traced_branch():
    """Every branch continue_branch returns in this suite has its t1
    strictly increasing in branch order, the rule solutions_at brackets
    its roots by.  Checked where continue_branch locates the folds:
    _locate_folds is looked up as a module global, so this one patch
    covers every caller."""
    import radbif.continuation as cont
    locate = cont._locate_folds

    def checked(ts, branch, tol):
        t1 = [p.t1 for p in branch.points]
        assert all(a < b for a, b in zip(t1, t1[1:])), \
            "t1 does not increase along the traced branch"
        return locate(ts, branch, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cont, "_locate_folds", checked)
        yield


@pytest.fixture(scope="session")
def ref_model():
    return radbif.reference_model()


# A monotone model whose branch turns twice: lam has a minimum near
# 0.3126 and a maximum near 0.3708 at M = 512
TWO_FOLD_COEFFS = ([0.0, 1.0, -1.5, 1.0], [0.0, 1.0, 1.72])


@pytest.fixture(scope="session")
def two_fold_model():
    return radbif.polynomial_model(*TWO_FOLD_COEFFS)


@pytest.fixture(scope="session")
def grid512():
    return radbif.build_grid(3, 1.0, 512)


@pytest.fixture(scope="session")
def grid128():
    return radbif.build_grid(3, 1.0, 128)


@pytest.fixture(scope="session")
def eig512(grid512):
    return radbif.steklov_eigenpair(grid512)


@pytest.fixture(scope="session")
def mu0_ref(ref_model, eig512):
    return radbif.bifurcation_point(ref_model, eig512.mu1)


@pytest.fixture(scope="session")
def branch_cfg():
    return radbif.ContinuationConfig(ds0=0.01, ds_min=1e-8, ds_max=0.25,
                                     eps_step_off=1e-4, lambda_stop_low=1e-3,
                                     max_points=4000)


@pytest.fixture(scope="session")
def ref_branch(grid512, ref_model, branch_cfg):
    return radbif.continue_branch(grid512, ref_model, branch_cfg)


@pytest.fixture(scope="session")
def two_fold_branch(grid512, two_fold_model, branch_cfg):
    return radbif.continue_branch(grid512, two_fold_model, branch_cfg)


def trace_system_solve(mu_h, g1, g2, dg1, dg2, t1, t2, tol=1e-14):
    """Independent 2x2 Newton for the trace system mu t1 = g1(t2),
    mu t2 = g2(t1).  Every discrete solution lies on the kernel ray, so its
    boundary values must satisfy this reduced system exactly; the tests use
    it as an oracle the solver modules never see.
    """
    for _ in range(200):
        f1 = mu_h * t1 - g1(t2)
        f2 = mu_h * t2 - g2(t1)
        if max(abs(f1), abs(f2)) <= tol * max(1.0, abs(t1), abs(t2)):
            return t1, t2
        # rows: [mu, -dg1(t2)], [-dg2(t1), mu]
        det = mu_h * mu_h - dg1(t2) * dg2(t1)
        if det == 0.0:
            break
        t1 -= (mu_h * f1 + dg1(t2) * f2) / det
        t2 -= (dg2(t1) * f1 + mu_h * f2) / det
    raise AssertionError("trace-system oracle did not converge")


@pytest.fixture(scope="session")
def mu_h512(grid512):
    # discrete eigenvalue seen by the trace reduction: 1 / v_h(R)
    v = radbif.solve_flux_bvp(grid512, 1.0)
    return 1.0 / float(v[-1])


def is_positive_state_reference(state):
    """is_positive_state as first written, in eight reductions: the pair
    norm from np.abs of both components, then the minima and maxima.  The
    reference that the four-reduction form must agree with on every
    input."""
    norm = float(np.abs(state.u1).max() + np.abs(state.u2).max())
    if norm <= radbif.POSITIVITY_ZERO_FLOOR:
        return False
    floor = radbif.POSITIVITY_REL_FLOOR * norm
    return bool(min(state.u1.min(), state.u2.min()) > 0.0
                and min(state.u1.max(), state.u2.max()) > floor)


def exact_stencil(grid, u):
    """grid._stencil's formula on the 1-d double array u, evaluated
    exactly in fractions.Fraction, with the grid's own weights w_j: the
    reference that the double evaluation must round about once per row
    against."""
    from fractions import Fraction
    from radbif.grid import _weights
    M, h = grid.M, Fraction(grid.h)
    u = [Fraction(x) for x in u.tolist()]
    w = [Fraction(x) for x in _weights(grid)[:, 0].tolist()]
    d = [b - a for a, b in zip(u, u[1:])]
    return ([u[0] - 2 * grid.N_dim / h ** 2 * d[0]]
            + [u[j] - (d[j] - d[j - 1]) / h ** 2 - w[j - 1] * (d[j] + d[j - 1])
               for j in range(1, M)]
            + [(3 * d[M - 1] - d[M - 2]) / (2 * h)])


def expression_stencil(grid, u):
    """grid._stencil as whole-array expressions, one per block of rows,
    each allocating its temporaries: the reference that the in-place
    evaluation, with its work arrays and its weights repeated over the
    columns, must match bit for bit."""
    from radbif.grid import _weights
    M, h, w = grid.M, grid.h, _weights(grid)
    d = u[1:] - u[:-1]
    out = np.empty_like(u)
    out[0] = u[0] - (2.0 * grid.N_dim / h**2) * d[0]
    out[1:M] = u[1:M] - (d[1:] - d[:-1]) / h**2 - w * (d[1:] + d[:-1])
    out[M] = (3.0 * d[M - 1] - d[M - 2]) / (2.0 * h)
    return out


def exact_mu(N, R, M):
    """mu_h = flux(phi)/phi_M of the grid operator on N, R, M, evaluated
    exactly: h = R/M from R's binary value, phi from rows 0..M-1 with
    phi_0 = 1.  Times h^2, row 0 gives phi_1 = (1 + h^2/(2N)) phi_0, and
    times 2j h^2, row j gives (2j + N - 1) phi_{j+1} = 2j (2 + h^2) phi_j
    - (2j - N + 1) phi_{j-1}.  With h^2 = p/D the recurrence runs on
    Python integers z, a, b, the last three phi_j over one running common
    denominator, which cancels from mu_h and so is never formed."""
    from fractions import Fraction
    h = Fraction(R) / M
    p, D = (h * h).numerator, (h * h).denominator
    z, a, b = 0, 2 * N * D, 2 * N * D + p
    for j in range(1, M):
        k = D * (2 * j + N - 1)
        z, a, b = a * k, b * k, (2 * j * (2 * D + p) * b
                                 - D * (2 * j - N + 1) * a)
    return Fraction(3 * b - 4 * a + z, 2 * b) / h


def exact_profile(N, R, M):
    """The unit-trace profile phi_j/phi_M of the grid operator on N, R, M,
    exactly, as M + 1 Fractions, the last exactly 1: exact_mu's
    recurrence, with each phi_j kept as the integer numerator n_j it has
    over the running denominator of the step that made it.  Step j
    multiplies that denominator by k_j = D (2j + N - 1), so

        n_{j+1} = 2j (2D + p) n_j - D (2j - N + 1) k_{j-1} n_{j-1},

    with phi_0 and phi_1 over the same denominator (k_0 = 1), and
    phi_j/phi_M is n_j times the k_i of the steps from j on, over n_M."""
    from fractions import Fraction
    h = Fraction(R) / M
    p, D = (h * h).numerator, (h * h).denominator
    n, k = [2 * N * D, 2 * N * D + p], [1]
    for j in range(1, M):
        n.append(2 * j * (2 * D + p) * n[j]
                 - D * (2 * j - N + 1) * k[j - 1] * n[j - 1])
        k.append(D * (2 * j + N - 1))
    profile, tail = [], 1
    for j in range(M, -1, -1):
        profile.append(Fraction(n[j] * tail, n[M]))
        tail *= k[j - 1]
    return profile[::-1]


def bisect_root(q, lo, hi):
    """Plain bisection of the callable q on a sign-changing [lo, hi] down
    to the last double: an exact zero of q, or the lo end of two adjacent
    doubles where q changes sign.  The root finder solutions_at used
    before its Illinois iteration, kept as an oracle for it."""
    q_lo = q(lo)
    while q_lo != 0.0:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        q_mid = q(mid)
        if q_mid == 0.0 or (q_mid > 0.0) == (q_lo > 0.0):
            lo, q_lo = mid, q_mid
        else:
            hi = mid
    return lo


def scan_solutions_at(branch, lam):
    """solutions_at by the exhaustive node scan: q_lam at every branch t1
    and at every fold t1, sorted, each sign change between neighbours
    closed by ts.root and each exact zero at t > 0 taken.  The oracle that
    solutions_at's level-crossing brackets must match bit for bit."""
    from radbif.continuation import _TraceSystem, _verify
    ts = _TraceSystem(branch.grid, branch.model)
    nodes = sorted({p.t1 for p in branch.points}
                   | {f.t1 for f in branch.folds})
    qs = [ts.q(t, lam) for t in nodes]
    roots = [t for t, v in zip(nodes, qs) if v == 0.0 and t > 0.0]
    roots += [ts.root(lam, a, b, qa, qb)
              for a, b, qa, qb in zip(nodes, nodes[1:], qs, qs[1:])
              if qa * qb < 0.0]
    states = []
    for t1 in roots:
        try:
            states.append(_verify(branch.grid, ts, ts.at(t1, lam),
                                  branch.tol)[-1])
        except radbif.NonConvergenceError:
            continue
    return sorted(states, key=radbif.pair_norm)
