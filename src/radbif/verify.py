"""Acceptance suite: nine oracle- and property-based checks at fixed desk
scale.  Grid sizes, tolerances, and time budgets are part of the check
definitions, not configuration.

Checks never raise; exceptions become failed outcomes with the error text.
The suite result is memoized because several checks share one long branch
run and both the test suite and the command line want the same table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (bifurcation_point, jordan_data, nonexistence_bound,
                       rescale_check, slope_fit, slope_prediction,
                       theta_exponents)
from .continuation import (ContinuationConfig, continue_branch,
                           initial_tangent, solutions_at)
from .errors import NonConvergenceError
from .grid import SystemState, build_grid, pair_norm
from .model import linear_model, quadratic_model, reference_model
from .monotone import build_subsolution, monotone_iterate
from .solver import (NewtonConfig, jacobian, newton_solve, residual,
                     scaled_residual_norm)
from .steklov import steklov_eigenpair

__all__ = ["CheckOutcome", "run_acceptance", "format_table"]

MU1_EXACT_N3_R1 = 2.0 / (math.e ** 2 - 1.0)
_RNG_SEED = 20260814


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


_CACHE: list | None = None


def _shared():
    """Artifacts used by several checks: the reference setup at M=512 and
    one long branch run through the fold into the small-parameter tail."""
    model = reference_model()
    grid = build_grid(3, 1.0, 512)
    eig = steklov_eigenpair(grid)
    mu0 = bifurcation_point(model, eig.mu1)
    cfg = ContinuationConfig(ds0=0.01, ds_min=1e-8, ds_max=0.25,
                             eps_step_off=1e-4, lambda_stop_low=9e-4,
                             max_points=4000)
    branch = continue_branch(grid, model, cfg)
    return {"model": model, "grid": grid, "eig": eig, "mu0": mu0,
            "branch": branch}


def _check_steklov_oracle(shared):
    t0 = time.perf_counter()
    errs = {}
    for m in (256, 512, 1024, 2048):
        eig = steklov_eigenpair(build_grid(3, 1.0, m))
        errs[m] = eig.mu1 - MU1_EXACT_N3_R1
    seconds = time.perf_counter() - t0
    ratios = (errs[256] / errs[512], errs[512] / errs[1024])
    ok = (abs(errs[2048]) <= 1e-6
          and all(abs(r - 4.0) <= 0.6 for r in ratios)
          and seconds < 5.0)
    detail = (f"err(2048)={errs[2048]:.3e}, ratios=({ratios[0]:.3f}, "
              f"{ratios[1]:.3f}), {seconds:.2f}s of 5s")
    return ok, detail


def _check_bifurcation_point(shared):
    model, grid, eig, mu0 = (shared["model"], shared["grid"], shared["eig"],
                             shared["mu0"])
    devs = []
    last_branch = None
    for eps in (1e-3, 1e-4, 1e-5):
        cfg = ContinuationConfig(ds0=eps, ds_min=eps / 32, ds_max=4 * eps,
                                 eps_step_off=eps, lambda_stop_low=1e-6,
                                 max_points=11)
        branch = continue_branch(grid, model, cfg)
        pts = branch.points[1:11]
        if len(pts) < 10:
            return False, f"only {len(pts)} points at eps={eps:g}"
        devs.append(max(abs(p.lam - mu0) for p in pts))
        last_branch = branch
    tgt = initial_tangent(model, eig)
    first = last_branch.points[1]
    tangent_err = max(
        float(np.abs(first.state.u1 / first.norm - tgt.u1).max()),
        float(np.abs(first.state.u2 / first.norm - tgt.u2).max()))
    ok = (devs[0] >= devs[1] >= devs[2] and devs[2] <= 1e-3
          and tangent_err <= 1e-2)
    detail = (f"lam devs={devs[0]:.2e}/{devs[1]:.2e}/{devs[2]:.2e} "
              f"(tol 1e-3 at eps=1e-5), tangent err={tangent_err:.2e}")
    return ok, detail


def _slope_branch_config():
    return ContinuationConfig(ds0=1e-4, ds_min=1e-8, ds_max=0.02,
                              eps_step_off=1e-4, lambda_stop_low=1e-3,
                              max_points=30)


def _check_direction_slope(shared):
    grid, eig = shared["grid"], shared["eig"]
    budget = 60.0

    t0 = time.perf_counter()
    fit_ref = slope_fit(continue_branch(grid, shared["model"],
                                        _slope_branch_config()))
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    left = quadratic_model()
    fit_left = slope_fit(continue_branch(grid, left, _slope_branch_config()))
    pred_left = slope_prediction(left, eig)
    t_left = time.perf_counter() - t0

    target = -0.03913
    ok = (abs(fit_ref - target) <= 0.05 * abs(target)
          and fit_left > 0.0
          and abs(fit_left - pred_left) <= 0.05 * abs(pred_left)
          and t_ref < budget and t_left < budget)
    detail = (f"ref fit={fit_ref:.5f} vs {target} (5%), left fit="
              f"{fit_left:.5f} vs pred={pred_left:.5f} (5%), "
              f"{t_ref:.1f}s/{t_left:.1f}s of 60s each")
    return ok, detail


def _check_theta_exponents(shared):
    th1, th2 = theta_exponents(shared["model"])
    model = shared["model"]
    r1 = abs(1.0 + th2 - th1 * model.p1)
    r2 = abs(1.0 + th1 - th2 * model.p2)
    ok = th1 == 4.0 / 5.0 and th2 == 3.0 / 5.0 and r1 <= 1e-12 and r2 <= 1e-12
    detail = (f"theta=({th1:.17g}, {th2:.17g}), residuals=({r1:.2e}, "
              f"{r2:.2e})")
    return ok, detail


def _check_rescale_tail(shared):
    t0 = time.perf_counter()
    table = rescale_check(shared["branch"])
    seconds = time.perf_counter() - t0
    first_dev = max(abs(table.rows[0][1] - 1.0), abs(table.rows[0][2] - 1.0))
    ok = table.ok and seconds < 180.0
    detail = (f"{len(table.rows)} tail rows, dev {first_dev:.3f} -> "
              f"{table.final_dev:.4f} (monotone={table.monotone}, final "
              f"tol 2%), {seconds:.1f}s of 180s")
    return ok, detail


def _check_nonexistence(shared):
    model, grid, eig = shared["model"], shared["grid"], shared["eig"]
    bound = nonexistence_bound(model, eig.mu1)
    cfg = NewtonConfig()
    positives = 0
    attempts = 0
    for factor in (1.01, 1.5, 3.0):
        lam = factor * bound
        for amp in np.logspace(-2, 2, 20):
            attempts += 1
            init = SystemState(amp * eig.phi1, amp * eig.phi1)
            try:
                result = newton_solve(grid, model, lam, init, cfg)
            except NonConvergenceError:
                continue
            if result.positive:
                positives += 1
    lam_max = float(shared["branch"].lambdas().max())
    ok = positives == 0 and lam_max <= bound + 1e-8
    detail = (f"{positives}/{attempts} positive states beyond mu1/K="
              f"{bound:.6f}; branch max lam={lam_max:.6f}")
    return ok, detail


def _check_multiplicity(shared):
    model, grid, branch = shared["model"], shared["grid"], shared["branch"]
    if branch.fold is None:
        return False, "branch has no fold"
    lam = 0.5 * (shared["mu0"] + branch.fold.lam_bar)
    sols = solutions_at(branch, lam)
    if len(sols) < 2:
        return False, f"only {len(sols)} states at lam={lam:.6f}"
    norms = [pair_norm(s) for s in sols]
    gap = min(b - a for a, b in zip(norms[:-1], norms[1:]))

    sub = build_subsolution(grid, model, lam)
    ceiling = max(sols, key=pair_norm)
    minimal = monotone_iterate(grid, model, lam, sub, sup=ceiling)

    res_min = scaled_residual_norm(residual(grid, model, lam, minimal), minimal)
    residuals = [res_min]
    below_all = True
    for s in sols:
        residuals.append(scaled_residual_norm(residual(grid, model, lam, s), s))
        slack = 1e-8 * max(1.0, pair_norm(s))
        if (minimal.u1 > s.u1 + slack).any() or (minimal.u2 > s.u2 + slack).any():
            below_all = False
    worst_res = max(residuals)
    ok = gap > 1e-3 and below_all and worst_res <= 1e-10
    detail = (f"{len(sols)} states at lam={lam:.6f}, norm gap={gap:.4f}, "
              f"minimal below both={below_all}, worst residual="
              f"{worst_res:.2e}")
    return ok, detail


def _fd_error(grid, model, lam, x):
    """Max |J - J_fd| over max(1, |J|_max) at the interleaved vector x.

    Central differences with per-column step delta_j = 1e-6 max(1, |x_j|),
    taken eight column classes at a time (Curtis, Powell & Reid, IMA J.
    Appl. Math. 13, 1974).  Row i of the residual reads only columns
    i-4 .. i+2: the (l, u) = (2, 1) bands of A, two apart in each
    interleaved component, and the two flux couplings at offsets +-1.  So
    the columns j = c (mod 8) of class c reach disjoint rows; one residual
    call at x + s_c and one at x - s_c, with s_c holding delta_j on those
    columns, give every entry of the class, and row i is credited to the
    class column in i-4 .. i+2.  A row that no column of the class reaches
    must not change; if one does, the residual depends on a column outside
    the reach and the error is inf."""
    n = x.size
    rows = np.arange(n)
    delta = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = np.zeros((n, n))
    for c in range(8):
        xp, xm = x.copy(), x.copy()
        xp[c::8] += delta[c::8]
        xm[c::8] -= delta[c::8]
        diff = (residual(grid, model, lam, SystemState.from_vector(xp))
                - residual(grid, model, lam, SystemState.from_vector(xm)))
        cols = rows - 4 + (c - rows + 4) % 8
        hit = (cols >= 0) & (cols <= np.minimum(rows + 2, n - 1))
        if diff[~hit].any():
            return math.inf
        fd[rows[hit], cols[hit]] = diff[hit] / (2.0 * delta)[cols[hit]]
    dense = jacobian(grid, model, lam, SystemState.from_vector(x)).todense()
    scale = max(1.0, float(np.abs(dense).max()))
    return float(np.abs(dense - fd).max()) / scale


def _check_jacobian_fd(shared):
    """Worst _fd_error over 20 seeded states at M=128.  The matrix-scale
    denominator is the honest yardstick: difference noise scales with the
    1/h^2 rows."""
    model = shared["model"]
    grid = build_grid(3, 1.0, 128)
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(20):
        u1 = rng.uniform(0.05, 2.0, grid.M + 1)
        u2 = rng.uniform(0.05, 2.0, grid.M + 1)
        x = SystemState(u1, u2).to_vector()
        worst = max(worst, _fd_error(grid, model, 0.3, x))
    ok = worst <= 1e-6
    return ok, f"max relative error={worst:.2e} over 20 states at M=128"


def _check_jordan_identity(shared):
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = 0.0
    for _ in range(100):
        c1, c2 = rng.uniform(1e-6, 10.0, 2)
        jd = jordan_data(linear_model(c1, c2))
        err = float(np.abs(jd.P @ jd.J @ jd.Pinv - jd.A).max())
        worst = max(worst, err)
    ok = worst <= 1e-12
    return ok, f"max |P J Pinv - A| = {worst:.2e} over 100 pairs"


_CHECKS = (
    ("steklov-oracle", _check_steklov_oracle),
    ("bifurcation-point", _check_bifurcation_point),
    ("direction-slope", _check_direction_slope),
    ("theta-exponents", _check_theta_exponents),
    ("rescale-tail", _check_rescale_tail),
    ("nonexistence", _check_nonexistence),
    ("multiplicity", _check_multiplicity),
    ("jacobian-fd", _check_jacobian_fd),
    ("jordan-identity", _check_jordan_identity),
)


def run_acceptance(force: bool = False) -> list:
    """Run all nine checks once and memoize the outcome list."""
    global _CACHE
    if _CACHE is not None and not force:
        return _CACHE
    shared = _shared()
    outcomes = []
    for name, fn in _CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(shared)
        except Exception as exc:  # a crash is a failed check, not a crash
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        outcomes.append(CheckOutcome(name=name, passed=passed, detail=detail,
                                     seconds=time.perf_counter() - t0))
    _CACHE = outcomes
    return outcomes


def format_table(outcomes) -> str:
    width = max(len(o.name) for o in outcomes)
    lines = []
    for o in outcomes:
        mark = "PASS" if o.passed else "FAIL"
        lines.append(f"{mark}  {o.name:<{width}}  {o.seconds:7.2f}s  {o.detail}")
    n_pass = sum(o.passed for o in outcomes)
    lines.append(f"{n_pass}/{len(outcomes)} checks passed")
    return "\n".join(lines)
