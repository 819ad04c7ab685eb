"""Acceptance suite: nine oracle- and property-based checks at fixed desk
scale.  Grid sizes, tolerances, and time budgets are part of the check
definitions, not configuration.

Checks never raise; exceptions become failed outcomes with the error text.
A detail string states a check's time budget but never a measured time, so
identical runs give identical details; the seconds are CheckOutcome.seconds.
The suite result is memoized because several checks share one long branch
run and both the test suite and the command line want the same table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (_jordan, bifurcation_point, nonexistence_bound,
                       rescale_check, slope_fit, slope_prediction,
                       theta_exponents)
from .continuation import (ContinuationConfig, continue_branch,
                           initial_tangent, solutions_at)
from .errors import NonConvergenceError
from .grid import _stencil, build_grid, pair_norm
from .model import quadratic_model, reference_model
from .monotone import build_subsolution, monotone_iterate
from .solver import (POSITIVITY_ZERO_FLOOR, TOL_RESIDUAL, _fixed_lam,
                     _ray_residuals, _recheck, _run_length, _trace_newton,
                     _TraceSystem, residual, scaled_residual_norm)
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
        grid = shared["grid"] if m == 512 else build_grid(3, 1.0, m)
        errs[m] = steklov_eigenpair(grid).mu1 - MU1_EXACT_N3_R1
    seconds = time.perf_counter() - t0
    ratios = (errs[256] / errs[512], errs[512] / errs[1024])
    ok = (abs(errs[2048]) <= 1e-6
          and all(abs(r - 4.0) <= 0.6 for r in ratios)
          and seconds < 5.0)
    detail = (f"err(2048)={errs[2048]:.3e}, ratios=({ratios[0]:.3f}, "
              f"{ratios[1]:.3f}), 5s budget")
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
    state = first.state
    tangent_err = max(
        float(np.abs(state.u1 / first.norm - tgt.u1).max()),
        float(np.abs(state.u2 / first.norm - tgt.u2).max()))
    ok = (devs[0] >= devs[1] >= devs[2] and devs[2] <= 1e-3
          and tangent_err <= 1e-2)
    detail = (f"lam devs={devs[0]:.2e}/{devs[1]:.2e}/{devs[2]:.2e} "
              f"(tol 1e-3 at eps=1e-5), tangent err={tangent_err:.2e}")
    return ok, detail


def _slope_branch_config():
    """The config of direction-slope's two branches from mu0: small first
    steps, so that many points fall in slope_fit's window 0 < norm < 0.1,
    and 13 points.  Along these branches the norm rises at every point and
    first reaches 0.1 at points[10] (reference) or points[11] (quadratic);
    slope_fit reads none of the points after that, so the fits are those
    of longer branches bit for bit."""
    return ContinuationConfig(ds0=1e-4, ds_min=1e-8, ds_max=0.02,
                              eps_step_off=1e-4, lambda_stop_low=1e-3,
                              max_points=13)


def _check_direction_slope(shared):
    """The small-amplitude slope of lam along the branch: slope_fit of a
    _slope_branch_config() branch of the reference model against the
    stated -0.03913, and of the quadratic model, which bifurcates to the
    left, against slope_prediction.  A branch whose last point is still
    below norm 0.1 may not hold the whole fit window (0, 0.1), so its fit
    is not made and the check fails with that reason."""
    grid, eig = shared["grid"], shared["eig"]
    budget = 60.0
    left = quadratic_model()
    fits, seconds = [], []
    for label, model in (("ref", shared["model"]), ("left", left)):
        t0 = time.perf_counter()
        branch = continue_branch(grid, model, _slope_branch_config())
        end = branch.points[-1].norm
        if not end >= 0.1:
            return False, (f"{label} branch ends at norm={end:.4f} after "
                           f"{len(branch.points)} points, short of the fit "
                           "window's end 0.1")
        fits.append(slope_fit(branch))
        seconds.append(time.perf_counter() - t0)
    (fit_ref, fit_left), pred_left = fits, slope_prediction(left, eig)

    target = -0.03913
    ok = (abs(fit_ref - target) <= 0.05 * abs(target)
          and fit_left > 0.0
          and abs(fit_left - pred_left) <= 0.05 * abs(pred_left)
          and max(seconds) < budget)
    detail = (f"ref fit={fit_ref:.5f} vs {target} (5%), left fit="
              f"{fit_left:.5f} vs pred={pred_left:.5f} (5%), "
              "60s budget each")
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
              "tol 2%), 180s budget")
    return ok, detail


def _nonexistence_count(grid, model, lams) -> tuple:
    """(positives, attempts): of the solves of newton_solve at each lam
    in lams from the 20 states amp phi_1, amp in logspace(-2, 2, 20),
    how many end on a positive re-checked state, and how many there are.

    Each solve is _trace_newton with newton_solve's fixed-lam row from the
    traces (amp, amp, lam) (phi_1(R) is exactly 1).  A converged point
    with |t1| + |t2| <= POSITIVITY_ZERO_FLOOR / 2 counts as no state and
    is not rebuilt: on the ray sup|u_i| is exactly the rounded |t_i|, and
    no rounding the re-check tries moves a trace by more than 2 ulps, so
    every state newton_solve could return from it has a pair norm at or
    below the floor and is not positive.  Beyond mu1/K every solve ends
    there, on the trivial state.  The other points go through _recheck
    together, as newton_solve re-checks each; a solve or re-check that
    fails counts as no state."""
    ts, amps = _TraceSystem(grid, model), np.logspace(-2, 2, 20).tolist()
    xs = []
    for lam in lams:
        row = _fixed_lam(lam)
        for amp in amps:
            try:
                x = _trace_newton(ts, row, (amp, amp, lam), TOL_RESIDUAL)[0]
            except NonConvergenceError:
                continue
            if abs(x[0]) + abs(x[1]) > POSITIVITY_ZERO_FLOOR / 2:
                xs.append(x)
    checked = _recheck(grid, ts, xs, TOL_RESIDUAL)
    return sum(not c[-1] for c in checked), len(amps) * len(lams)


def _check_nonexistence(shared):
    """No positive state beyond mu1/K: _nonexistence_count at lam = 1.01,
    1.5 and 3 times nonexistence_bound finds none (60 starts), and the
    shared branch's largest lam is at most the bound, to 1e-8."""
    model, grid, eig = shared["model"], shared["grid"], shared["eig"]
    bound = nonexistence_bound(model, eig.mu1)
    positives, attempts = _nonexistence_count(
        grid, model, [factor * bound for factor in (1.01, 1.5, 3.0)])
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


def _fd_error(grid, ts, points, interior_scale):
    """(flux, interior): the worst relative errors of the derivative the
    trace Newton uses, over the points (t1, t2, lam) on the kernel ray.

    Each coordinate x_k of a point x is stepped both ways by delta_k =
    1e-6 max(1, |x_k|): six states per point, rebuilt on the ray and
    evaluated in full space as one block (_ray_residuals).  flux is the
    worst difference between the central differences of the two flux
    rows and _TraceSystem.linearize's 2x3 rows, each row against max(1,
    |its entries|).  The interior rows vanish on the ray at every x, so
    their differences must stay at rounding level: interior is the worst
    over the interleaved rows i of the differences against
    interior_scale[i], max(1, max_j |A_ij|).  A residual that reads a
    node off the ray's profile into a row shows there.  A NaN difference
    makes its part NaN, which no bound passes."""
    xs, steps, M, n = [], [], grid.M, len(points)
    for x in points:
        for k, xk in enumerate(x):
            d = 1e-6 * max(1.0, abs(xk))
            hi, lo = list(x), list(x)
            hi[k], lo[k] = xk + d, xk - d
            xs += [hi, lo]
            steps.append(hi[k] - lo[k])
    # axes: node, point, coordinate stepped, step up or down, component
    y = _ray_residuals(grid, ts, xs)[1].reshape(M + 1, n, 3, 2, 2)
    diff = (y[:, :, :, 0] - y[:, :, :, 1]) / np.reshape(steps, (n, 3, 1))
    rows = np.array([ts.linearize(*x)[1] for x in points])
    flux = (np.abs(diff[M].transpose(0, 2, 1) - rows).max(axis=2)
            / np.maximum(1.0, np.abs(rows).max(axis=2)))
    interior = np.abs(diff[:M]) / interior_scale.reshape(M, 1, 1, 2)
    return float(flux.max()), float(interior.max())


def _row_scales(grid):
    """max(1, max_j |A_ij|) of the interior rows i < M, each repeated for
    the two interleaved components: read off the stencil of three comb
    columns, column c with a 1 at every node j = c (mod 3).  A is
    tridiagonal, so the window of each row holds exactly one 1 of each
    column, and every entry is formed from the operands of the identity's
    column at that node: the same bits as the stencil of the identity,
    from (M + 1, 3) arrays in place of (M + 1, M + 1) ones."""
    comb = np.tile(np.eye(3), (grid.M // 3 + 1, 1))[:grid.M + 1]
    a = np.abs(_stencil(grid, comb)[:grid.M])
    return np.repeat(np.maximum(1.0, a.max(axis=1)), 2)


def _check_jacobian_fd(shared):
    """Worst _fd_error over 20 seeded (t1, t2) in [0.05, 2]^2 at lam = 0.3
    and M = 128, in blocks of at most solver._run_length's states.  The
    row-scale denominator is the honest yardstick: a row's difference
    noise scales with its own entries, 1/h^2 in the interior rows, so a
    flux row is not measured against them."""
    grid = build_grid(3, 1.0, 128)
    ts = _TraceSystem(grid, shared["model"])
    interior_scale = _row_scales(grid)
    rng = np.random.default_rng(_RNG_SEED)
    points = [(t1, t2, 0.3) for t1, t2 in rng.uniform(0.05, 2.0, (20, 2)).tolist()]
    per = max(1, _run_length(grid) // 6)
    errors = np.array([_fd_error(grid, ts, points[i:i + per], interior_scale)
                       for i in range(0, len(points), per)])
    (flux, interior), worst = errors.max(axis=0), float(errors.max())
    return worst <= 1e-6, (f"max relative error={worst:.2e} (flux rows vs "
                           f"linearize {flux:.2e}, interior rows "
                           f"{interior:.2e}) over 20 states at M=128")


def _identity_error(jd) -> float:
    """max |P J Pinv - A| of one JordanData, formed entry by entry on the
    Python floats of its arrays, in the order (P J) Pinv with J's
    diagonal.  No BLAS kernel orders the products, so the value does not
    depend on the BLAS build."""
    P, Pinv, A = jd.P.tolist(), jd.Pinv.tolist(), jd.A.tolist()
    s1, s2 = jd.J.diagonal().tolist()
    return max(abs(P[i][0] * s1 * Pinv[0][j] + P[i][1] * s2 * Pinv[1][j]
                   - A[i][j]) for i in (0, 1) for j in (0, 1))


def _check_jordan_identity(shared):
    """P J Pinv = A for the Jordan data of 100 seeded pairs (c1, c2) in
    [1e-6, 10]^2, worst entry error at most 1e-12: the slopes of
    linear_model(c1, c2), with no model built.  The 200 doubles come from
    one draw of shape (100, 2), in the order of 100 draws of two."""
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = max(_identity_error(_jordan(c1, c2))
                for c1, c2 in rng.uniform(1e-6, 10.0, (100, 2)).tolist())
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
