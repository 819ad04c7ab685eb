"""Sub/supersolution machinery: canonical subsolution, increasing fixed
point iteration of the boundary-flux map, and the two-solutions driver.

The iteration u^{k+1} = T(lam f(u^k)) applies the linear solution operator
with frozen boundary fluxes; on the traces it is t1 <- G_lam(t1) = lam
f1(lam f2(t1)/mu_h)/mu_h, so for a monotone model the minimal solution
above a subsolution (Amann) is the first root of G_lam(t) = t above its
trace.  second_solution takes that root and the branch solution from one
solutions_at call, so both are verified at the branch's own Newton
setting; the iteration, whose contraction tends to 1 at both ends of
(mu0, fold), is the reference.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import bifurcation_point
from .continuation import Branch, solutions_at
from .errors import (ConfigError, MonotonicityViolationError,
                     NonConvergenceError, SubsolutionError, DistinctnessError)
from .grid import RadialGrid, SystemState, boundary_flux, pair_norm
from .model import NonlinearityModel, f_extended, validate_hypotheses
from .solver import POSITIVITY_ZERO_FLOOR, linear_bvp_solve
from .steklov import steklov_eigenpair

__all__ = [
    "build_subsolution",
    "monotone_iterate",
    "second_solution",
    "ORDER_SLACK_REL",
]

# Nodewise ordering tolerance, relative to the iterate's pair norm.
ORDER_SLACK_REL = 1e-12


def _flux_gap(grid, model, lam, state):
    """min over components of lam f_i(trace of the other) - boundary_flux;
    nonnegative exactly when the subsolution inequalities hold."""
    g1 = lam * f_extended(model, 1, float(state.u2[-1])) - boundary_flux(grid, state.u1)
    g2 = lam * f_extended(model, 2, float(state.u1[-1])) - boundary_flux(grid, state.u2)
    return min(g1, g2)


def build_subsolution(grid: RadialGrid, model: NonlinearityModel, lam: float,
                      eps: float) -> SystemState:
    """Kernel-direction subsolution (eps a phi1, eps b phi1), a = sqrt(f1'(0)),
    b = sqrt(f2'(0)).

    Verifies the discrete flux inequalities boundary_flux(u_i) <= lam
    f_i(u_other(R)); on violation halves eps up to 40 times.  Persistent
    failure signals lam at or below the bifurcation value (the inequalities
    then fail for every small amplitude) or a model violation.
    """
    if eps <= 0:
        raise ConfigError(f"subsolution amplitude must be positive, got {eps}")
    if lam <= 0:
        raise ConfigError(f"parameter must be positive, got {lam}")
    a = math.sqrt(model.fp0_1)
    b = math.sqrt(model.fp0_2)
    phi = steklov_eigenpair(grid).phi1
    for _ in range(41):
        cand = SystemState(eps * a * phi, eps * b * phi)
        if _flux_gap(grid, model, lam, cand) >= 0.0:
            return cand
        eps *= 0.5
    raise SubsolutionError(
        "no admissible subsolution amplitude after 40 halvings; "
        "the parameter is likely at or below the bifurcation value")


def monotone_iterate(grid: RadialGrid, model: NonlinearityModel, lam: float,
                     sub: SystemState, sup: SystemState | None = None,
                     tol: float = 1e-12, max_iter: int = 2000,
                     validate: bool = True,
                     trace: list | None = None) -> SystemState:
    """Increasing iteration from a verified subsolution; returns the minimal
    solution above it.

    Each step solves the linear problem with fluxes (lam f1(u2(R)),
    lam f2(u1(R))) and must not decrease any node by more than
    ORDER_SLACK_REL times the current pair norm; when sup is given, iterates
    must also stay below it nodewise.  Stops when the max node change is at
    most tol.  Pass a list as trace to record the change per iteration.

    The solution of that linear problem is (flux1, flux2) phi_h / mu_h, so
    the steps run on the traces, t_i <- lam f_i(t_other) / mu_h, and only
    the returned state is solved for in full space.
    """
    if lam <= 0:
        raise ConfigError(f"parameter must be positive, got {lam}")
    if tol <= 0 or max_iter < 1:
        raise ConfigError("tol must be positive and max_iter at least 1")
    if validate:
        report = validate_hypotheses(model, grid.N_dim)
        if not report["monotone"].passed:
            raise ConfigError(
                f"model is not monotone nondecreasing: {report['monotone'].detail}")
    if _flux_gap(grid, model, lam, sub) < 0.0:
        raise SubsolutionError(
            "starting state violates the discrete subsolution inequalities")

    eig = steklov_eigenpair(grid)
    if sup is not None:
        # t phi_h <= sup + slack nodewise exactly when t <= cap, as phi_h > 0
        ceil_slack = ORDER_SLACK_REL * max(1.0, pair_norm(sup))
        cap1 = float(((sup.u1 + ceil_slack) / eig.phi1).min())
        cap2 = float(((sup.u2 + ceil_slack) / eig.phi1).min())
    # Every iterate is (t1 phi_h, t2 phi_h).  The first step is compared
    # with the start nodewise; after it, phi_h > 0 and sup phi_h =
    # phi_h(R) = 1 make nodewise order, change and norm those of the
    # boundary node, so the loop goes on with that node alone.
    cur1, cur2, shape = sub.u1, sub.u2, eig.phi1
    changes = trace if trace is not None else []
    for _ in range(max_iter):
        flux1 = lam * f_extended(model, 1, float(cur2[-1]))
        flux2 = lam * f_extended(model, 2, float(cur1[-1]))
        nxt1 = (flux1 / eig.mu1) * shape
        nxt2 = (flux2 / eig.mu1) * shape
        slack = ORDER_SLACK_REL * max(
            1e-300, float(np.abs(cur1).max() + np.abs(cur2).max()))
        drop = max(float((cur1 - nxt1).max()), float((cur2 - nxt2).max()))
        if drop > slack:
            raise MonotonicityViolationError(
                f"iterate decreased by {drop:.3e} at some node "
                f"(allowed slack {slack:.3e})")
        if sup is not None and (nxt1[-1] > cap1 or nxt2[-1] > cap2):
            over = max(float((nxt1[-1] * eig.phi1 - sup.u1).max()),
                       float((nxt2[-1] * eig.phi1 - sup.u2).max()))
            raise MonotonicityViolationError(
                f"iterate exceeded the supersolution by {over:.3e}")
        change = max(float(np.abs(nxt1 - cur1).max()),
                     float(np.abs(nxt2 - cur2).max()))
        changes.append(change)
        cur1, cur2, shape = nxt1[-1:], nxt2[-1:], eig.phi1[-1:]
        if change <= tol:
            return linear_bvp_solve(grid, flux1, flux2)
    raise NonConvergenceError(
        f"monotone iteration did not settle in {max_iter} steps "
        f"(last change {changes[-1]:.3e})", trace=changes,
        last_state=linear_bvp_solve(grid, flux1, flux2))


def second_solution(grid: RadialGrid, model: NonlinearityModel, lam: float,
                    branch: Branch):
    """(minimal solution, distinct branch solution) at lam in (mu0, fold).

    Both come from one solutions_at call, verified at branch.newton: the
    minimal solution is the state of least pair norm, the first root of
    q_lam = G_lam(t)/t - 1 above the canonical subsolution trace, and the
    branch solution the one of largest pair norm.  The minimal one is
    checked nodewise to lie between the subsolution and the branch solution
    (else MonotonicityViolationError).  Raises ConfigError for a
    non-monotone model or lam not above mu0, and DistinctnessError when lam
    is not below the fold, fewer than two positive states are at lam (just
    above mu0 the minimal one sinks below POSITIVITY_ZERO_FLOOR) or the two
    pair norms agree to 1e-3 relative.
    """
    mu0 = bifurcation_point(model, steklov_eigenpair(grid).mu1)
    if lam <= mu0:
        raise ConfigError(
            f"parameter {lam:.6g} is not above the bifurcation value {mu0:.6g}")
    if branch.fold is None:
        raise ConfigError("branch has no detected fold; cannot bracket the "
                          "multiplicity window")
    if lam >= branch.fold.lam_bar:
        raise DistinctnessError(
            f"parameter {lam:.6g} is not below the fold {branch.fold.lam_bar:.6g}; "
            "the branch has no second solution there")
    monotone = validate_hypotheses(model, grid.N_dim)["monotone"]
    if not monotone.passed:
        raise ConfigError(f"model is not monotone nondecreasing: {monotone.detail}")

    states = solutions_at(branch, lam, grid, model)
    if len(states) < 2:
        raise DistinctnessError(
            f"only {len(states)} positive state(s) at lam={lam:.12g} "
            f"(mu0 + {lam - mu0:.3g}); a state whose pair norm is at or below "
            f"the zero floor POSITIVITY_ZERO_FLOOR = {POSITIVITY_ZERO_FLOOR:g} "
            "cannot be told from the trivial one")
    minimal, upper = states[0], states[-1]

    sub = build_subsolution(grid, model, lam,
                            1e-2 / math.sqrt(max(model.fp0_1, model.fp0_2)))
    slack = ORDER_SLACK_REL * max(1.0, pair_norm(upper))
    for what, below, above in (("above the subsolution", sub, minimal),
                               ("below the branch solution", minimal, upper)):
        over = float(np.max([below.u1 - above.u1, below.u2 - above.u2]))
        if over > slack:
            raise MonotonicityViolationError(
                f"minimal solution not {what} at lam={lam:.6g} (by {over:.3e})")

    gap = abs(pair_norm(minimal) - pair_norm(upper))
    if gap <= 1e-3 * max(1.0, pair_norm(upper)):
        raise DistinctnessError(
            f"minimal and branch solutions coincide at lam={lam:.6g} "
            f"(pair norm gap {gap:.3e}); the parameter may be at the fold")
    return minimal, upper
