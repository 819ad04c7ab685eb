"""Sub/supersolution machinery: canonical subsolution, increasing fixed
point iteration of the boundary-flux map, and the two-solutions driver.

The iteration u^{k+1} = T(lam f(u^k)) applies the linear solution operator
with frozen boundary fluxes; on the traces it is t1 <- G_lam(t1) = lam
f1(lam f2(t1)/mu_h)/mu_h, so for a monotone model the minimal solution
above a subsolution (Amann) is the first root of G_lam(t) = t above its
trace.  second_solution takes that root and the branch solution from one
solutions_at call, so both are re-checked in full space on the kernel
ray, with no Newton step, at the branch's own tolerance, wherever
solutions_at finds two states above mu0; the
iteration, whose contraction tends to 1 at mu0 and at a fold, is the
reference.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import bifurcation_point
from .continuation import Branch, solutions_at
from .errors import (ConfigError, DistinctnessError, MonotonicityViolationError,
                     NonConvergenceError, SubsolutionError, require_positive)
from .grid import RadialGrid, SystemState, boundary_flux, pair_norm
from .model import (NonlinearityModel, _slopes_at_zero, f_extended,
                    require_monotone)
from .solver import POSITIVITY_ZERO_FLOOR, _on_ray
from .steklov import steklov_eigenpair

__all__ = [
    "build_subsolution",
    "monotone_iterate",
    "second_solution",
    "ORDER_SLACK_REL",
]

# Nodewise ordering tolerance, relative to the iterate's pair norm.
ORDER_SLACK_REL = 1e-12

# monotone_iterate stops once no node moves by more than ITER_TOL and
# fails after MAX_ITER steps.
ITER_TOL = 1e-12
MAX_ITER = 2000


def _flux_gap(grid, model, lam, state):
    """min over components of lam f_i(trace of the other) - boundary_flux;
    nonnegative exactly when the subsolution inequalities hold."""
    g1 = lam * f_extended(model, 1, float(state.u2[-1])) - boundary_flux(grid, state.u1)
    g2 = lam * f_extended(model, 2, float(state.u1[-1])) - boundary_flux(grid, state.u2)
    return min(g1, g2)


def build_subsolution(grid: RadialGrid, model: NonlinearityModel,
                      lam: float) -> SystemState:
    """Kernel-direction subsolution (eps a phi1, eps b phi1), a = sqrt(f1'(0)),
    b = sqrt(f2'(0)), from eps = 1e-2 / max(a, b): the larger component
    starts at amplitude 1e-2.  A derivative at zero that is not positive
    is a ConfigError.

    Verifies the discrete flux inequalities boundary_flux(u_i) <= lam
    f_i(u_other(R)); on violation halves eps up to 40 times.  Persistent
    failure signals lam at or below the bifurcation value (the inequalities
    then fail for every small amplitude) or a model violation.
    """
    require_positive(lam, "parameter")
    a, b = (math.sqrt(d) for d in _slopes_at_zero(model))
    eps = 1e-2 / max(a, b)
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
                     sub: SystemState,
                     sup: SystemState | None = None) -> SystemState:
    """Increasing iteration from a verified subsolution; returns the minimal
    solution above it.

    sub and sup must each have the grid's M + 1 nodal values, all finite
    (else ValueError naming the argument), and the model must pass
    monotone_check (else ConfigError).  Each step
    solves the linear problem with fluxes (lam f1(u2(R)), lam f2(u1(R)))
    and must not decrease any node by more than ORDER_SLACK_REL times the
    current pair norm; when sup is given, iterates must also stay below it
    nodewise.  Stops when the max node change is at most ITER_TOL; a
    change that is not finite (the iterates overflowed: no solution lies
    above the start) or MAX_ITER steps raise NonConvergenceError with the
    change per step and the last finite iterate (the start, when the first
    step overflows).

    The solution of that linear problem is (flux1, flux2) phi_h / mu_h, so
    the steps run on the traces, t_i <- lam f_i(t_other) / mu_h, as
    Python floats once the first step is checked nodewise, and the
    returned state is the last traces rebuilt on the ray (_on_ray), with
    no solve.  f1, f2, their slopes s_i = df_i(0) and mu_h are bound
    once, and each flux is f_extended's expression written out, as in
    solver._TraceSystem: float(f_i(t)) if t >= 0 else s_i t.
    """
    require_positive(lam, "parameter")
    for name, state in (("sub", sub), ("sup", sup)):
        if state is not None and (state.u1.size != grid.M + 1 or not
                                  np.isfinite([state.u1, state.u2]).all()):
            raise ValueError(f"{name} must have the grid's {grid.M + 1} "
                             "finite nodal values")
    require_monotone(model)
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
    # boundary node, so the loop goes on with the two traces as floats.
    t1, t2, phi = float(sub.u1[-1]), float(sub.u2[-1]), eig.phi1
    f1, f2, mu = model.f1, model.f2, eig.mu1
    s1, s2 = float(model.df1(0.0)), float(model.df2(0.0))
    changes = []
    for _ in range(MAX_ITER):
        flux1 = lam * (float(f1(t2)) if t2 >= 0 else s1 * t2)
        flux2 = lam * (float(f2(t1)) if t1 >= 0 else s2 * t1)
        n1, n2 = flux1 / mu, flux2 / mu
        # d_i, the iterate less its successor: nodewise at the first step,
        # at the boundary node after it
        if changes:
            d1, d2, norm = t1 - n1, t2 - n2, abs(t1) + abs(t2)
            drop, change = max(d1, d2), max(abs(d1), abs(d2))
        else:
            d1, d2, norm = sub.u1 - n1 * phi, sub.u2 - n2 * phi, pair_norm(sub)
            drop = max(float(d1.max()), float(d2.max()))
            change = max(float(np.abs(d1).max()), float(np.abs(d2).max()))
        slack = ORDER_SLACK_REL * max(1e-300, norm)
        if drop > slack:
            raise MonotonicityViolationError(
                f"iterate decreased by {drop:.3e} at some node "
                f"(allowed slack {slack:.3e})")
        if sup is not None and (n1 > cap1 or n2 > cap2):
            over = max(float((n1 * phi - sup.u1).max()),
                       float((n2 * phi - sup.u2).max()))
            raise MonotonicityViolationError(
                f"iterate exceeded the supersolution by {over:.3e}")
        changes.append(change)
        if not math.isfinite(change):
            break
        t1, t2 = n1, n2
        if change <= ITER_TOL:
            return _on_ray(eig.profile, t1, t2)
    reason = (f"did not settle in {MAX_ITER} steps" if math.isfinite(change)
              else f"diverged at step {len(changes)}")
    # t1, t2 are the last finite iterate's traces, unless the first step
    # overflowed
    raise NonConvergenceError(
        f"monotone iteration {reason} (last change {change:.3e})",
        trace=changes, last_state=(_on_ray(eig.profile, t1, t2)
                                   if math.isfinite(changes[0]) else sub))


def second_solution(grid: RadialGrid, model: NonlinearityModel, lam: float,
                    branch: Branch):
    """(minimal solution, distinct branch solution) at lam above mu0.

    Both come from one solutions_at call, each the rebuild of a root of
    the trace equation re-checked in full space at branch.tol: the
    minimal solution is the state of least pair norm, the first root of
    q_lam = G_lam(t)/t - 1 above the canonical subsolution trace, and the
    branch solution the one of largest pair norm.  The minimal one is
    checked nodewise to lie between the subsolution and the branch solution
    (else MonotonicityViolationError).  Raises ConfigError for lam not
    above mu0 (the subsolution's flux inequalities fail there) and,
    through solutions_at, for a non-monotone model, and DistinctnessError
    when fewer than two positive states are at lam or the two pair norms
    agree to 1e-3 relative.  Its message names the largest lam of the
    branch when lam lies above it, and POSITIVITY_ZERO_FLOOR otherwise:
    just above mu0 the minimal state sinks below that floor.
    A branch traced on another grid or model object is a ConfigError.
    """
    # identity, the rule of the per-grid and per-model caches
    if branch.grid is not grid or branch.model is not model:
        raise ConfigError("the branch was traced on another grid or model")
    require_positive(lam, "parameter")
    mu0 = bifurcation_point(model, steklov_eigenpair(grid).mu1)
    if lam <= mu0:
        raise ConfigError(
            f"parameter {lam:.6g} is not above the bifurcation value {mu0:.6g}")
    states = solutions_at(branch, lam)
    if len(states) < 2:
        lams = ([p.lam for p in branch.points]
                + [f.lam_bar for f in branch.folds])
        if lams and lam > max(lams):
            raise DistinctnessError(
                f"no positive state at lam={lam:.12g} (mu0 + {lam - mu0:.3g})"
                f" along the branch: its largest lam is {max(lams):.17g}")
        raise DistinctnessError(
            f"only {len(states)} positive state(s) at lam={lam:.12g} "
            f"(mu0 + {lam - mu0:.3g}) along the branch; a state whose pair "
            f"norm is at or below the zero floor POSITIVITY_ZERO_FLOOR = "
            f"{POSITIVITY_ZERO_FLOOR:g} cannot be told from the trivial one")
    minimal, upper = states[0], states[-1]

    sub = build_subsolution(grid, model, lam)
    norm_min, norm_up = pair_norm(minimal), pair_norm(upper)
    slack = ORDER_SLACK_REL * max(1.0, norm_up)
    for what, below, above in (("above the subsolution", sub, minimal),
                               ("below the branch solution", minimal, upper)):
        over = max(float((below.u1 - above.u1).max()),
                   float((below.u2 - above.u2).max()))
        if over > slack:
            raise MonotonicityViolationError(
                f"minimal solution not {what} at lam={lam:.6g} (by {over:.3e})")

    gap = abs(norm_min - norm_up)
    if gap <= 1e-3 * max(1.0, norm_up):
        raise DistinctnessError(
            f"minimal and branch solutions coincide at lam={lam:.6g} "
            f"(pair norm gap {gap:.3e}); the parameter may be at the fold")
    return minimal, upper
