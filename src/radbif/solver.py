"""Newton solver for the coupled pair at fixed parameter, the pure-power
limiting problem in closed form, and the linear auxiliary problem.

The pair (u1, u2) is interleaved as [u1_0, u2_0, u1_1, u2_1, ...].  The
Jacobian is the grid operator A (operator_bands) on each component plus two
coupling entries in the flux rows.  The grid keeps the banded LU of A and
the refined unit-flux column v = A^-1 e_M, so a Newton step is one solve
with the cached factor and two right-hand sides plus a 2x2 system on the
boundary traces, and the linear problem with fluxes (g1, g2) is
(g1 v, g2 v) with no solve at all.

The residual interleaves u1 and u2 into one longdouble buffer and makes
one compiled matvec with the grid's pair operator diag(A, A); the flux
terms are subtracted in longdouble and the result is rounded to double
once.  Newton iterates on the interleaved vector and evaluates each
trial through strided views of it.  The residual equals two
single-component matvecs with A bit for bit, and Newton's iterates equal
those of the same loop on SystemState copies.  newton_solve serves
`radbif solve` and the nonexistence check of the acceptance suite;
continuation takes no Newton step in full space, since its points are
checked on the kernel ray (continuation._verify).

Residual norms are measured as max|F| / max(1, sup|u1|, sup|u2|): the
operator rows scale like 1/h^2, so that quotient is what floating point can
actually resolve once state amplitudes grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrs

from .errors import ConfigError, NonConvergenceError, require_positive
from .grid import (RadialGrid, SystemState, _factor, _pair_matvec,
                   operator_bands, pair_norm, solve_flux_bvp)
from .model import NonlinearityModel, f_extended, fprime_extended
from .steklov import steklov_eigenpair

__all__ = [
    "NewtonResult",
    "PairJacobian",
    "POSITIVITY_REL_FLOOR",
    "POSITIVITY_ZERO_FLOOR",
    "TOL_RESIDUAL",
    "is_positive_state",
    "residual",
    "jacobian",
    "newton_solve",
    "linear_bvp_solve",
    "solve_limit_problem",
    "scaled_residual_norm",
]

# Nodes below this fraction of the pair norm count as zero when classifying
# a state as positive (discrete analogue of strict positivity up to the
# boundary).
POSITIVITY_REL_FLOOR = 1e-12

# States whose pair norm falls below this amplitude are the trivial solution
# up to rounding: the residual tolerance (default 1e-10) cannot distinguish
# kernel-direction perturbations smaller than ~1e-9 from (0, 0), and a solve
# that lands on zero leaves one-signed noise at 1e-16 scale which would
# otherwise pass the relative test above.  Every nontrivial state the toolkit
# produces (step-off, branch, limit, monotone iterates) has norm >= 1e-5.
POSITIVITY_ZERO_FLOOR = 1e-8

# Default tolerance of max|F| / max(1, sup|u1|, sup|u2|), the scaled
# residual norm, for Newton and for continuation.
TOL_RESIDUAL = 1e-10

# Newton steps allowed per solve.
MAX_NEWTON_ITER = 50

# Smallest Newton step fraction tried by backtracking.
DAMPING_FLOOR = 2.0 ** -20


@dataclass
class NewtonResult:
    """Converged state plus the iteration record callers decide on."""

    state: SystemState
    iterations: int
    residual_norm: float
    damping: float
    positive: bool
    history: list = field(default_factory=list)


class PairJacobian(NamedTuple):
    """Jacobian of residual: A on each component, plus c1 in flux row 1 at
    u2(R) and c2 in flux row 2 at u1(R)."""

    grid: RadialGrid
    c1: float
    c2: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Interleaved d with J d = rhs.  With A w_i = rhs_i and A v = e_M,
        d_i = w_i - c_i d_other(R) v, and the traces solve
        [[1, c1 v(R)], [c2 v(R), 1]] d(R) = w(R), whose determinant is
        1 - c1 c2 v(R)^2.  v comes with the cached factor of A, so the
        solve is one dgbtrs call with two right-hand sides."""
        M = self.grid.M
        lu, piv, v = _factor(self.grid)
        w1, w2 = dgbtrs(lu, 2, 1, rhs.reshape(M + 1, 2), piv)[0].T
        a1, a2 = self.c1 * v[M], self.c2 * v[M]
        det = 1.0 - a1 * a2
        if det == 0.0:
            raise LinAlgError("trace coupling is singular")
        d1 = (w1[M] - a1 * w2[M]) / det
        d2 = (w2[M] - a2 * w1[M]) / det
        out = np.empty(2 * (M + 1))
        out[0::2] = w1 - self.c1 * d2 * v
        out[1::2] = w2 - self.c2 * d1 * v
        return out

    def todense(self) -> np.ndarray:
        ab = operator_bands(self.grid)
        n = ab.shape[1]
        a = sum(np.diag(row[max(d, 0):n + min(d, 0)], d)
                for row, d in zip(ab, (1, 0, -1, -2)))
        out = np.zeros((2 * n, 2 * n))
        out[0::2, 0::2] = a
        out[1::2, 1::2] = a
        out[2 * n - 2, 2 * n - 1] = self.c1
        out[2 * n - 1, 2 * n - 2] = self.c2
        return out


def is_positive_state(state: SystemState) -> bool:
    """Every node above POSITIVITY_REL_FLOOR times the pair norm.

    States with pair norm at or below POSITIVITY_ZERO_FLOOR classify as
    trivial: they are (0, 0) up to rounding noise, which carries no sign
    information.
    """
    norm = pair_norm(state)
    if norm <= POSITIVITY_ZERO_FLOOR:
        return False
    floor = POSITIVITY_REL_FLOOR * norm
    return bool(state.u1.min() > floor and state.u2.min() > floor)


def scaled_residual_norm(res: np.ndarray, state: SystemState) -> float:
    scale = max(1.0, float(np.abs(state.u1).max()), float(np.abs(state.u2).max()))
    return float(np.abs(res).max()) / scale


def _pair_residual(grid: RadialGrid, state: SystemState, g1, g2) -> np.ndarray:
    """Residual with boundary rows flux(u1) - g1(u2(R)), flux(u2) -
    g2(u1(R)): g_i = lam f_i at fixed parameter, pure powers in the limit.

    One compiled matvec with the grid's pair operator gives both
    components' operator rows; the two scalar flux terms are subtracted in
    longdouble and the result is rounded to double once.  Extended-precision
    accumulation against the exact double-precision stencil coefficients
    keeps the evaluation floor near 1e-13 in the scaled norm even at
    blow-up-tail amplitudes, where plain double accumulation drowns below
    roughly 2e-10 at the 1/h^2 row scale."""
    M = grid.M
    u1, u2 = state.u1, state.u2
    y = _pair_matvec(grid, u1, u2)
    y[2 * M] -= g1(float(u2[M]))
    y[2 * M + 1] -= g2(float(u1[M]))
    return y.astype(float)


def residual(grid: RadialGrid, model: NonlinearityModel, lam: float,
             state: SystemState) -> np.ndarray:
    """Interleaved residual of the coupled system at parameter lam.

    Operator rows at j = 0..M-1 per component, then the two flux rows
    flux(u_i) - lam f_i(u_other(R)).  The nonlinearities are evaluated
    through their linear extension so off-sign intermediate iterates remain
    well defined.
    """
    if not 0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"parameter must be nonnegative and finite, got {lam}")
    g1 = lambda t: lam * f_extended(model, 1, t)
    g2 = lambda t: lam * f_extended(model, 2, t)
    return _pair_residual(grid, state, g1, g2)


def jacobian(grid: RadialGrid, model: NonlinearityModel, lam: float,
             state: SystemState) -> PairJacobian:
    """Exact Jacobian of residual (coupling entries -lam f_i')."""
    if not 0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"parameter must be nonnegative and finite, got {lam}")
    M = grid.M
    return PairJacobian(grid,
                        -lam * fprime_extended(model, 1, float(state.u2[M])),
                        -lam * fprime_extended(model, 2, float(state.u1[M])))


def newton_solve(grid: RadialGrid, model: NonlinearityModel, lam: float,
                 init: SystemState, tol: float = TOL_RESIDUAL) -> NewtonResult:
    """Solve the coupled system at fixed lam by damped Newton, to scaled
    residual norm at most tol (positive and finite, else ConfigError) in
    at most MAX_NEWTON_ITER steps.

    Damping is plain backtracking (halve until the residual norm
    decreases) down to the step fraction DAMPING_FLOOR.  Halving stops
    early, failing as at the floor, once the trial x + t d equals the
    iterate x bit for bit: its residual norm is then that of x, which is
    never accepted, and rounding is monotone, so every smaller t rounds
    back to x as well.  The result carries iteration count, final damping
    factor, and the positivity classification; a converged state with a
    non-positive node is returned flagged, not raised, so callers decide.
    A step that backtracking cannot make decrease the residual norm raises
    NonConvergenceError with the residual history and the last iterate.
    """
    require_positive(tol, "tol_residual")
    x = init.to_vector()
    state = SystemState(x[0::2], x[1::2])  # views into x, as each trial
    res = residual(grid, model, lam, state)
    rnorm = scaled_residual_norm(res, state)
    history = [rnorm]
    damping = 1.0
    for it in range(1, MAX_NEWTON_ITER + 1):
        if rnorm <= tol:
            return NewtonResult(SystemState.from_vector(x), it - 1, rnorm,
                                damping, is_positive_state(state), history)
        try:
            step = jacobian(grid, model, lam, state).solve(-res)
        except LinAlgError as exc:
            raise NonConvergenceError(f"singular Jacobian: {exc}", trace=history,
                                      last_state=SystemState.from_vector(x))
        t = 1.0
        accepted = False
        while t >= DAMPING_FLOOR:
            xt = x + t * step
            if np.array_equal(xt.view(np.int64), x.view(np.int64)):
                # the trial is the iterate, as for every smaller t
                break
            trial = SystemState(xt[0::2], xt[1::2])
            res_t = residual(grid, model, lam, trial)
            rnorm_t = scaled_residual_norm(res_t, trial)
            if np.isfinite(rnorm_t) and rnorm_t < rnorm:
                x, state, res, rnorm, damping = xt, trial, res_t, rnorm_t, t
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NonConvergenceError(
                "backtracking hit the damping floor without progress",
                trace=history, last_state=SystemState.from_vector(x))
        history.append(rnorm)
    if rnorm <= tol:
        return NewtonResult(SystemState.from_vector(x), MAX_NEWTON_ITER, rnorm,
                            damping, is_positive_state(state), history)
    raise NonConvergenceError(
        f"no convergence in {MAX_NEWTON_ITER} iterations (residual {rnorm:.3e})",
        trace=history, last_state=SystemState.from_vector(x))


def linear_bvp_solve(grid: RadialGrid, flux1: float, flux2: float) -> SystemState:
    """Solve the decoupled linear problems with prescribed boundary fluxes.

    This is the discrete solution operator used by the monotone iteration:
    each component solves -v'' - ((N-1)/r) v' + v = 0 with v'(R) = flux,
    which is flux times the grid's unit-flux column (solve_flux_bvp).
    """
    return SystemState(solve_flux_bvp(grid, flux1), solve_flux_bvp(grid, flux2))


def solve_limit_problem(grid: RadialGrid,
                        model: NonlinearityModel) -> tuple[SystemState, float]:
    """Nontrivial solution of the pure-power flux problem and its residual.

    Boundary rows: flux(w1) = b2 w2^p2, flux(w2) = b1 w1^p1.  Like every
    discrete solution the state is (s1 phi_h, s2 phi_h), and the trace rows
    mu_h s1 = b2 s2^p2, mu_h s2 = b1 s1^p1 have the closed form
    s1^(p1 p2 - 1) = mu_h^(p2+1) / (b2 b1^p2), s2 = b1 s1^p1 / mu_h.
    Returns (state, scaled residual of the rebuilt state in full space);
    the residual is the independent check.
    """
    p1, p2, b1, b2 = model.p1, model.p2, model.b1, model.b2
    if p1 * p2 <= 1.0 or b1 <= 0.0 or b2 <= 0.0:
        raise ConfigError(
            "the pure-power limit problem needs p1*p2 > 1 and b1, b2 > 0, "
            f"got p1*p2 = {p1 * p2}, b1 = {b1}, b2 = {b2}")
    eig = steklov_eigenpair(grid)
    mu = eig.mu1
    s1 = (mu ** (p2 + 1.0) / (b2 * b1 ** p2)) ** (1.0 / (p1 * p2 - 1.0))
    s2 = b1 * s1 ** p1 / mu
    state = SystemState(s1 * eig.phi1, s2 * eig.phi1)
    res = _pair_residual(grid, state, lambda t: b2 * max(t, 0.0) ** p2,
                         lambda t: b1 * max(t, 0.0) ** p1)
    return state, scaled_residual_norm(res, state)
