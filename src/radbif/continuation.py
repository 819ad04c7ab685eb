"""Pseudo-arclength continuation of the positive solution branch.

The branch leaves the trivial state at the bifurcation value, rises to a
fold, and then descends toward the zero-parameter end where norms blow up.

The interior rows of the discrete system are linear with no source term,
so every discrete solution is (t1 phi_h, t2 phi_h), where phi_h = v/v(R)
is the unit-trace solution, v the unit-flux solution and mu_h = 1/v(R);
both come from steklov_eigenpair.  The flux rows then reduce exactly to

    mu_h t1 = lam f1(t2),    mu_h t2 = lam f2(t1),

and tracing works on x = (t1, t2, lam): a secant predictor and a 3x3
Newton corrector on these two rows plus the arclength row.  The weighted
metric (dU.dU)/dim + dlam^2 of the full state U becomes
w (dt1^2 + dt2^2) + dlam^2 with w = (phi_h.phi_h)/(2(M+1)), so step
lengths and tangents are those of the full-space metric.

Each corrected x is rebuilt as (t1 phi_h, t2 phi_h) and handed to the
fixed-parameter full-space Newton solver.  Its iteration-0 residual is the
independent re-check.  The rebuild rounds twice (phi_h, then the product),
which can leave the full-space residual just above a tolerance near the
representation floor eps*2/h^2; Newton then polishes the state in at most
MAX_POLISH_ITER steps.  A polish that fails or ends non-positive rejects
the step.

The fold is located exactly: the root of det F_t = mu_h^2 - lam^2
f1'(t2) f2'(t1) along the arclength between the points around the
tangent sign flip, found by bisection with one corrector solve per
evaluation.  At a fixed lam, t2 = lam f2(t1)/mu_h, so the states at lam
are the roots t1 of one scalar equation (_TraceSystem.q); solutions_at
brackets them by the branch and fold traces, bisects on doubles and
verifies each root in full space at the branch's own Branch.newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ContinuationError, NonConvergenceError, StepOffError
from .grid import RadialGrid, SystemState, pair_norm
from .model import NonlinearityModel, f_extended, fprime_extended, zeta
from .solver import NewtonConfig, NewtonResult, newton_solve
from .steklov import SteklovPair, steklov_eigenpair

__all__ = [
    "ContinuationConfig",
    "BranchPoint",
    "FoldInfo",
    "Branch",
    "initial_tangent",
    "step_off",
    "continue_branch",
    "detect_fold",
    "solutions_at",
]

MAX_CORRECTOR_ITER = 12
# Full-space Newton steps allowed when polishing a rebuilt point; one step
# is the usual need, three the most seen.
MAX_POLISH_ITER = 4
# Bisection steps across the fold: the arclength bracket shrinks by 2^-40.
BISECTIONS = 40


@dataclass(frozen=True)
class ContinuationConfig:
    """Arclength stepping parameters.

    ds doubles when the corrector takes <= 3 Newton steps and halves when
    it takes >= 8 or the step is rejected, clipped to [ds_min, ds_max].  lambda_stop_low > 0
    is the tail cutoff: the zero-parameter end is a bifurcation from
    infinity and is analyzed by rescaling, not chased to blow-up.
    """

    ds0: float = 0.01
    ds_min: float = 1e-8
    ds_max: float = 0.25
    eps_step_off: float = 1e-4
    lambda_stop_low: float = 1e-3
    max_points: int = 2000
    newton: NewtonConfig = NewtonConfig()

    def __post_init__(self):
        if not (0.0 < self.ds_min <= self.ds0 <= self.ds_max):
            raise ConfigError(
                f"need 0 < ds_min <= ds0 <= ds_max, got "
                f"({self.ds_min}, {self.ds0}, {self.ds_max})")
        if not (0.0 < self.eps_step_off <= 0.1):
            raise ConfigError(
                f"eps_step_off must lie in (0, 0.1], got {self.eps_step_off}")
        if self.lambda_stop_low <= 0:
            raise ConfigError("lambda_stop_low must be positive")
        if self.max_points < 2:
            raise ConfigError("max_points must be at least 2")


@dataclass
class BranchPoint:
    """One accepted point.  residual is the full-space scaled residual of
    state after the re-check and polish; the iteration counts are those of
    the trace corrector and of the full-space polish."""

    lam: float
    state: SystemState
    norm: float
    tangent_lambda_sign: int
    ds: float
    corrector_iterations: int = 0
    polish_iterations: int = 0
    residual: float = 0.0


class FoldInfo(NamedTuple):
    """Fold parameter, nearest branch point index, fold traces (t1, t2)."""
    lam_bar: float
    index: int
    t1: float
    t2: float


@dataclass
class Branch:
    """Ordered branch points, the fold if one was crossed, and why we stopped.

    termination is one of "lambda_floor", "max_points", "corrector_failure".
    fold_indices lists every tangent sign flip; more than one entry means
    the computed geometry is not a single fold and callers should look.
    rejections counts rejected step attempts (each halves ds) and
    last_rejection holds the reason for the latest one.  newton is the
    setting every point was verified with (cfg.newton in continue_branch).
    """

    points: list = field(default_factory=list)
    fold: Optional[FoldInfo] = None
    termination: str = ""
    fold_indices: list = field(default_factory=list)
    rejections: int = 0
    last_rejection: str = ""
    newton: NewtonConfig = NewtonConfig()

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    def norms(self) -> np.ndarray:
        return np.array([p.norm for p in self.points])


def initial_tangent(model: NonlinearityModel, steklov_pair: SteklovPair) -> SystemState:
    """Kernel direction (phi1/(1+zeta), zeta*phi1/(1+zeta)) at the
    bifurcation point; pair_norm 1 because sup phi1 = 1."""
    z = zeta(model)
    phi = steklov_pair.phi1
    return SystemState(phi / (1.0 + z), (z / (1.0 + z)) * phi)


class _TraceSystem:
    """The flux rows on x = (t1, t2, lam) for states (t1 phi_h, t2 phi_h).

    metric holds the weights (w, w, 1) that make the trace metric equal the
    full-space one.
    """

    def __init__(self, model: NonlinearityModel, eig: SteklovPair):
        phi = eig.phi1
        w = float(phi @ phi) / (2 * phi.size)
        self.model = model
        self.mu_h = eig.mu1
        self.phi_h = phi
        self.metric = np.array([w, w, 1.0])

    def residual(self, x: np.ndarray) -> np.ndarray:
        t1, t2, lam = x
        return np.array([self.mu_h * t1 - lam * f_extended(self.model, 1, t2),
                         self.mu_h * t2 - lam * f_extended(self.model, 2, t1)])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """2x3 derivative of residual with respect to (t1, t2, lam)."""
        t1, t2, lam = x
        m = self.model
        return np.array([
            [self.mu_h, -lam * fprime_extended(m, 1, t2), -f_extended(m, 1, t2)],
            [-lam * fprime_extended(m, 2, t1), self.mu_h, -f_extended(m, 2, t1)]])

    def fold_det(self, x: np.ndarray) -> float:
        """det of the (t1, t2) block; zero exactly at a fold."""
        t1, t2, lam = x
        return (self.mu_h ** 2 - lam ** 2 * fprime_extended(self.model, 1, t2)
                * fprime_extended(self.model, 2, t1))

    def q(self, t: float, lam: float) -> float:
        """q_lam(t) = G_lam(t)/t - 1, G_lam(t) = lam f1(lam f2(t)/mu_h)/mu_h,
        whose roots are the t1 of the states at lam; its limit at t = 0."""
        m, mu = self.model, self.mu_h
        if t == 0.0:
            return lam * lam * m.fp0_1 * m.fp0_2 / (mu * mu) - 1.0
        return lam * f_extended(m, 1, lam * f_extended(m, 2, t) / mu) / (mu * t) - 1.0

    def root(self, lam: float, lo: float, hi: float) -> float:
        """Root of q_lam on a sign-changing [lo, hi], bisected to the last double."""
        q_lo = self.q(lo, lam)
        while q_lo != 0.0:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            q_mid = self.q(mid, lam)
            if q_mid == 0.0 or (q_mid > 0.0) == (q_lo > 0.0):
                lo, q_lo = mid, q_mid
            else:
                hi = mid
        return lo

    def at(self, t1: float, lam: float) -> np.ndarray:
        """The point x = (t1, t2, lam) with t2 from the second flux row."""
        return np.array([t1, lam * f_extended(self.model, 2, t1) / self.mu_h, lam])

    def dist(self, xa: np.ndarray, xb: np.ndarray) -> float:
        d = xa - xb
        return math.sqrt(float(self.metric @ (d * d)))

    def state(self, x: np.ndarray) -> SystemState:
        return SystemState(x[0] * self.phi_h, x[1] * self.phi_h)


def _traces(point: BranchPoint) -> np.ndarray:
    return np.array([point.state.u1[-1], point.state.u2[-1], point.lam])


class _CorrectorFailure(NonConvergenceError):
    pass


def _admissible(x: np.ndarray) -> bool:
    return bool(x[2] > 0.0 and np.all(np.isfinite(x)))


def _corrector(ts: _TraceSystem, tau, anchor, ds, x0, tol,
               max_iter=MAX_CORRECTOR_ITER):
    """Newton on {flux rows = 0, constraint = 0} in x = (t1, t2, lam).

    constraint(x) = (metric * tau) . (x - anchor) - ds.  Convergence uses
    the full-space scaling: the flux rows over max(1, |t1|, |t2|), the sup
    norms of the rebuilt state.  Once converged, one more step is taken:
    it is free here and leaves x with rounding error only.  Returns x and
    the number of Newton steps, that last one included.
    """
    row = ts.metric * tau
    x = np.array(x0, dtype=float)
    for it in range(max_iter + 1):
        if not _admissible(x):
            raise _CorrectorFailure("iterate left the admissible region")
        res = ts.residual(x)
        con = float(row @ (x - anchor)) - ds
        rnorm = float(np.abs(res).max()) / max(1.0, abs(x[0]), abs(x[1]))
        converged = rnorm <= tol and abs(con) <= tol * max(1.0, abs(ds))
        if it == max_iter and not converged:
            raise _CorrectorFailure(f"no convergence in {max_iter} iterations")
        try:
            step = x + np.linalg.solve(np.vstack([ts.jacobian(x), row]),
                                       -np.append(res, con))
        except np.linalg.LinAlgError as exc:
            if not converged:
                raise _CorrectorFailure(f"singular bordered system: {exc}")
            step = x
        if converged:
            return (step if _admissible(step) else x), it + 1
        x = step
    raise _CorrectorFailure("unreachable")


def _polish(grid: RadialGrid, ts: _TraceSystem, x: np.ndarray,
            cfg: NewtonConfig) -> NewtonResult:
    """Rebuild x in full space and re-check it with newton_solve, whose
    iteration-0 residual is the check and whose later steps polish."""
    try:
        result = newton_solve(grid, ts.model, float(x[2]), ts.state(x),
                              replace(cfg, max_iter=MAX_POLISH_ITER))
    except NonConvergenceError as exc:
        raise _CorrectorFailure(f"full-space polish failed: {exc}")
    if not result.positive:
        raise _CorrectorFailure("corrected state not positive")
    return result


def step_off(grid: RadialGrid, model: NonlinearityModel, mu0: float,
             tangent: SystemState, eps: float,
             cfg: ContinuationConfig = ContinuationConfig()) -> BranchPoint:
    """First nontrivial point: amplitude eps along the kernel tangent.

    The constraint fixes the component of the traces along the tangent's
    boundary values at eps and leaves the parameter free, so the trivial
    state cannot satisfy it and Newton must land on the bifurcating
    branch.
    """
    if not (0.0 < eps <= 0.1):
        raise ConfigError(f"step-off amplitude must lie in (0, 0.1], got {eps}")
    ts = _TraceSystem(model, steklov_eigenpair(grid))
    tau = np.array([tangent.u1[-1], tangent.u2[-1], 0.0])
    anchor = eps * tau + np.array([0.0, 0.0, mu0])
    try:
        x, iters = _corrector(ts, tau, anchor, 0.0, anchor,
                              cfg.newton.tol_residual)
        result = _polish(grid, ts, x, cfg.newton)
    except _CorrectorFailure as exc:
        raise StepOffError(
            f"could not leave the trivial branch at eps={eps:g} ({exc}); "
            "try a larger amplitude")
    lam = float(x[2])
    sign = 1 if lam > mu0 else (-1 if lam < mu0 else 0)
    return BranchPoint(lam=lam, state=result.state, norm=pair_norm(result.state),
                       tangent_lambda_sign=sign, ds=eps,
                       corrector_iterations=iters,
                       polish_iterations=result.iterations,
                       residual=result.residual_norm)


def continue_branch(grid: RadialGrid, model: NonlinearityModel,
                    cfg: ContinuationConfig = ContinuationConfig()) -> Branch:
    """Trace the positive branch from the trivial state at the bifurcation
    value through the fold toward the small-parameter tail.

    points[0] is the trivial anchor (norm 0) at lam = mu1/sigma; points[1]
    comes from step_off; each later point is accepted only after the
    full-space re-check (and polish, if needed) and a positivity check.
    """
    eig = steklov_eigenpair(grid)
    ts = _TraceSystem(model, eig)
    sigma = math.sqrt(model.fp0_1 * model.fp0_2)
    mu0 = eig.mu1 / sigma
    tangent = initial_tangent(model, eig)

    branch = Branch(newton=cfg.newton)
    branch.points.append(BranchPoint(
        lam=mu0, state=SystemState.zero(grid), norm=0.0,
        tangent_lambda_sign=0, ds=0.0))
    try:
        first = step_off(grid, model, mu0, tangent, cfg.eps_step_off, cfg)
    except StepOffError as exc:
        raise ContinuationError(f"first corrector step failed: {exc}",
                                last_point=branch.points[0])
    branch.points.append(first)

    ds = cfg.ds0
    tol = cfg.newton.tol_residual
    last_sign = first.tangent_lambda_sign
    while True:
        last = branch.points[-1]
        if last.lam <= cfg.lambda_stop_low:
            branch.termination = "lambda_floor"
            break
        if len(branch.points) >= cfg.max_points:
            branch.termination = "max_points"
            break
        x_last = _traces(last)
        x_prev = _traces(branch.points[-2])
        dist = ts.dist(x_last, x_prev)
        if dist == 0.0:
            branch.termination = "corrector_failure"
            break
        tau = (x_last - x_prev) / dist

        accepted = None
        while True:
            try:
                x, iters = _corrector(ts, tau, x_last, ds, x_last + ds * tau, tol)
                accepted = (x, iters, _polish(grid, ts, x, cfg.newton))
                break
            except _CorrectorFailure as exc:
                branch.rejections += 1
                branch.last_rejection = str(exc)
                if ds <= cfg.ds_min * (1.0 + 1e-12):
                    break
                ds = max(0.5 * ds, cfg.ds_min)
        if accepted is None:
            branch.termination = "corrector_failure"
            break

        x, iters, result = accepted
        lam = float(x[2])
        dlam = lam - last.lam
        sign = last_sign if dlam == 0.0 else (1 if dlam > 0 else -1)
        branch.points.append(BranchPoint(
            lam=lam, state=result.state, norm=pair_norm(result.state),
            tangent_lambda_sign=sign, ds=ds, corrector_iterations=iters,
            polish_iterations=result.iterations,
            residual=result.residual_norm))
        if sign != 0 and last_sign != 0 and sign != last_sign:
            branch.fold_indices.append(len(branch.points) - 1)
        if sign != 0:
            last_sign = sign
        if iters <= 3:
            ds = min(2.0 * ds, cfg.ds_max)
        elif iters >= 8:
            ds = max(0.5 * ds, cfg.ds_min)

    branch.fold = detect_fold(branch)
    if branch.fold is not None:
        branch.fold = _exact_fold(ts, branch, branch.fold, tol)
    return branch


def detect_fold(branch: Branch) -> Optional[FoldInfo]:
    """Sampled fold: the largest parameter among the points around the
    first tangent sign flip; None when the parameter is monotone.
    continue_branch refines it to the exact discrete fold."""
    flips, last_sign = [], 0
    for k, p in enumerate(branch.points):
        s = p.tangent_lambda_sign
        if s != 0 and last_sign != 0 and s != last_sign:
            flips.append(k)
        if s != 0:
            last_sign = s
    if not flips:
        return None
    k = flips[0]  # >= 1: a flip follows a nonzero sign
    idx = ([k - 2, k - 1, k] if k >= 2
           else [i for i in (k - 1, k, k + 1) if i < len(branch.points)])
    best = max(idx, key=lambda i: branch.points[i].lam)
    t1, t2, lam = _traces(branch.points[best])
    return FoldInfo(lam_bar=float(lam), index=best, t1=float(t1), t2=float(t2))


def _exact_fold(ts: _TraceSystem, branch: Branch, sampled: FoldInfo,
                tol: float) -> FoldInfo:
    """Root of det F_t between the sampled fold point and the neighbour
    across which det changes sign, (xa, xb) in branch order: det F_t(x(s))
    is bisected in the arclength s from xa towards xb, one corrector solve
    per x(s).  Keeps the sampled fold when no pair brackets or a solve fails.
    """
    k = sampled.index
    xs = {i: _traces(branch.points[i]) for i in (k - 1, k, k + 1)
          if 1 <= i < len(branch.points)}
    dets = {i: ts.fold_det(x) for i, x in xs.items()}
    pair = next(((a, b) for a, b in ((k - 1, k), (k, k + 1))
                 if a in dets and b in dets and dets[a] * dets[b] <= 0.0), None)
    if pair is None:
        return sampled
    (xa, da), (xb, db) = ((xs[i], dets[i]) for i in pair)
    x = xa if da == 0.0 else xb
    if 0.0 not in (da, db):
        length = ts.dist(xa, xb)
        tau = (xb - xa) / length
        lo, hi = 0.0, length
        try:
            for _ in range(BISECTIONS):
                mid = 0.5 * (lo + hi)
                x, _ = _corrector(ts, tau, xa, mid, xa + mid * tau, tol)
                val = ts.fold_det(x)
                if val == 0.0:
                    break
                lo, hi = (mid, hi) if (val > 0.0) == (da > 0.0) else (lo, mid)
        except _CorrectorFailure:
            return sampled
    return FoldInfo(float(x[2]), k, float(x[0]), float(x[1]))


def solutions_at(branch: Branch, lam: float, grid: RadialGrid,
                 model: NonlinearityModel) -> list:
    """All positive states at lam with t1 within the branch, by pair norm.

    The nodes are the branch t1 traces and the fold t1, so each sign change
    of q_lam between adjacent nodes brackets one root, and a root on a node
    is taken once.  Each root is rebuilt as (t1, lam f2(t1)/mu_h, lam) and
    polished in full space at branch.newton; a root whose polish fails or
    ends non-positive (pair norm at or below POSITIVITY_ZERO_FLOOR) is
    dropped, not fatal.
    """
    if lam <= 0:
        raise ConfigError(f"parameter must be positive, got {lam}")
    ts = _TraceSystem(model, steklov_eigenpair(grid))
    fold = [branch.fold.t1] if branch.fold is not None else []
    nodes = sorted({float(p.state.u1[-1]) for p in branch.points} | set(fold))
    qs = [ts.q(t, lam) for t in nodes]
    roots = [t for t, v in zip(nodes, qs) if v == 0.0 and t > 0.0]
    roots += [ts.root(lam, a, b)
              for a, b, qa, qb in zip(nodes, nodes[1:], qs, qs[1:])
              if qa * qb < 0.0]
    states = []
    for t1 in roots:
        try:
            states.append(_polish(grid, ts, ts.at(t1, lam), branch.newton).state)
        except _CorrectorFailure:
            continue
    return sorted(states, key=pair_norm)
