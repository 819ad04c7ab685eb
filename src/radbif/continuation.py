"""Pseudo-arclength continuation of the positive solution branch.

The branch leaves the trivial state at the bifurcation value, rises to a
fold, and then descends toward the zero-parameter end where norms blow up.

The interior rows of the discrete system are linear with no source term,
so every discrete solution is (t1 phi_h, t2 phi_h), where phi_h = v/v(R)
is the unit-trace solution, v the unit-flux solution and mu_h = 1/v(R);
both come from steklov_eigenpair.  The flux rows then reduce exactly to

    mu_h t1 = lam f1(t2),    mu_h t2 = lam f2(t1),

and tracing keeps lam as its coordinate, x = (t1, t2, lam): a secant
predictor and a 3x3 bordered Newton corrector on these two rows plus the
arclength row.  The corrector works on Python floats; per step it builds
one 3x3 array for np.linalg.solve, and the arclength row keeps its numpy
dot, so its iterates equal those of the same corrector on numpy arrays
bit for bit (plain Python arithmetic rounds differently from LAPACK's
dgesv and the BLAS dot).  The weighted metric (dU.dU)/dim + dlam^2 of
the full state U becomes w (dt1^2 + dt2^2) + dlam^2 with w =
(phi_h.phi_h)/(2(M+1)), so step lengths and tangents are those of the
full-space metric.

Each corrected x is rebuilt as (t1 phi_h, t2 phi_h) and handed to the
fixed-parameter full-space Newton solver.  Its iteration-0 residual is the
independent re-check.  The rebuild rounds once: t_i times the grid's
longdouble unit-trace profile, rounded to double, so the state's traces
are t1 and t2 exactly.  Even at a tolerance near the representation
floor eps*2/h^2 most rebuilt points pass the re-check as they stand (80 %
of the M = 512 branch at tol 1e-10, 94 % at M = 4096 and tol 1e-8); the
rest are polished by Newton in at most MAX_POLISH_ITER steps.  A polish
that fails or ends non-positive rejects the step.

Every turn of lam along the branch is one solve of the same corrector,
started at the branch point before its tangent sign flip, with
the arclength row replaced by det F_t/mu_h^2 = 1 - (lam/mu_h)^2 f1'(t2)
f2'(t1) (Moore & Spence 1980); a solve that fails raises.  At a fixed
lam, t2 = lam f2(t1)/mu_h, so the states at lam are the roots t1 of one scalar equation
(_TraceSystem.q).  For a monotone model G_lam grows with lam, so t1
increases along the branch and q_lam at a branch node has the sign of lam
- lam_k: solutions_at evaluates q only around the node pairs whose lam
values enclose lam, closes each bracket by an Illinois iteration on
doubles down to a sign change of the computed q (_TraceSystem.root) and
verifies each root in full space at the branch's own tolerance,
Branch.tol.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .analysis import bifurcation_point, theta_exponents
from .errors import (ConfigError, ContinuationError, NonConvergenceError,
                     require_int, require_positive)
from .grid import RadialGrid, SystemState, _unit_trace_extended, pair_norm
from .model import (NonlinearityModel, f_extended, fprime_extended,
                    monotone_check, zeta)
from .solver import NewtonConfig, NewtonResult, newton_solve
from .steklov import SteklovPair, steklov_eigenpair

__all__ = [
    "ContinuationConfig",
    "BranchPoint",
    "FoldInfo",
    "Branch",
    "initial_tangent",
    "continue_branch",
    "solutions_at",
]

MAX_CORRECTOR_ITER = 12
# Full-space Newton steps allowed when polishing a rebuilt point; most
# points need none, the others one, two the most seen.
MAX_POLISH_ITER = 4


@dataclass(frozen=True)
class ContinuationConfig:
    """Arclength stepping parameters.

    ds doubles when the corrector takes <= 3 Newton steps and halves when
    it takes >= 8 or the step is rejected, clipped to [ds_min, ds_max].  lambda_stop_low > 0
    is the tail cutoff: the zero-parameter end is a bifurcation from
    infinity and is analyzed by rescaling, not chased to blow-up.
    tol_residual is the tolerance of the corrector, of the fold solves and
    of the full-space re-check and polish of every point.
    """

    ds0: float = 0.01
    ds_min: float = 1e-8
    ds_max: float = 0.25
    eps_step_off: float = 1e-4
    lambda_stop_low: float = 1e-3
    max_points: int = 2000
    tol_residual: float = NewtonConfig.tol_residual

    def __post_init__(self):
        if not (0.0 < self.ds_min <= self.ds0 <= self.ds_max):
            raise ConfigError(
                f"need 0 < ds_min <= ds0 <= ds_max, got "
                f"({self.ds_min}, {self.ds0}, {self.ds_max})")
        if not (0.0 < self.eps_step_off <= 0.1):
            raise ConfigError(
                f"eps_step_off must lie in (0, 0.1], got {self.eps_step_off}")
        require_positive(self.lambda_stop_low, "lambda_stop_low")
        require_int(self.max_points, "max_points", 2)
        require_positive(self.tol_residual, "tol_residual")


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
    """Fold parameter, index of the branch point its solve started from
    (the point before the tangent sign flip), fold traces (t1, t2)."""
    lam_bar: float
    index: int
    t1: float
    t2: float


@dataclass
class Branch:
    """Ordered branch points, every turn of lam, and why we stopped.

    grid and model are the problem the branch was traced on; every
    function that takes a branch reads them from it.  termination is one
    of "lambda_floor", "max_points", "corrector_failure".  folds holds
    the exact fold of every tangent sign flip, maxima and minima of lam,
    in branch order; fold is the maximum of largest lam, None when lam
    has no maximum along the branch.  rejections counts rejected step
    attempts (each halves ds) and last_rejection holds the reason for the
    latest one.  tol is the tolerance every point was verified at
    (cfg.tol_residual in continue_branch).
    """

    grid: RadialGrid
    model: NonlinearityModel
    points: list = field(default_factory=list)
    fold: Optional[FoldInfo] = None
    termination: str = ""
    folds: list = field(default_factory=list)
    rejections: int = 0
    last_rejection: str = ""
    tol: float = NewtonConfig.tol_residual

    def check_problem(self, grid: RadialGrid, model: NonlinearityModel) -> None:
        """ConfigError unless the branch was traced on these very grid and
        model objects: identity, the rule of the per-grid and per-model
        caches."""
        if self.grid is not grid or self.model is not model:
            raise ConfigError("the branch was traced on another grid or model")

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


def _fpp(model: NonlinearityModel, i: int, s: float) -> float:
    """Central difference of f_i' at s, relative step about eps^(1/3)."""
    h = 6e-6 * max(1.0, abs(s))
    return (fprime_extended(model, i, s + h)
            - fprime_extended(model, i, s - h)) / (2.0 * h)


class _TraceSystem:
    """The flux rows on x = (t1, t2, lam) for states (t1 phi_h, t2 phi_h).

    metric holds the weights (w, w, 1) that make the trace metric equal the
    full-space one.
    """

    def __init__(self, grid: RadialGrid, model: NonlinearityModel):
        eig = steklov_eigenpair(grid)
        phi = eig.phi1
        w = float(phi @ phi) / (2 * phi.size)
        self.model = model
        self.mu_h = eig.mu1
        self.phi_ext = _unit_trace_extended(grid)
        self.metric = np.array([w, w, 1.0])

    def linearize(self, t1: float, t2: float, lam: float) -> tuple:
        """The flux rows at (t1, t2, lam) and their 2x3 derivative with
        respect to (t1, t2, lam), as floats: ((r1, r2), (row1, row2))."""
        m, mu = self.model, self.mu_h
        f1, f2 = f_extended(m, 1, t2), f_extended(m, 2, t1)
        return ((mu * t1 - lam * f1, mu * t2 - lam * f2),
                ((mu, -lam * fprime_extended(m, 1, t2), -f1),
                 (-lam * fprime_extended(m, 2, t1), mu, -f2)))

    def fold_row(self, x) -> tuple:
        """(1 - k^2 f1'(t2) f2'(t1), gradient) with k = lam/mu_h: det F_t /
        mu_h^2, zero exactly at a fold.  The f_i'' in the gradient are
        central differences of f_i'; they steer Newton only."""
        t1, t2, lam = x
        m, k = self.model, lam / self.mu_h
        d1, d2 = fprime_extended(m, 1, t2), fprime_extended(m, 2, t1)
        return 1.0 - k * k * d1 * d2, (-k * (k * d1 * _fpp(m, 2, t1)),
                                       -k * (k * _fpp(m, 1, t2) * d2),
                                       -k * (2.0 * d1 * d2 / self.mu_h))

    def q(self, t: float, lam: float) -> float:
        """q_lam(t) = G_lam(t)/t - 1, G_lam(t) = lam f1(lam f2(t)/mu_h)/mu_h,
        whose roots are the t1 of the states at lam; its limit at t = 0."""
        m, mu = self.model, self.mu_h
        if t == 0.0:
            return (lam * lam * fprime_extended(m, 1, 0.0)
                    * fprime_extended(m, 2, 0.0) / (mu * mu) - 1.0)
        return lam * f_extended(m, 1, lam * f_extended(m, 2, t) / mu) / (mu * t) - 1.0

    def root(self, lam: float, lo: float, hi: float, q_lo: float,
             q_hi: float) -> float:
        """Root of q_lam on [lo, hi], where q_lo = q(lo) and q_hi = q(hi)
        have opposite signs: an exact zero of q, or the lo end of two
        adjacent doubles where the computed q changes sign.

        Illinois iteration (modified regula falsi; Dowell & Jarratt, BIT
        11, 1971): the secant point of the bracket, with the kept end's
        weight halved whenever the same end moves twice running.  It
        bisects instead when that point is not finite or not strictly
        inside (lo, hi), and once the bracket is at most 64 ulps wide.
        Computed q has a noise band of a few ulps around each root, so
        the double found may differ from plain bisection's inside it.
        """
        lo_positive, moved = q_lo > 0.0, 0
        while True:
            t = lo + (hi - lo) * (q_lo / (q_lo - q_hi))
            if not lo < t < hi or hi - lo <= 64.0 * math.ulp(hi):
                t = 0.5 * (lo + hi)
                if t in (lo, hi):
                    return lo
            q_t = self.q(t, lam)
            if q_t == 0.0:
                return t
            if (q_t > 0.0) == lo_positive:
                lo, q_lo = t, q_t
                if moved < 0:
                    q_hi *= 0.5
                moved = -1
            else:
                hi, q_hi = t, q_t
                if moved > 0:
                    q_lo *= 0.5
                moved = 1

    def at(self, t1: float, lam: float) -> np.ndarray:
        """The point x = (t1, t2, lam) with t2 from the second flux row."""
        return np.array([t1, lam * f_extended(self.model, 2, t1) / self.mu_h, lam])

    def dist(self, xa: np.ndarray, xb: np.ndarray) -> float:
        d = xa - xb
        return math.sqrt(float(self.metric @ (d * d)))

    def state(self, x: np.ndarray) -> SystemState:
        """(t1 phi_h, t2 phi_h) rounded to double once, from the longdouble
        profile: its traces are t1 and t2 exactly."""
        return SystemState((np.longdouble(x[0]) * self.phi_ext).astype(float),
                           (np.longdouble(x[1]) * self.phi_ext).astype(float))


def _t1(node) -> float:
    """t1 of a branch point or of a FoldInfo."""
    return node.t1 if isinstance(node, FoldInfo) else float(node.state.u1[-1])


def _traces(point: BranchPoint) -> np.ndarray:
    return np.array([point.state.u1[-1], point.state.u2[-1], point.lam])


class _CorrectorFailure(NonConvergenceError):
    pass


def _admissible(t1: float, t2: float, lam: float) -> bool:
    return (lam > 0.0 and math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(lam))


def _corrector(ts: _TraceSystem, extra, x0, tol):
    """Newton on {flux rows = 0, extra row = 0} in x = (t1, t2, lam), where
    extra(x) gives the row's value and gradient (_arclength, ts.fold_row).

    Convergence within MAX_CORRECTOR_ITER steps: the flux rows over
    max(1, |t1|, |t2|), the sup norms of the rebuilt state, and |value| at
    most tol.  Once converged, one more step is taken: it is free here and
    leaves x with rounding error only.  Everything but the 3x3 solve is
    done on Python floats.
    Returns x as a tuple of floats and the number of Newton steps, that
    last one included.
    """
    x = tuple(map(float, x0))
    for it in range(MAX_CORRECTOR_ITER + 1):
        if not _admissible(*x):
            raise _CorrectorFailure("iterate left the admissible region")
        (r1, r2), (row1, row2) = ts.linearize(*x)
        value, grad = extra(x)
        scale = max(1.0, abs(x[0]), abs(x[1]))
        # max(|r1|, |r2|) / scale <= tol, false for a NaN row as well
        converged = (abs(r1) / scale <= tol and abs(r2) / scale <= tol
                     and abs(value) <= tol)
        if it == MAX_CORRECTOR_ITER and not converged:
            raise _CorrectorFailure(
                f"no convergence in {MAX_CORRECTOR_ITER} iterations")
        try:
            d = np.linalg.solve(np.array((row1, row2, grad)),
                                np.array((-r1, -r2, -value))).tolist()
            step = (x[0] + d[0], x[1] + d[1], x[2] + d[2])
        except np.linalg.LinAlgError as exc:
            if not converged:
                raise _CorrectorFailure(f"singular bordered system: {exc}")
            step = x
        if converged:
            return (step if _admissible(*step) else x), it + 1
        x = step
    raise _CorrectorFailure("unreachable")


def _arclength(ts: _TraceSystem, tau, anchor, ds):
    """The row (metric * tau) . (x - anchor) - ds and its gradient."""
    row = ts.metric * tau
    grad = tuple(row.tolist())
    return lambda x: (float(row @ (np.array(x) - anchor)) - ds, grad)


def _polish(grid: RadialGrid, ts: _TraceSystem, x: np.ndarray,
            tol: float) -> NewtonResult:
    """Rebuild x in full space and re-check it with newton_solve at tol,
    whose iteration-0 residual is the check and whose later steps polish."""
    try:
        result = newton_solve(grid, ts.model, float(x[2]), ts.state(x),
                              NewtonConfig(tol, MAX_POLISH_ITER))
    except NonConvergenceError as exc:
        raise _CorrectorFailure(f"full-space polish failed: {exc}")
    if not result.positive:
        raise _CorrectorFailure("corrected state not positive")
    return result


def continue_branch(grid: RadialGrid, model: NonlinearityModel,
                    cfg: ContinuationConfig = ContinuationConfig()) -> Branch:
    """Trace the positive branch from the trivial state at the bifurcation
    value through its folds toward the small-parameter tail.

    points[0] is the trivial anchor (norm 0) at lam = mu0 from
    bifurcation_point.  points[1] is the step-off: the arclength row with
    ds = 0 along the traces (1, zeta, 0)/(1+zeta) of initial_tangent
    (phi1(R) = 1) fixes their component at cfg.eps_step_off and leaves lam free, so the
    trivial state cannot satisfy it and Newton must land on the
    bifurcating branch; its failure raises ContinuationError with the
    anchor as last_point.  Each point is accepted only after the
    full-space re-check (and polish, if needed) and a positivity check.
    A model with p1*p2 <= 1 has no branch to trace toward the tail (the
    linear model's stands vertical at mu0) and raises ConfigError, as
    theta_exponents does, before any step.  Once the tracing stops, every
    turn of lam is solved exactly into branch.folds (_locate_folds); a
    fold solve that fails raises ContinuationError.
    """
    theta_exponents(model)
    ts = _TraceSystem(grid, model)
    mu0 = bifurcation_point(model, ts.mu_h)
    tol = cfg.tol_residual

    branch = Branch(grid, model, tol=tol)
    anchor = BranchPoint(lam=mu0, state=SystemState.zero(grid), norm=0.0,
                         tangent_lambda_sign=0, ds=0.0)
    branch.points.append(anchor)

    def accept(x, iters, result, ds):
        """Append the point at x; its tangent sign is that of dlam against
        the previous point, or the previous sign when dlam is 0."""
        lam, last = float(x[2]), branch.points[-1]
        dlam = lam - last.lam
        sign = (1 if dlam > 0 else -1) if dlam else last.tangent_lambda_sign
        branch.points.append(BranchPoint(
            lam=lam, state=result.state, norm=pair_norm(result.state),
            tangent_lambda_sign=sign, ds=ds, corrector_iterations=iters,
            polish_iterations=result.iterations,
            residual=result.residual_norm))

    eps, z = cfg.eps_step_off, zeta(model)
    tau = np.array([1.0 / (1.0 + z), z / (1.0 + z), 0.0])
    x0 = eps * tau + np.array([0.0, 0.0, mu0])
    try:
        x, iters = _corrector(ts, _arclength(ts, tau, x0, 0.0), x0, tol)
        result = _polish(grid, ts, x, tol)
    except _CorrectorFailure as exc:
        raise ContinuationError(
            f"first corrector step failed: could not leave the trivial branch "
            f"at eps={eps:g} ({exc}); try a larger amplitude", last_point=anchor)
    accept(x, iters, result, eps)

    ds = cfg.ds0
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

        result = None
        while result is None:
            try:
                x, iters = _corrector(ts, _arclength(ts, tau, x_last, ds),
                                      x_last + ds * tau, tol)
                result = _polish(grid, ts, x, tol)
            except _CorrectorFailure as exc:
                branch.rejections += 1
                branch.last_rejection = str(exc)
                if ds <= cfg.ds_min * (1.0 + 1e-12):
                    break
                ds = max(0.5 * ds, cfg.ds_min)
        if result is None:
            branch.termination = "corrector_failure"
            break

        accept(x, iters, result, ds)
        if iters <= 3:
            ds = min(2.0 * ds, cfg.ds_max)
        elif iters >= 8:
            ds = max(0.5 * ds, cfg.ds_min)

    _locate_folds(ts, branch, tol)
    return branch


def _locate_folds(ts: _TraceSystem, branch: Branch, tol: float) -> None:
    """Set branch.folds and branch.fold: at every tangent sign flip, one
    Newton solve of the minimally extended system {flux rows, fold_row}
    (Moore & Spence, SIAM J. Numer. Anal. 17, 1980).

    A flip at point k is a sign opposite to the nonzero sign of point k-1
    (a sign carries over a step with dlam = 0 and the anchor's is 0, so
    k >= 2).  The solve starts at point k-1, whose lam is the largest
    among points k-2 .. k when lam turns from rising to falling (a
    maximum) and the least otherwise; FoldInfo.index is k-1.  A solve
    that fails, leaves the positive cone or ends on the wrong side of its
    start lam raises ContinuationError with the start point as
    last_point.
    """
    points = branch.points
    for start in range(1, len(points) - 1):  # the flip is at start + 1
        before = points[start].tangent_lambda_sign
        if before * points[start + 1].tangent_lambda_sign >= 0:
            continue
        top = before > 0  # lam turns from rising to falling
        x0 = _traces(points[start])
        try:
            x, _ = _corrector(ts, ts.fold_row, x0, tol)
            if min(x[0], x[1]) <= 0.0:
                raise _CorrectorFailure("left the positive cone")
            if (x[2] - x0[2]) * before < 0.0:
                raise _CorrectorFailure(
                    f"ended at lam={x[2]:.17g}, on the wrong side of its start")
        except _CorrectorFailure as exc:
            raise ContinuationError(
                f"fold solve for the lam {'maximum' if top else 'minimum'} "
                f"near point {start} (lam={points[start].lam:.17g}) failed: "
                f"{exc}",
                last_point=points[start])
        branch.folds.append(
            FoldInfo(float(x[2]), start, float(x[0]), float(x[1])))
        if top and (branch.fold is None or x[2] > branch.fold.lam_bar):
            branch.fold = branch.folds[-1]


def solutions_at(branch: Branch, lam: float) -> list:
    """All positive states at lam with t1 within the branch, by pair norm,
    on the branch's grid and model.

    The nodes are the branch points in branch order, with every fold
    placed among them by its t1.  The model must be monotone (else
    ConfigError), so G_lam(t) grows with lam: the solution set is the
    graph lam = Lambda(t1), t1 increases along the branch, and q_lam at a
    node has the sign of lam - lam_k up to the node's corrector error.  So only the
    node pairs whose lam values enclose lam (their level crossings) can
    bracket a root.  q_lam is evaluated on the nodes k-1 .. k+2 around
    each crossing pair (k, k+1) alone; each sign change between adjacent
    evaluated nodes brackets one root, and a root on a node is taken
    once.  The cost is a few q values per crossing, whatever the number
    of branch points.  Each root is rebuilt as (t1, lam f2(t1)/mu_h, lam)
    and polished in full space at branch.tol; a root whose polish
    fails or ends non-positive (pair norm at or below
    POSITIVITY_ZERO_FLOOR) is dropped, not fatal.
    """
    require_positive(lam, "parameter")
    monotone = monotone_check(branch.model)
    if not monotone.passed:
        raise ConfigError(
            f"model is not monotone nondecreasing: {monotone.detail}")
    ts = _TraceSystem(branch.grid, branch.model)
    nodes, lams = list(branch.points), [p.lam for p in branch.points]
    for fold in branch.folds:
        k = bisect.bisect(nodes, fold.t1, key=_t1)
        if k == 0 or _t1(nodes[k - 1]) != fold.t1:
            nodes.insert(k, fold)
            lams.insert(k, fold.lam_bar)

    d = lam - np.array(lams)
    ks = sorted({j for k in np.flatnonzero(d[:-1] * d[1:] <= 0.0).tolist()
                 for j in range(max(k - 1, 0), min(k + 3, len(lams)))})
    t1s = {j: _t1(nodes[j]) for j in ks}
    qs = {j: ts.q(t1s[j], lam) for j in ks}
    roots = [t1s[j] for j in ks if qs[j] == 0.0 and t1s[j] > 0.0]
    roots += [ts.root(lam, t1s[i], t1s[j], qs[i], qs[j])
              for i, j in zip(ks, ks[1:]) if j == i + 1 and qs[i] * qs[j] < 0.0]
    states = []
    for t1 in roots:
        try:
            states.append(_polish(branch.grid, ts, ts.at(t1, lam),
                                  branch.tol).state)
        except _CorrectorFailure:
            continue
    return sorted(states, key=pair_norm)
