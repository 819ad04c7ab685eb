"""Pseudo-arclength continuation of the positive solution branch.

The branch leaves the trivial state at the bifurcation value, rises to a
fold, and then descends toward the zero-parameter end where norms blow up.

The interior rows of the discrete system are linear with no source term,
so every discrete solution is (t1 phi_h, t2 phi_h), where phi_h = v/v(R)
is the unit-trace solution, v the unit-flux solution and mu_h = 1/v(R);
both come from steklov_eigenpair.  The flux rows then reduce exactly to

    mu_h t1 = lam f1(t2),    mu_h t2 = lam f2(t1),

and tracing keeps lam as its coordinate, x = (t1, t2, lam), on the flux
rows of solver._TraceSystem: a secant predictor and, as corrector,
solver._trace_newton, the Newton iteration newton_solve runs too, here
on these two rows plus the arclength row, all on Python floats.  A
failed solve or re-check raises NonConvergenceError, which rejects the
step.  The weighted metric (dU.dU)/dim + dlam^2 of the full state U
becomes w (dt1^2 + dt2^2) + dlam^2 with w = (phi_h.phi_h)/(2(M+1)), so
step lengths and tangents are those of the full-space metric; w is one
float per grid (SteklovPair.w), summed once by math.fsum, and points,
tangents and distances are tuples of Python floats, so no BLAS call
touches a branch.  Each step is ds * max(1, t1 + t2) of the last point: the tail
bifurcates from infinity, with a pair norm that grows like
lam^-theta1, so a step relative to the state crosses it in tens of
points where a fixed one would take thousands.  The arclength row is
divided by the same factor, so that its convergence test stays
relative.

Each corrected x is checked on the kernel ray itself, with no full-space
Newton step (_verify, on solver._recheck): the state (t1 phi_h, t2
phi_h) is rebuilt by rounding t_i times the grid's longdouble unit-trace
profile to double once, so its traces are t1 and t2 exactly, with u_0
rounded from row 0 given the rounded u_1 (solver._on_ray), and its
full-space scaled residual is the independent re-check.  Even at a
tolerance near the representation floor eps*2/h^2 rebuilt points pass
as they stand (every point of the reference branch at M = 512 and tol
1e-10 and at M = 4096 and tol 1e-8); for any other the traces
t_i + k ulp(t_i) are tried for k in ULP_SHIFTS, and the first rounding
that passes is the point.  A point whose roundings all fail, or whose
passing state is not positive, is rejected.  A branch point is its
traces (BranchPoint): its state is rebuilt from them on demand.

Every turn of lam along the branch is one solve of the same iteration,
bracketed by a sign change of the fold row between neighbouring branch
points and started at one end of the bracket, with the arclength row
replaced by det F_t/mu_h^2 = 1 - (lam/mu_h)^2 f1'(t2)
f2'(t1) (Moore & Spence 1980) and the fold re-checked like a point; a
solve that fails raises.  At a fixed
lam, t2 = lam f2(t1)/mu_h, so the states at lam are the roots t1 of one scalar equation
(_TraceSystem.q).  For a monotone model G_lam grows with lam, so t1
increases along the branch and q_lam at a branch node has the sign of lam
- lam_k: solutions_at evaluates q only around the node pairs whose lam
values enclose lam, closes each bracket by an Illinois iteration on
doubles down to a sign change of the computed q (_TraceSystem.root) and
verifies each root by _verify at the branch's own tolerance, Branch.tol.
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
from .grid import RadialGrid, SystemState, pair_norm
from .model import NonlinearityModel, require_monotone, zeta
from .solver import (POSITIVITY_ZERO_FLOOR, TOL_RESIDUAL, _on_ray, _recheck,
                     _trace_newton, _TraceSystem, is_positive_state)
from .steklov import SteklovPair

__all__ = [
    "ContinuationConfig",
    "BranchPoint",
    "FoldInfo",
    "Branch",
    "initial_tangent",
    "continue_branch",
    "solutions_at",
]

@dataclass(frozen=True)
class ContinuationConfig:
    """Arclength stepping parameters.

    A step has length ds * max(1, t1 + t2) of the last point in the trace
    metric.  ds doubles when the corrector takes <= 3 Newton steps and
    halves when it takes >= 8 or the step is rejected, clipped to
    [ds_min, ds_max]: these bound ds, not the step.  lambda_stop_low > 0
    is the tail cutoff: the zero-parameter end is a bifurcation from
    infinity and is analyzed by rescaling, not chased to blow-up.  It
    must lie below the bifurcation value mu0, which continue_branch
    checks once mu0 is known.  eps_step_off, the pair norm of the
    step-off, lies in (POSITIVITY_ZERO_FLOOR, 0.1]: at or below that
    floor a state counts as trivial, so no step-off could be positive.
    tol_residual is the tolerance of the corrector, of the fold solves and
    of the full-space re-check of every point.
    """

    ds0: float = 0.01
    ds_min: float = 1e-8
    ds_max: float = 0.25
    eps_step_off: float = 1e-4
    lambda_stop_low: float = 1e-3
    max_points: int = 2000
    tol_residual: float = TOL_RESIDUAL

    def __post_init__(self):
        if not (0.0 < self.ds_min <= self.ds0 <= self.ds_max):
            raise ConfigError(
                f"need 0 < ds_min <= ds0 <= ds_max, got "
                f"({self.ds_min}, {self.ds0}, {self.ds_max})")
        if not (POSITIVITY_ZERO_FLOOR < self.eps_step_off <= 0.1):
            raise ConfigError(
                f"eps_step_off must lie in ({POSITIVITY_ZERO_FLOOR:g}, 0.1], "
                f"got {self.eps_step_off}: it is the step-off's pair norm, "
                f"and a state at or below the positivity floor "
                f"POSITIVITY_ZERO_FLOOR = {POSITIVITY_ZERO_FLOOR:g} is trivial")
        require_positive(self.lambda_stop_low, "lambda_stop_low")
        require_int(self.max_points, "max_points", 2)
        require_positive(self.tol_residual, "tol_residual")


@dataclass
class BranchPoint:
    """One accepted point, stored as its traces: the state is (t1 phi_h,
    t2 phi_h), rebuilt from profile, the grid's read-only longdouble
    unit-trace profile, which every point of a branch shares.  The profile
    rises strictly to exactly 1 at R, so t_i is also sup|u_i|.
    ds is the arclength of the step that reached the point (eps_step_off
    for the step-off), corrector_iterations counts the trace corrector's
    steps, ulp_shift is the k of ULP_SHIFTS whose rounding passed the
    re-check, and residual is that state's full-space scaled residual."""

    lam: float
    t1: float
    t2: float
    profile: np.ndarray = field(repr=False, compare=False)
    tangent_lambda_sign: int
    ds: float
    corrector_iterations: int = 0
    ulp_shift: int = 0
    residual: float = 0.0

    @property
    def state(self) -> SystemState:
        return _on_ray(self.profile, self.t1, self.t2)

    @property
    def norm(self) -> float:
        """The pair norm sup|u1| + sup|u2| of state."""
        return self.t1 + self.t2


class FoldInfo(NamedTuple):
    """Fold parameter, index of the branch point its solve started from
    (an end of the fold row's sign change), fold traces (t1, t2)."""
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
    the exact fold of every sign change of the fold row, maxima and
    minima of lam, in branch order; fold is the maximum of largest lam,
    None when lam has no maximum along the branch.  rejections counts rejected step
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
    tol: float = TOL_RESIDUAL

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


def _traces(point: BranchPoint) -> tuple:
    return point.t1, point.t2, point.lam


def _arclength(ts: _TraceSystem, tau, anchor, ds):
    """The row (w tau_1, w tau_2, tau_lam) . (x - anchor) - ds and its
    gradient."""
    grad = g1, g2, g3 = ts.w * tau[0], ts.w * tau[1], tau[2]
    a1, a2, a3 = anchor
    return lambda x: (g1 * (x[0] - a1) + g2 * (x[1] - a2) + g3 * (x[2] - a3)
                      - ds, grad)


def _require_advance(value: float, ds: float, scale: float) -> None:
    """NonConvergenceError unless the corrected point advanced along the
    secant by ds * scale to within half of it: value is the arclength
    row's at the point, (advance / scale) - ds.  _trace_newton accepts the
    row at |value| <= tol, so a step below tol, or below the ulps of x,
    would otherwise pass with whatever advance rounding gives."""
    if abs(value) > 0.5 * ds:
        raise NonConvergenceError(
            f"step advanced {(value + ds) * scale:.3g} along the secant, "
            f"{ds * scale:.3g} asked")


def _verify(grid: RadialGrid, ts: _TraceSystem, x, tol: float) -> tuple:
    """_recheck of x = (t1, t2, lam) at tol, with the state of the passing
    shift required to be positive (NonConvergenceError otherwise)."""
    checked = _recheck(grid, ts, x, tol)
    if not is_positive_state(checked[-1]):
        raise NonConvergenceError("corrected state not positive")
    return checked


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
    anchor as last_point.  Every later step predicts along the unit
    secant tau of the last two points, with length ds * s where s =
    max(1, t1 + t2) of the last point, and corrects with the row
    (w tau_1, w tau_2, tau_lam) . (x - x_last) / s = ds.  Each point is
    accepted only when that advance is within ds/2 of ds
    (_require_advance), and after the full-space re-check of _verify and
    its positivity check.
    A model with p1*p2 <= 1 has no branch to trace toward the tail (the
    linear model's stands vertical at mu0) and raises ConfigError, as
    theta_exponents does, before any step; so does a cfg.lambda_stop_low
    at or above mu0, where the branch would stop at its step-off.  Once
    the tracing stops, every turn of lam is solved exactly into
    branch.folds (_locate_folds); a fold solve that fails raises
    ContinuationError.
    """
    theta_exponents(model)
    ts = _TraceSystem(grid, model)
    mu0 = bifurcation_point(model, ts.mu_h)
    if cfg.lambda_stop_low >= mu0:
        raise ConfigError(
            f"lambda_stop_low = {cfg.lambda_stop_low} is not below the "
            f"bifurcation value mu0 = {mu0}: no branch to trace")
    tol = cfg.tol_residual

    anchor = BranchPoint(mu0, 0.0, 0.0, ts.profile, 0, 0.0)
    branch = Branch(grid, model, [anchor], tol=tol)

    def accept(x, iters, checked, ds):
        """Append the point at x with the traces, shift and residual of
        _verify; its tangent sign is that of dlam against the previous
        point, or the previous sign when dlam is 0."""
        lam, last = x[2], branch.points[-1]
        dlam = lam - last.lam
        sign = (1 if dlam > 0 else -1) if dlam else last.tangent_lambda_sign
        t1, t2, shift, res, _ = checked
        branch.points.append(BranchPoint(lam, t1, t2, ts.profile, sign, ds,
                                         iters, shift, res))

    eps, z = cfg.eps_step_off, zeta(model)
    tau = (1.0 / (1.0 + z), z / (1.0 + z), 0.0)
    x0 = (eps * tau[0], eps * tau[1], mu0)
    try:
        x, history = _trace_newton(ts, _arclength(ts, tau, x0, 0.0), x0, tol)
        checked = _verify(grid, ts, x, tol)
    except NonConvergenceError as exc:
        raise ContinuationError(
            f"first corrector step failed: could not leave the trivial branch "
            f"at eps={eps:g} ({exc}); try a larger amplitude", last_point=anchor)
    accept(x, len(history) - 1, checked, eps)

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
        tau = [(a - b) / dist for a, b in zip(x_last, x_prev)]
        scale = max(1.0, last.norm)

        checked = None
        while checked is None:
            try:
                row = _arclength(ts, [t / scale for t in tau], x_last, ds)
                guess = [a + (ds * scale) * t for a, t in zip(x_last, tau)]
                x, history = _trace_newton(ts, row, guess, tol)
                _require_advance(row(x)[0], ds, scale)
                checked = _verify(grid, ts, x, tol)
            except NonConvergenceError as exc:
                branch.rejections += 1
                branch.last_rejection = str(exc)
                if ds <= cfg.ds_min * (1.0 + 1e-12):
                    break
                ds = max(0.5 * ds, cfg.ds_min)
        if checked is None:
            branch.termination = "corrector_failure"
            break

        iters = len(history) - 1
        accept(x, iters, checked, ds * scale)
        if iters <= 3:
            ds = min(2.0 * ds, cfg.ds_max)
        elif iters >= 8:
            ds = max(0.5 * ds, cfg.ds_min)

    _locate_folds(ts, branch, tol)
    return branch


def _locate_folds(ts: _TraceSystem, branch: Branch, tol: float) -> None:
    """Set branch.folds and branch.fold: at every sign change of
    ts.fold_row's value between neighbouring points, read by
    ts.fold_value (no f_i''), one Newton solve of the minimally extended
    system {flux rows, fold_row} (Moore & Spence, SIAM J. Numer. Anal. 17,
    1980).

    Along the branch dlam/dt1 = det F_t / (lam f1'(t2) f2(t1) + mu_h
    f1(t2)), so for a monotone model the fold row has the sign of dlam/dt1
    and changes sign at every turn of lam, also where one long step passes
    a minimum and a maximum and no tangent sign flips.  The anchor is
    skipped (det F_t = 0 at t = 0).  A change from + to - brackets a
    maximum, from - to + a minimum.  The solve starts at the bracket's end
    with the larger lam for a maximum and the smaller for a minimum (the
    point before the tangent sign flip, where there is one) and then at
    the other end; FoldInfo.index is the start whose solve is accepted.  A
    solve is accepted when it stays in the positive cone, its t1 lies in
    the bracket, its lam is not on the wrong side of its start and, like
    every branch point, it passes _verify at tol; the fold's traces are
    those of the rounding that passed.  When neither start gives one,
    ContinuationError is raised with the first start as last_point.
    """
    points = branch.points
    rows = [bool(ts.fold_value(_traces(p)) > 0.0) for p in points]
    for a in range(1, len(points) - 1):
        if rows[a] == rows[a + 1]:
            continue
        top = rows[a]  # lam turns from rising to falling
        ends = sorted((a, a + 1), key=lambda k: points[k].lam, reverse=top)
        lo, hi = sorted((points[a].t1, points[a + 1].t1))
        for start in ends:
            x0 = _traces(points[start])
            try:
                x, _ = _trace_newton(ts, ts.fold_row, x0, tol)
                if min(x[0], x[1]) <= 0.0:
                    raise NonConvergenceError("left the positive cone")
                if not lo <= x[0] <= hi:
                    raise NonConvergenceError(
                        f"ended at t1={x[0]:.17g}, outside its bracket")
                if (x[2] - x0[2]) * (1 if top else -1) < 0.0:
                    raise NonConvergenceError(
                        f"ended at lam={x[2]:.17g}, on the wrong side of "
                        f"its start")
                t1, t2, *_ = _verify(branch.grid, ts, x, tol)
                break
            except NonConvergenceError as exc:
                reason = exc
        else:
            raise ContinuationError(
                f"fold solve for the lam {'maximum' if top else 'minimum'} "
                f"between points {a} and {a + 1} (lam={points[a].lam:.17g}) "
                f"failed: {reason}",
                last_point=points[ends[0]])
        branch.folds.append(FoldInfo(x[2], start, t1, t2))
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
    bracket a root; a node within 8 ulps of lam counts as on the level,
    so the noise of q_lam next to a fold cannot hide a crossing from
    both of its pairs.  q_lam is evaluated on the nodes k-1 .. k+2 around
    each crossing pair (k, k+1) alone; each sign change between adjacent
    evaluated nodes brackets one root, and a root on a node is taken
    once.  The cost is a few q values per crossing, whatever the number
    of branch points.  Each root is rebuilt as (t1, lam f2(t1)/mu_h, lam)
    and re-checked by _verify at branch.tol; a root whose re-check
    fails or whose state is not positive (pair norm at or below
    POSITIVITY_ZERO_FLOOR) is dropped, not fatal.
    """
    require_positive(lam, "parameter")
    require_monotone(branch.model)
    ts = _TraceSystem(branch.grid, branch.model)
    nodes, lams = list(branch.points), [p.lam for p in branch.points]
    for fold in branch.folds:
        k = bisect.bisect(nodes, fold.t1, key=lambda node: node.t1)
        if k == 0 or nodes[k - 1].t1 != fold.t1:
            nodes.insert(k, fold)
            lams.insert(k, fold.lam_bar)

    # signs, not products of differences: those overflow past lam = 1e154
    d = [0 if abs(lam - lk) <= 8.0 * math.ulp(lam) else (1 if lam > lk else -1)
         for lk in lams]
    ks = sorted({j for k in range(len(d) - 1) if d[k] * d[k + 1] <= 0
                 for j in range(max(k - 1, 0), min(k + 3, len(lams)))})
    t1s = {j: nodes[j].t1 for j in ks}
    qs = {j: ts.q(t1s[j], lam) for j in ks}
    roots = [t1s[j] for j in ks if qs[j] == 0.0 and t1s[j] > 0.0]
    roots += [ts.root(lam, t1s[i], t1s[j], qs[i], qs[j])
              for i, j in zip(ks, ks[1:]) if j == i + 1 and qs[i] * qs[j] < 0.0]
    states = []
    for t1 in roots:
        try:
            states.append(_verify(branch.grid, ts, ts.at(t1, lam),
                                  branch.tol)[-1])
        except NonConvergenceError:
            continue
    return sorted(states, key=pair_norm)
