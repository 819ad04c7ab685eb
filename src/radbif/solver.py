"""The coupled pair at fixed parameter: residual, the kernel-ray facts
shared with continuation, the package's one Newton iteration on the two
traces, and the pure-power limiting problem in closed form.

The interior rows of the discrete system are linear with no source term,
so they pin every solution to the kernel ray: it is (t1 phi_h, t2 phi_h),
with phi_h = v/v(R) the unit-trace profile, v = A^-1 e_M the grid's
unit-flux column and mu_h = 1/v(R).  Only the two flux rows

    mu_h t1 = lam f1(t2),    mu_h t2 = lam f2(t1)

are nonlinear; _TraceSystem holds them, their derivative (the 2x3 rows
that the jacobian-fd check of the acceptance suite compares with
differences of the residual on the ray) and the scalar forms
continuation needs.  _trace_newton is Newton on these two rows
plus one extra row in x = (t1, t2, lam): the arclength row or the fold
row in continuation, lam = lam0 in newton_solve.  Every solution the
package returns is rebuilt from its traces by _rays (_on_ray for one
state): t_i times the grid's longdouble profile rounded to double once,
u_0 from row 0 given the rounded u_1.  Its full-space residual, scaled
by the traces, and its positivity are the independent re-check, and
_recheck is its one form, for any list of points: it tries the
roundings t_i + k ulp(t_i) of ULP_SHIFTS in order, and each round
evaluates the points no earlier rounding passed in blocks
(_ray_residuals: one outer product rebuilds them all and one stencil
call evaluates the (M + 1, 2K) block of their nodes, with the bits each
point alone would get).  A block holds at most max(1, RUN_NODES //
(M + 1)) states (_run_length): the runs of continuation, the roots of
solutions_at, the converged Newton states of the nonexistence check and
the stepped states of the jacobian-fd check; newton_solve, a step-off
and a fold re-check one point.  So once the grid is set up
(steklov_eigenpair: mu_h, v, the longdouble profile and the metric
weight w, made by one call, cached per grid, with no solver kept)
neither newton_solve nor continuation makes a linear solve, and every
per-step quantity is a Python float: numpy serves only arrays of the
M + 1 nodes.

The residual applies the grid's difference stencil in double to the
interleaved state viewed as its (M + 1, 2) array of nodes and subtracts
the two flux terms (_pair_residual, whose block of K states is this
array K times side by side); each row rounds about once at the scale of
the state.  No full-space Jacobian is formed: on the ray the interior rows
vanish whatever the traces, so the flux rows' derivative is all that
Newton needs.  residual and newton_solve refuse a state without the
grid's M + 1 nodes (ValueError).

Residual norms are measured as max|F| / max(1, sup|u1|, sup|u2|): the
operator rows scale like 1/h^2, so that quotient is what floating point can
actually resolve once state amplitudes grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonConvergenceError, require_positive
from .grid import RadialGrid, SystemState, _nodal_values, _stencil
from .model import NonlinearityModel, f_extended
from .steklov import steklov_eigenpair

__all__ = [
    "NewtonResult",
    "POSITIVITY_REL_FLOOR",
    "POSITIVITY_ZERO_FLOOR",
    "TOL_RESIDUAL",
    "is_positive_state",
    "residual",
    "newton_solve",
    "solve_limit_problem",
    "scaled_residual_norm",
]

# A component whose sup lies below this fraction of the pair norm counts
# as zero when classifying a state as positive.  The floor applies to the
# sup, not to every node: on the ray u_i(0)/u_i(R) is about 2R e^-R at
# N = 3, below 1e-12 from R of about 30.
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

# Newton steps allowed per solve of _trace_newton to reach the tolerance.
MAX_NEWTON_ITER = 50

# The roundings of traces that _recheck tries, in ulps of each trace and
# in this order; most states pass unshifted.
ULP_SHIFTS = (0, 1, -1, 2, -2)

# The node budget of one block of rebuilt states: continuation re-checks
# its corrected points in runs of max(1, RUN_NODES // (M + 1)), so from
# M = 2048 a run is one point and each point is re-checked as it comes.
RUN_NODES = 4096


@dataclass
class NewtonResult:
    """Converged state plus the iteration record callers decide on."""

    state: SystemState
    iterations: int
    residual_norm: float
    positive: bool
    history: list = field(default_factory=list)


def is_positive_state(state: SystemState) -> bool:
    """Every node above 0, and each component's sup above
    POSITIVITY_REL_FLOOR times the pair norm.

    States with pair norm at or below POSITIVITY_ZERO_FLOOR classify as
    trivial: they are (0, 0) up to rounding noise, which carries no sign
    information.

    Four reductions, the test of _positive: once both minima are above
    0, sup|u_i| is max u_i, so the pair norm is max u1 + max u2.
    """
    u1, u2 = state.u1, state.u2
    return _positive(u1.min(), u2.min(), u1.max(), u2.max())


def _positive(lo1, lo2, hi1, hi2) -> bool:
    """is_positive_state's test on the minima lo_i and maxima hi_i of the
    two components."""
    if not min(lo1, lo2) > 0.0:
        return False
    norm = float(hi1 + hi2)
    return bool(norm > POSITIVITY_ZERO_FLOOR
                and min(hi1, hi2) > POSITIVITY_REL_FLOOR * norm)


def scaled_residual_norm(res: np.ndarray, state: SystemState) -> float:
    """max |res| / max(1, max |u1|, max |u2|); a NaN row of res makes it
    NaN, which no `<= tol` test passes."""
    scale = max(1.0, float(np.maximum(np.abs(state.u1), np.abs(state.u2)).max()))
    return float(np.abs(res).max()) / scale


def _pair_residual(grid: RadialGrid, u: np.ndarray, flux) -> np.ndarray:
    """Residuals of K states at once, as the (M + 1, 2K) node block u:
    state k's u1 in column 2k and its u2 in column 2k + 1, so a row of
    K = 1 is the interleaved pair of one node.  flux holds the 2K terms
    g1(u2(R)), g2(u1(R)) of the states in that order, subtracted from the
    block's last row: g_i = lam f_i at fixed parameter, pure powers in the
    limit.

    The block goes through the grid's difference stencil in double.  Each
    row rounds about once at the scale of the state, so the evaluation
    floor stays near 1e-16 in the scaled norm even at blow-up-tail
    amplitudes, where band sums drown below roughly 2e-10 at the 1/h^2
    row scale.  The stencil works down each column alone, with the same
    operations in the same order and the same weights at every width, so
    a state's columns get the same bits in any block."""
    y = _stencil(grid, u)
    y[grid.M] -= flux
    return y


def _require_arguments(grid: RadialGrid, lam: float,
                       state: SystemState) -> None:
    """ValueError unless lam is nonnegative and finite and the state has
    the grid's M + 1 nodes (u2 has the shape of u1)."""
    if not 0 <= lam < np.inf:  # NaN fails too
        raise ValueError(f"parameter must be nonnegative and finite, got {lam}")
    _nodal_values(grid, state.u1)


def residual(grid: RadialGrid, model: NonlinearityModel, lam: float,
             state: SystemState) -> np.ndarray:
    """Interleaved residual of the coupled system at parameter lam.

    Operator rows at j = 0..M-1 per component, then the two flux rows
    flux(u_i) - lam f_i(u_other(R)).  The nonlinearities are evaluated
    through their linear extension so off-sign intermediate iterates remain
    well defined.
    """
    _require_arguments(grid, lam, state)
    u = np.empty((grid.M + 1, 2))
    u[:, 0], u[:, 1] = state.u1, state.u2
    flux = (lam * f_extended(model, 1, float(state.u2[grid.M])),
            lam * f_extended(model, 2, float(state.u1[grid.M])))
    return _pair_residual(grid, u, flux).ravel()


def _fpp(df, slope: float, s: float) -> float:
    """Central difference at s, relative step about eps^(1/3), of f' =
    df extended by the constant slope = f'(0) below 0."""
    h = 6e-6 * max(1.0, abs(s))
    a, b = s + h, s - h
    return ((float(df(a)) if a >= 0 else slope)
            - (float(df(b)) if b >= 0 else slope)) / (2.0 * h)


class _TraceSystem:
    """The flux rows on x = (t1, t2, lam) for states (t1 phi_h, t2 phi_h).

    mu_h, the weight w and the profile are the grid's, from its one
    set-up (steklov_eigenpair): w = (phi_h.phi_h)/(2(M+1)) makes the
    trace metric w (dt1^2 + dt2^2) + dlam^2 equal the full-space one, and
    _on_ray rebuilds states from the longdouble unit-trace profile.
    Points are tuples of Python floats.

    The model's f1, f2, df1, df2 and its slopes s_i = f_i'(0) = df_i(0)
    are bound once.  Each value of f_i or f_i' below is then one model
    call in the expression of f_extended or fprime_extended, with the
    same bits: float(f_i(s)) if s >= 0 else s_i s, and float(df_i(s)) if
    s >= 0 else s_i.
    """

    def __init__(self, grid: RadialGrid, model: NonlinearityModel):
        self.model, self.f1, self.f2 = model, model.f1, model.f2
        self.df1, self.df2 = model.df1, model.df2
        self.s1, self.s2 = float(model.df1(0.0)), float(model.df2(0.0))
        pair = steklov_eigenpair(grid)
        self.mu_h, self.profile, self.w = pair.mu1, pair.profile, pair.w

    def linearize(self, t1: float, t2: float, lam: float) -> tuple:
        """The flux rows at (t1, t2, lam) and their 2x3 derivative with
        respect to (t1, t2, lam), as floats: ((r1, r2), (row1, row2))."""
        mu = self.mu_h
        if t2 >= 0:
            f1, d1 = float(self.f1(t2)), float(self.df1(t2))
        else:
            f1, d1 = self.s1 * t2, self.s1
        if t1 >= 0:
            f2, d2 = float(self.f2(t1)), float(self.df2(t1))
        else:
            f2, d2 = self.s2 * t1, self.s2
        return ((mu * t1 - lam * f1, mu * t2 - lam * f2),
                ((mu, -lam * d1, -f1), (-lam * d2, mu, -f2)))

    def fluxes(self, t1: float, t2: float, lam: float) -> tuple:
        """The flux terms (lam f1(t2), lam f2(t1)) of residual's last row."""
        return (lam * (float(self.f1(t2)) if t2 >= 0 else self.s1 * t2),
                lam * (float(self.f2(t1)) if t1 >= 0 else self.s2 * t1))

    def _fold_factors(self, x) -> tuple:
        """(k, f1'(t2), f2'(t1)) at x = (t1, t2, lam), k = lam/mu_h."""
        t1, t2, lam = x
        return (lam / self.mu_h,
                float(self.df1(t2)) if t2 >= 0 else self.s1,
                float(self.df2(t1)) if t1 >= 0 else self.s2)

    def fold_value(self, x) -> float:
        """fold_row's value alone, with the same bits and no f_i'': the
        fold scan reads only its sign."""
        k, d1, d2 = self._fold_factors(x)
        return 1.0 - k * k * d1 * d2

    def fold_row(self, x) -> tuple:
        """(1 - k^2 f1'(t2) f2'(t1), gradient) with k = lam/mu_h: det F_t /
        mu_h^2, zero exactly at a fold.  The f_i'' in the gradient are
        central differences of f_i'; they steer Newton only."""
        t1, t2, _ = x
        k, d1, d2 = self._fold_factors(x)
        return 1.0 - k * k * d1 * d2, (
            -k * (k * d1 * _fpp(self.df2, self.s2, t1)),
            -k * (k * _fpp(self.df1, self.s1, t2) * d2),
            -k * (2.0 * d1 * d2 / self.mu_h))

    def q(self, t: float, lam: float) -> float:
        """q_lam(t) = G_lam(t)/t - 1, G_lam(t) = lam f1(lam f2(t)/mu_h)/mu_h,
        whose roots are the t1 of the states at lam; its limit at t = 0."""
        mu = self.mu_h
        if t == 0.0:
            return lam * lam * self.s1 * self.s2 / (mu * mu) - 1.0
        g = lam * (float(self.f2(t)) if t >= 0 else self.s2 * t) / mu
        return lam * (float(self.f1(g)) if g >= 0 else self.s1 * g) / (mu * t) - 1.0

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

    def at(self, t1: float, lam: float) -> tuple:
        """The point x = (t1, t2, lam) with t2 from the second flux row."""
        f2 = float(self.f2(t1)) if t1 >= 0 else self.s2 * t1
        return t1, lam * f2 / self.mu_h, lam

    def dist(self, xa, xb) -> float:
        """sqrt(w (dt1^2 + dt2^2) + dlam^2) between two points."""
        d1, d2, d3 = xa[0] - xb[0], xa[1] - xb[1], xa[2] - xb[2]
        return math.sqrt(self.w * (d1 * d1 + d2 * d2) + d3 * d3)


def _on_ray(profile: np.ndarray, t1: float, t2: float) -> SystemState:
    """The state (t1 phi_h, t2 phi_h), rebuilt by _rays."""
    return SystemState(*_rays(profile, (t1, t2)))


def _rays(profile: np.ndarray, traces) -> np.ndarray:
    """The profile times each trace t, one row per trace: one longdouble
    outer product, each value rounded to double once, so the traces are
    the rows' last values exactly.  It is the one rebuild of solutions
    from their traces, (t1, t2) for one state (_on_ray), the traces of
    several in a row for a block.

    u_0 is rounded from (phi_0/phi_1) u_1, the root of row 0 given the
    rounded u_1, not from t phi_0.  Row 0's coefficient 2N/h^2 is N times
    the interior rows', so independent roundings of u_0 and u_1 leave up
    to about eps 2N/h^2 of the state in it (above tol 1e-8 at M = 4096);
    solved for u_0, it keeps half an ulp of u_0 times 2N/h^2 + 1.

    The profile rises to exactly 1 at R and not above it, and rounding is
    monotone, so a row's sup|u| is exactly |t|, and a row of t >= 0 is
    nondecreasing from u_0 (phi_0/phi_1 is at most 1)."""
    u = np.multiply.outer(np.array(traces, dtype=np.longdouble),
                          profile).astype(float)
    u[:, 0] = (profile[0] / profile[1]) * u[:, 1]
    return u


def _run_length(grid: RadialGrid) -> int:
    """States per block of rebuilt states: max(1, RUN_NODES // (M + 1))."""
    return max(1, RUN_NODES // (grid.M + 1))


def _ray_residuals(grid: RadialGrid, ts: _TraceSystem, xs) -> tuple:
    """(u, y): the points xs = [(t1, t2, lam), ...] rebuilt on the ray
    (_rays: the u1 of point k in row 2k, its u2 in row 2k + 1) and their
    full-space residuals as one (M + 1, 2K) block of _pair_residual, by
    one outer product and one stencil call.  Each value is the one the
    point alone would give (_on_ray, residual).  One state's block is
    filled column by column, as residual fills it: the transposed copy
    costs about three times as much at M = 4096."""
    u = _rays(ts.profile, [t for x in xs for t in x[:2]])
    flux = [g for t1, t2, lam in xs for g in ts.fluxes(t1, t2, lam)]
    if len(xs) == 1:
        block = np.empty((grid.M + 1, 2))
        block[:, 0], block[:, 1] = u
    else:
        block = np.ascontiguousarray(u.T)
    return u, _pair_residual(grid, block, flux)


def _recheck(grid: RadialGrid, ts: _TraceSystem, xs, tol: float) -> list:
    """Re-check the points xs = [(t1, t2, lam), ...] on the kernel ray in
    full space at tol: one result (a, b, k, res, u, reason) per point.

    For k in ULP_SHIFTS, in order, each point that no earlier k passed
    is rebuilt at the traces a = t1 + k ulp(t1), b = t2 + k ulp(t2), in
    blocks of _run_length(grid) points (_ray_residuals); k = 0 rounds
    too, so a -0.0 trace comes back as +0.0.  u is the state's (2, M + 1)
    rows and res its full-space residual over max(1, |a|, |b|), which is
    scaled_residual_norm's: on the ray sup|u_i| is exactly |t_i|.  A
    point's result is that of the first k whose res is at most tol, with
    reason "" when the state is positive and "corrected state not
    positive" when not; a point that no k passes gets the last k's, with
    the reason "full-space re-check failed: ...".  Positivity is
    is_positive_state's test (_positive) on each row's u_0 and trace: a
    row of t >= 0 has its minimum at node 0 and its maximum t (_rays),
    and a row of t < 0 has u_0 <= 0, so it fails there as at R.

    A state's residual is the maximum of |y| over its two columns,
    reduced along contiguous memory: |y| is copied transposed, so that
    each state's 2(M + 1) values are one row (one state's block already
    is).  It gives the doubles of np.maximum over the two column maxima,
    a NaN kept."""
    out, todo, run = [None] * len(xs), range(len(xs)), _run_length(grid)
    for k in ULP_SHIFTS:
        if not todo:
            break
        failed = []
        for i in range(0, len(todo), run):
            idx = todo[i:i + run]
            pts = [(t1 + k * math.ulp(t1), t2 + k * math.ulp(t2), lam)
                   for t1, t2, lam in (xs[j] for j in idx)]
            u, y = _ray_residuals(grid, ts, pts)
            y = np.abs(y, out=y)
            top = ((y.T.copy() if len(pts) > 1 else y).reshape(len(pts), -1)
                   .max(axis=1).tolist())
            lo = u[:, 0].tolist()
            for n, j in enumerate(idx):
                a, b, _ = pts[n]
                res, m = top[n] / max(1.0, abs(a), abs(b)), 2 * n
                if res <= tol:
                    reason = ("" if _positive(lo[m], lo[m + 1], a, b)
                              else "corrected state not positive")
                else:
                    failed.append(j)
                    reason = None
                out[j] = a, b, k, res, u[m:m + 2], reason
        todo = failed
    for j in todo:
        a, b, k, res, u, _ = out[j]
        reason = f"residual > {tol:g} at every shift ({res:.3e} at {k:+d} ulps)"
        out[j] = a, b, k, res, u, "full-space re-check failed: " + reason
    return out


def _admissible(t1: float, t2: float, lam: float) -> bool:
    return (lam > 0.0 and math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(lam))


def _trace_newton(ts: _TraceSystem, extra, x0, tol: float) -> tuple:
    """Newton on {flux rows = 0, extra row = 0} in x = (t1, t2, lam), where
    extra(x) gives the row's value and gradient: continuation's arclength
    row, ts.fold_row, or lam - lam0 at a fixed lam0 (newton_solve).

    Convergence within MAX_NEWTON_ITER steps: the flux rows over
    max(1, |t1|, |t2|), the sup norms of the rebuilt state, and |value| at
    most tol.  Once converged, one more step is taken: it leaves x with
    rounding error only, and it sends a near-trivial iterate to about
    zero, where that scaled test is absolute.  The step is the adjugate
    of the 3x3 system over its determinant, all on Python floats: x is
    the three named floats t1, t2 and lam, and each step is written out
    per coordinate, with no generator or zip.

    Returns x as a tuple of floats and the history of the scaled flux-row
    residual of each iterate, the returned x last, so the step count, the
    finishing step included, is len(history) - 1.  An iterate outside
    lam > 0 with finite coordinates, a singular 3x3 system (a zero
    determinant) before convergence or no convergence raises
    NonConvergenceError with the history and the last iterate rebuilt on
    the ray; a converged x whose system is singular is returned as it
    stands.
    """
    (t1, t2, lam), history = map(float, x0), []

    def failure(message):
        return NonConvergenceError(message, trace=history,
                                   last_state=_on_ray(ts.profile, t1, t2))

    for it in range(MAX_NEWTON_ITER + 1):
        if not _admissible(t1, t2, lam):
            raise failure("iterate left the admissible region")
        (r1, r2), ((a, b, c), (d, e, f)) = ts.linearize(t1, t2, lam)
        v, (g, h, k) = extra((t1, t2, lam))
        scale = max(1.0, abs(t1), abs(t2))
        e1, e2 = abs(r1) / scale, abs(r2) / scale
        history.append(max(e1, e2))
        # false for a NaN row as well
        converged = e1 <= tol and e2 <= tol and abs(v) <= tol
        if it == MAX_NEWTON_ITER and not converged:
            raise failure(f"no convergence in {MAX_NEWTON_ITER} iterations "
                          f"(residual {history[-1]:.3e})")
        # the adjugate's last column; det by cofactors along the extra
        # row, for the fixed-lam row (0, 0, 1) exactly a e - b d
        c1, c2, c3 = b * f - c * e, c * d - a * f, a * e - b * d
        det = g * c1 + h * c2 + k * c3
        if det == 0.0 and not converged:
            raise failure("singular Jacobian: the 3x3 trace system is "
                          "singular")
        if det != 0.0:
            # x - adj (r1, r2, v) / det, one row of the adjugate per
            # coordinate
            n1 = t1 - ((e * k - f * h) * r1 + (c * h - b * k) * r2 + c1 * v) / det
            n2 = t2 - ((f * g - d * k) * r1 + (a * k - c * g) * r2 + c2 * v) / det
            n3 = lam - ((d * h - e * g) * r1 + (b * g - a * h) * r2 + c3 * v) / det
            if not converged or _admissible(n1, n2, n3):
                t1, t2, lam = n1, n2, n3
        if converged:
            (r1, r2), _ = ts.linearize(t1, t2, lam)
            history.append(max(abs(r1), abs(r2)) / max(1.0, abs(t1), abs(t2)))
            return (t1, t2, lam), history


def _fixed_lam(lam: float):
    """The extra row lam' - lam of _trace_newton at x = (t1, t2, lam'),
    with its gradient (0, 0, 1): newton_solve's row."""
    return lambda x: (x[2] - lam, (0.0, 0.0, 1.0))


def newton_solve(grid: RadialGrid, model: NonlinearityModel, lam: float,
                 init: SystemState, tol: float = TOL_RESIDUAL) -> NewtonResult:
    """Solve the coupled system at fixed lam by Newton on the two traces,
    to scaled residual norm at most tol (lam and tol positive and finite,
    else ConfigError; init with the grid's M + 1 nodes, else ValueError).

    This is _trace_newton with the extra row lam' - lam, started at
    init's traces (u1(R), u2(R)) and lam: that row's step component is
    exactly 0, so every iterate stays at lam, and the steps are those of
    the 2x2 flux-row system.  The traces are then rebuilt on the kernel
    ray and re-checked in full space (_recheck).

    This is full-space Newton: the interior rows are linear with no
    source term, so one undamped full-space step from any state lands on
    the ray, at the trace step from that state's traces.

    The result carries the step count (the finishing step included), the
    full-space residual of the returned state, the trace residual of each
    iterate in history (iterations + 1 entries) and the positivity
    classification; a state with a non-positive node is returned flagged,
    not raised, so callers decide.  A failed iteration or re-check raises
    NonConvergenceError with the trace-residual history and the last
    iterate rebuilt on the ray.
    """
    require_positive(tol, "tol_residual")
    require_positive(lam, "parameter")
    _nodal_values(grid, init.u1)
    ts = _TraceSystem(grid, model)
    x, history = _trace_newton(ts, _fixed_lam(lam),
                               (init.u1[grid.M], init.u2[grid.M], lam), tol)
    _, _, _, res, u, reason = _recheck(grid, ts, [x], tol)[0]
    if not res <= tol:
        raise NonConvergenceError(reason, trace=history,
                                  last_state=_on_ray(ts.profile, x[0], x[1]))
    return NewtonResult(SystemState(u[0], u[1]), len(history) - 1, res,
                        not reason, history)


def solve_limit_problem(grid: RadialGrid,
                        model: NonlinearityModel) -> tuple[SystemState, float]:
    """Nontrivial solution of the pure-power flux problem and its residual.

    Boundary rows: flux(w1) = b2 w2^p2, flux(w2) = b1 w1^p1.  Like every
    discrete solution the state is (s1 phi_h, s2 phi_h), rebuilt by
    _on_ray, and the trace rows mu_h s1 = b2 s2^p2, mu_h s2 = b1 s1^p1
    have the closed form s1^(p1 p2 - 1) = mu_h^(p2+1) / (b2 b1^p2),
    s2 = b1 s1^p1 / mu_h.  Returns (state, scaled residual of the rebuilt
    state in full space); the residual is the independent check.
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
    state = _on_ray(eig.profile, s1, s2)
    res = _pair_residual(grid, np.column_stack((state.u1, state.u2)),
                         (b2 * max(s2, 0.0) ** p2, b1 * max(s1, 0.0) ** p1))
    return state, scaled_residual_norm(res, state)
