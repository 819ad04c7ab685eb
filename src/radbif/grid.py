"""Radial discretization of the ball and the operator -u'' - ((N-1)/r) u' + u.

A grid is a uniform mesh r_j = j h on [0, R_ball] with h = R_ball / M.  The
interior rows use second-order central differences; the r = 0 row uses the
symmetry limit (the Laplacian of a radial function at the origin equals
N u''(0), discretized with the ghost value u_{-1} = u_1); the boundary flux
u'(R_ball) uses the one-sided second-order stencil, exact on quadratics.

A exists once, in difference form (_stencil): the residual applies it
in double, the grid's set-up (steklov.steklov_eigenpair) in longdouble
for its refinement, so the ray solves the operator that the residual
checks, and the jacobian-fd check reads its row scales off the stencil
of the identity.  The set-up's solves need no matrix: the
rows below the flux row are a forward recurrence from the origin, and a
solve is reduction of order on its solution (_kernel_solver), in numpy
alone.  apply_operator and boundary_flux are the independent reference
formulas.

Boundary integrals over the sphere reduce to area x boundary value by radial
symmetry, so no surface quadrature appears anywhere in the toolkit.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, require_int, require_positive

__all__ = [
    "RadialGrid",
    "SystemState",
    "build_grid",
    "apply_operator",
    "boundary_flux",
    "pair_norm",
    "save_state_csv",
    "load_state_csv",
]


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial mesh on a ball in R^N_dim.

    M is the number of intervals; nodes are r_j = j h, j = 0..M, with
    h = R_ball / M.  Grids are immutable and hash by identity, which lets
    the stencil's weights and the grid's set-up be cached per grid.
    """

    N_dim: int
    R_ball: float
    M: int
    r: np.ndarray

    @property
    def h(self) -> float:
        return self.R_ball / self.M


def build_grid(N_dim: int, R_ball: float, M: int) -> RadialGrid:
    N_dim = require_int(N_dim, "spatial dimension", 3)
    M = require_int(M, "number of intervals M", 16)
    R_ball = require_positive(R_ball, "ball radius")
    h = R_ball / M
    # the operator rows carry 1/h^2 and the set-up h^2: both must be finite
    if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
        raise ConfigError(f"ball radius {R_ball:g} is out of range at M = {M}: "
                          f"h = {h:g}, and h^2 or 1/h^2 leaves double range")
    r = np.arange(M + 1) * h
    r.flags.writeable = False
    return RadialGrid(N_dim=N_dim, R_ball=R_ball, M=M, r=r)


@dataclass
class SystemState:
    """Nodal values of the pair (u1, u2) on a radial grid: two 1-d arrays
    of equal length."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        self.u1 = np.asarray(self.u1, dtype=float)
        self.u2 = np.asarray(self.u2, dtype=float)
        if self.u1.shape != self.u2.shape or self.u1.ndim != 1:
            raise ValueError("u1 and u2 must be 1-d arrays of equal length")

    @staticmethod
    def zero(grid: RadialGrid) -> "SystemState":
        return SystemState(np.zeros(grid.M + 1), np.zeros(grid.M + 1))


def pair_norm(state: SystemState) -> float:
    """sup|u1| + sup|u2|, the discrete stand-in for the C(closure) pair norm."""
    return float(np.abs(state.u1).max() + np.abs(state.u2).max())


def _nodal_values(grid: RadialGrid, u) -> np.ndarray:
    """u as a float array of the grid's M + 1 nodal values; ValueError for
    any other shape."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.M + 1,):
        raise ValueError(f"expected {grid.M + 1} nodal values, got shape {u.shape}")
    return u


def apply_operator(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Rows j = 0..M-1 of -u'' - ((N-1)/r) u' + u on the grid.

    The row at j = M is not produced here; that node is governed by the flux
    boundary condition and is assembled by the solvers.
    """
    u = _nodal_values(grid, u)
    M, h, N = grid.M, grid.h, grid.N_dim
    res = np.empty(M)
    res[0] = -2.0 * N * (u[1] - u[0]) / h**2 + u[0]
    res[1:] = (-(u[2:] - 2.0 * u[1:M] + u[:M - 1]) / h**2
               - (N - 1) / grid.r[1:M] * (u[2:] - u[:M - 1]) / (2.0 * h)
               + u[1:M])
    return res


def boundary_flux(grid: RadialGrid, u: np.ndarray) -> float:
    """One-sided second-order u'(R_ball): (3 u_M - 4 u_{M-1} + u_{M-2})/(2h)."""
    u = _nodal_values(grid, u)
    M = grid.M
    return float((3.0 * u[M] - 4.0 * u[M - 1] + u[M - 2]) / (2.0 * grid.h))


def cache_per_object(fn):
    """Memoize fn(obj) for as long as obj lives, so a value derived from a
    grid or model (the stencil's weights, a sampled check) is built once
    per object and freed with it.  obj hashes by identity."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(obj):
        if obj not in cache:
            cache[obj] = fn(obj)
        return cache[obj]

    return cached


@cache_per_object
def _weights(grid: RadialGrid) -> np.ndarray:
    """The weights w_j = (N-1)/(2 h r_j) of _stencil's interior rows, as a
    read-only (M - 1, 1) column."""
    w = ((grid.N_dim - 1) / (2.0 * grid.h * grid.r[1:-1]))[:, None]
    w.flags.writeable = False
    return w


@cache_per_object
def _wide_weights(grid: RadialGrid) -> dict:
    """k -> _weights(grid) repeated over k columns, read-only: _stencil's
    weights for an operand of k columns, made at its first use on the
    grid.  Contiguous like the operand, they let its product run as one
    flat loop where a broadcast column would run k elements at a time."""
    return {}


def _stencil(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """A applied along axis 0 of an (M + 1, k) array u, in u's dtype, as
    differences of neighbouring values: with d = u[1:] - u[:-1],

        row 0:  u_0 - (2N/h^2) d_0
        row j:  u_j - (d_j - d_{j-1})/h^2 - w_j (d_j + d_{j-1})
        row M:  (3 d_{M-1} - d_{M-2}) / (2h).

    On a smooth u neighbouring values and neighbouring differences lie
    within a factor 2 of each other, so both subtractions are exact
    (Sterbenz) and each row rounds about once at the scale of u; sums of
    A's coefficients times values cancel at the 1/h^2 row scale
    instead.  A non-finite u_j reaches rows j - 1 to j + 1 only, and row
    M from j = M - 2.

    The interior rows are written in place from two work arrays, d and
    s = w (d_j + d_{j-1}), with the weights of _wide_weights: the same
    operations in the same order as the formula, so the same bits."""
    M, h, k = grid.M, grid.h, u.shape[1]
    cache = _wide_weights(grid)
    if k not in cache:
        cache[k] = np.repeat(_weights(grid), k, axis=1)
        cache[k].flags.writeable = False
    d = u[1:] - u[:-1]
    s = d[1:] + d[:-1]
    s *= cache[k]
    out = np.empty_like(u)
    out[0] = u[0] - (2.0 * grid.N_dim / h**2) * d[0]
    mid = np.subtract(d[1:], d[:-1], out=out[1:M])
    mid /= h**2
    np.subtract(u[1:M], mid, out=mid)
    mid -= s
    out[M] = (3.0 * d[M - 1] - d[M - 2]) / (2.0 * h)
    return out


def _kernel_solver(grid: RadialGrid):
    """s -> A^-1 s for a double column s of M + 1 entries, in double, by
    reduction of order on the regular solution phi.

    phi solves rows 0..M-1 of A u = 0 with phi_0 = 1.  It comes from a
    forward recurrence on Python floats: with d_j = phi_{j+1} - phi_j,
    q_j = (N-1)/(2j) and alpha_j = (1 - q_j)/(1 + q_j), row 0 gives
    d_0 = h^2/(2N) and row j

        d_j = alpha_j d_{j-1} + (h^2/(1 + q_j)) phi_j.

    phi is the solution that grows with r, so the recurrence is stable.

    With x = phi y and e_j = y_{j+1} - y_j, rows 0..M-1 of A x = s are
    the first-order scan e_j = alpha_j (phi_{j-1}/phi_{j+1}) e_{j-1} +
    sigma_j.  It is solved for f_j = phi_j phi_{j+1} e_j, which takes the
    phi ratios out of the products:

        f_0 = -h^2 phi_0 s_0 / (2N),
        f_j = alpha_j f_{j-1} - h^2 phi_j s_j / (1 + q_j),

    with cumprod and cumsum.  alpha_j is exactly 0 at j = (N-1)/2 for
    odd N, and the scan restarts there.  y_0 = 0; the multiple of phi
    added to x then meets the flux row.

    phi grows like e^r/r, and the scan coefficients k_j = g_j/p_j like
    h^2 phi times j^(N-1): they may leave double range for a ball radius
    near 700 or above (the window depends on N and M).  The products p_j
    of alpha do not depend on the radius and fall like j^-(N-1) from the
    scan's start: at a large dimension they underflow (at M = 4096 from
    N = 146 on, even N), and then k_j, or at a small radius, where h^2
    keeps k_j finite, a solve's k_j s_j, overflows.  A solve whose column
    or flux(phi) is not finite raises NumericalError naming N and M where
    a product has underflowed, and naming the radius otherwise; the
    caller silences numpy's range warnings (steklov_eigenpair).  A is
    singular exactly when flux(phi) is 0, which in double happens when
    phi is constant: at a tiny radius its rise near R rounds away.  The
    set-up then raises NumericalError naming N, R and M."""
    M, N, h = grid.M, grid.N_dim, grid.h
    q = (N - 1) / (2.0 * np.arange(1, M))
    alpha = np.concatenate(([0.0], (1 - q) / (1 + q)))  # 0 starts a scan
    den = np.concatenate(([2.0 * N], 1 + q))
    x, xj, d = [1.0], 1.0, h ** 2 / (2 * N)
    for a, c in zip(alpha[1:].tolist(), (h ** 2 / den[1:]).tolist()):
        xj += d
        x.append(xj)
        d = a * d + c * xj
    x.append(xj + d)
    phi = np.array(x)
    flux = boundary_flux(grid, phi)
    if flux == 0.0:
        raise NumericalError(f"ball radius {grid.R_ball:g} is too small at "
                             f"N = {N}, M = {M}: the regular solution is "
                             f"constant in double, so the grid operator is "
                             f"singular")
    # h * h phi over den, not the recurrence's h^2/den times phi: that
    # rounding would move the longdouble profile by an ulp at some nodes
    # (R = 1e-3)
    g = -h * h * phi[:M] / den
    starts = [*np.flatnonzero(alpha == 0.0), M]
    scans = []
    for a, c in zip(starts, starts[1:]):
        p = np.cumprod(np.concatenate(([1.0], alpha[a + 1:c])))
        scans.append((slice(a, c), p, g[a:c] / p))

    def solve(s):
        f = np.empty(M)
        for part, p, k in scans:
            f[part] = p * np.cumsum(k * s[part])
        x = phi * np.concatenate(([0.0], np.cumsum(f / phi[:M] / phi[1:])))
        x += (s[M] - boundary_flux(grid, x)) / flux * phi
        if np.isfinite(x).all() and np.isfinite(flux):
            return x
        if min(np.abs(p).min() for _, p, _ in scans) < np.finfo(float).tiny:
            raise NumericalError(f"dimension N = {N} is too large at M = {M}:"
                                 " the reduction of order's products underflow")
        raise NumericalError(f"ball radius {grid.R_ball:g} is too large at "
                             f"N = {N}, M = {M}: the regular solution (1 at "
                             f"r = 0) or its reduction of order overflows "
                             f"double range")

    return solve


def _write_table(path, head: str, columns, sep: str = ",") -> None:
    """Write head, then one row per entry of the equal-length columns:
    their values as %.17g, joined by sep.  One % over the row format
    repeated per row gives the same bytes as a call per row, with a
    fraction of the calls."""
    table = np.column_stack(columns)
    row = sep.join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head + (row * len(table)) % tuple(table.ravel().tolist()))


def save_state_csv(path, grid: RadialGrid, state: SystemState,
                   comment: str | None = None) -> None:
    """Write columns r, u1, u2 as %.17g (plot-friendly, '#' comment lines
    allowed); load_state_csv reads them back exactly."""
    head = (f"# {comment}\n" if comment else "") + "r,u1,u2\n"
    _write_table(path, head, (grid.r, state.u1, state.u2))


def load_state_csv(path):
    """Read back (r, u1, u2) arrays written by save_state_csv; a row
    without three fields, or no row at all, raises ValueError naming the
    path (and the line)."""
    rows = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("r,"):
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"{path}:{n}: expected r,u1,u2, got {line!r}")
            rows.append([float(x) for x in fields])
    if not rows:
        raise ValueError(f"{path}: no r,u1,u2 rows")
    data = np.array(rows)
    return data[:, 0], data[:, 1], data[:, 2]
