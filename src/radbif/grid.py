"""Radial discretization of the ball and the operator -u'' - ((N-1)/r) u' + u.

A grid is a uniform mesh r_j = j h on [0, R_ball] with h = R_ball / M.  The
interior rows use second-order central differences; the r = 0 row uses the
symmetry limit (the Laplacian of a radial function at the origin equals
N u''(0), discretized with the ghost value u_{-1} = u_1); the boundary flux
u'(R_ball) uses the one-sided second-order stencil, exact on quadratics.

A exists once, in difference form (_stencil): the residual applies it
in double, the grid's set-up (steklov.steklov_eigenpair, with its solves)
in longdouble for its refinement, so the ray solves the operator that
the residual checks, and the jacobian-fd check reads its row scales off
the stencil of three comb columns, which gives the identity's row maxima
bit for bit.  apply_operator and boundary_flux are the independent
reference formulas.

Boundary integrals over the sphere reduce to area x boundary value by radial
symmetry, so no surface quadrature appears anywhere in the toolkit.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_int, require_positive

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
def _pair_weights(grid: RadialGrid) -> np.ndarray:
    """_weights(grid) repeated over two columns, read-only: _stencil's
    weights for the (M + 1, 2) node array of one state.  Contiguous like
    that operand, they let its product run as one flat loop where the
    broadcast column would run two elements at a time.  Wider operands,
    blocks of several states, take the broadcast column: a repeated copy
    per width would be kept for the grid's life."""
    w = np.repeat(_weights(grid), 2, axis=1)
    w.flags.writeable = False
    return w


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
    s = w (d_j + d_{j-1}), with the weights of _pair_weights for two
    columns: the same operations in the same order as the formula, and
    the same weights at every width, so the same bits."""
    M, h = grid.M, grid.h
    d = u[1:] - u[:-1]
    s = d[1:] + d[:-1]
    s *= _pair_weights(grid) if u.shape[1] == 2 else _weights(grid)
    out = np.empty_like(u)
    out[0] = u[0] - (2.0 * grid.N_dim / h**2) * d[0]
    mid = np.subtract(d[1:], d[:-1], out=out[1:M])
    mid /= h**2
    np.subtract(u[1:M], mid, out=mid)
    mid -= s
    out[M] = (3.0 * d[M - 1] - d[M - 2]) / (2.0 * h)
    return out


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
