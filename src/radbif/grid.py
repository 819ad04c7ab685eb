"""Radial discretization of the ball and the operator -u'' - ((N-1)/r) u' + u.

A grid is a uniform mesh r_j = j h on [0, R_ball] with h = R_ball / M.  The
interior rows use second-order central differences; the r = 0 row uses the
symmetry limit (the Laplacian of a radial function at the origin equals
N u''(0), discretized with the ghost value u_{-1} = u_1); the boundary flux
u'(R_ball) uses the one-sided second-order stencil, exact on quadratics.

The grid keeps A's (2, 1) bands, which the LU of the ray and the
Jacobian read, and evaluates A once, in difference form (_stencil): the
residual applies it in double, the ray's refinement in longdouble, so
the ray solves the operator that the residual checks.  apply_operator
and boundary_flux are the independent reference formulas.

Boundary integrals over the sphere reduce to area x boundary value by radial
symmetry, so no surface quadrature appears anywhere in the toolkit.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import require_int, require_positive

__all__ = [
    "RadialGrid",
    "SystemState",
    "build_grid",
    "apply_operator",
    "boundary_flux",
    "pair_norm",
    "operator_bands",
    "solve_flux_bvp",
    "save_state_csv",
    "load_state_csv",
]


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial mesh on a ball in R^N_dim.

    M is the number of intervals; nodes are r_j = j h, j = 0..M, with
    h = R_ball / M.  Grids are immutable and hash by identity, which lets
    assembled operator bands be cached per grid.
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
    r = np.arange(M + 1) * (R_ball / M)
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

    def to_vector(self) -> np.ndarray:
        """Interleave as [u1_0, u2_0, u1_1, u2_1, ...] (banded ordering)."""
        out = np.empty(2 * self.u1.size)
        out[0::2] = self.u1
        out[1::2] = self.u2
        return out

    @staticmethod
    def from_vector(x: np.ndarray) -> "SystemState":
        return SystemState(x[0::2].copy(), x[1::2].copy())

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
    j = np.arange(1, M)
    rj = grid.r[j]
    res[j] = (-(u[j + 1] - 2.0 * u[j] + u[j - 1]) / h**2
              - (N - 1) / rj * (u[j + 1] - u[j - 1]) / (2.0 * h)
              + u[j])
    return res


def boundary_flux(grid: RadialGrid, u: np.ndarray) -> float:
    """One-sided second-order u'(R_ball): (3 u_M - 4 u_{M-1} + u_{M-2})/(2h)."""
    u = _nodal_values(grid, u)
    M = grid.M
    return float((3.0 * u[M] - 4.0 * u[M - 1] + u[M - 2]) / (2.0 * grid.h))


def cache_per_object(fn):
    """Memoize fn(obj) for as long as obj lives, so a value derived from a
    grid or model (assembled bands, a sampled check) is built once per
    object and freed with it.  obj hashes by identity."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(obj):
        if obj not in cache:
            cache[obj] = fn(obj)
        return cache[obj]

    return cached


@cache_per_object
def _bands(grid: RadialGrid) -> tuple:
    """(ab, w): the (l, u) = (2, 1) bands of A, and the weights
    w_j = (N-1)/(2 h r_j) of _stencil's interior rows as an (M - 1, 1)
    column, both read-only."""
    M, h, N = grid.M, grid.h, grid.N_dim
    ab = np.zeros((4, M + 1))  # rows super, diag, sub, sub2
    ab[1, 0] = 2.0 * N / h**2 + 1.0
    ab[0, 1] = -2.0 * N / h**2
    j = np.arange(1, M)
    w = (N - 1) / (2.0 * h * grid.r[j])
    ab[1, j] = 2.0 / h**2 + 1.0
    ab[2, j - 1] = -1.0 / h**2 + w
    ab[0, j + 1] = -1.0 / h**2 - w
    ab[3, M - 2] = 1.0 / (2.0 * h)
    ab[2, M - 1] = -2.0 / h
    ab[1, M] = 3.0 / (2.0 * h)
    w = w[:, None]
    for a in (ab, w):
        a.flags.writeable = False
    return ab, w


def operator_bands(grid: RadialGrid) -> np.ndarray:
    """Banded storage (l, u) = (2, 1) of the single-component system.

    Rows 0..M-1 are apply_operator; the last row is the flux stencil u'(R).
    """
    return _bands(grid)[0]


def _stencil(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """A applied along axis 0 of an (M + 1, k) array u, in u's dtype, as
    differences of neighbouring values: with d = u[1:] - u[:-1],

        row 0:  u_0 - (2N/h^2) d_0
        row j:  u_j - (d_j - d_{j-1})/h^2 - w_j (d_j + d_{j-1})
        row M:  (3 d_{M-1} - d_{M-2}) / (2h).

    On a smooth u neighbouring values and neighbouring differences lie
    within a factor 2 of each other, so both subtractions are exact
    (Sterbenz) and each row rounds about once at the scale of u; the
    band sums of A cancel at the 1/h^2 row scale instead.  A non-finite
    u_j reaches rows j - 1 to j + 1 only, and row M from j = M - 2."""
    M, h, w = grid.M, grid.h, _bands(grid)[1]
    d = u[1:] - u[:-1]
    out = np.empty_like(u)
    out[0] = u[0] - (2.0 * grid.N_dim / h**2) * d[0]
    out[1:M] = u[1:M] - (d[1:] - d[:-1]) / h**2 - w * (d[1:] + d[:-1])
    out[M] = (3.0 * d[M - 1] - d[M - 2]) / (2.0 * h)
    return out


@cache_per_object
def _ray(grid: RadialGrid) -> tuple:
    """(v, profile): the unit-flux column v = A^-1 e_M in double and the
    unit-trace profile v/v(R) in longdouble, both read-only, computed once
    per grid.  Every discrete solution lies on this ray.

    A is factored (LAPACK dgbtrf on the (2, 1) bands) and solved for e_M;
    each refinement pass subtracts the dgbtrs solve of the residual
    A w - e_M, evaluated by _stencil in longdouble.  One pass from the
    double solve gives v, accurate to working precision per node.  Three
    more, accumulated in longdouble from v, give the profile, divided by
    its own last entry, which makes that
    entry exactly 1: t times it rounds to double once, so the rebuilt
    (t phi_h) keeps t as its trace exactly.  The factor is not kept, so
    once a grid is set up nothing can make a banded solve.  The matrix is
    diagonally dominant on the interior rows, so the factorization is
    stable at any resolution used here.  Raises LinAlgError when A is
    singular; nothing is cached then, so the error surfaces again at
    every call that needs the ray.
    """
    M = grid.M
    work = np.zeros((6, M + 1), order="F")  # 2 l + u + 1 rows: LU fill
    work[2:] = operator_bands(grid)
    lu, piv, info = dgbtrf(work, 2, 1, overwrite_ab=True)
    if info != 0:
        raise LinAlgError(f"grid operator is singular (dgbtrf info {info})")

    def correction(w):
        r = _stencil(grid, w.astype(np.longdouble))
        r[M] -= 1
        return dgbtrs(lu, 2, 1, r.astype(float), piv)[0]

    e = np.zeros((M + 1, 1))
    e[M] = 1.0
    v = dgbtrs(lu, 2, 1, e, piv)[0]
    v = v - correction(v)
    w = v.astype(np.longdouble)
    for _ in range(3):
        w -= correction(w)
    v, profile = v[:, 0], (w / w[M])[:, 0]
    for a in (v, profile):
        a.flags.writeable = False
    return v, profile


def solve_flux_bvp(grid: RadialGrid, flux: float) -> np.ndarray:
    """Solve -v'' - ((N-1)/r) v' + v = 0 with v'(R) = flux.

    The problem is linear in the one scalar flux, so the solution is flux
    times the grid's unit-flux column (_ray); no banded solve happens
    here.
    """
    return float(flux) * _ray(grid)[0]


@cache_per_object
def _r_column(grid: RadialGrid) -> list:
    """The r column of save_state_csv, formatted once per grid."""
    return [f"{r:.17g}" for r in grid.r.tolist()]


def save_state_csv(path, grid: RadialGrid, state: SystemState,
                   comment: str | None = None) -> None:
    """Write columns r, u1, u2 (plot-friendly, '#' comment lines allowed)."""
    head = (f"# {comment}\n" if comment else "") + "r,u1,u2\n"
    r = _r_column(grid)
    # one % over the row format repeated per row: the same bytes as a
    # call per row, with a fraction of the calls
    values = [None] * (3 * len(r))
    values[0::3] = r
    values[1::3], values[2::3] = state.u1.tolist(), state.u2.tolist()
    with open(path, "w") as fh:
        fh.write(head + ("%s,%.17g,%.17g\n" * len(r)) % tuple(values))


def load_state_csv(path):
    """Read back (r, u1, u2) arrays written by save_state_csv."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("r,"):
                continue
            rows.append([float(x) for x in line.split(",")])
    data = np.array(rows)
    return data[:, 0], data[:, 1], data[:, 2]
