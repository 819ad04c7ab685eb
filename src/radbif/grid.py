"""Radial discretization of the ball and the operator -u'' - ((N-1)/r) u' + u.

A grid is a uniform mesh r_j = j h on [0, R_ball] with h = R_ball / M.  The
interior rows use second-order central differences; the r = 0 row uses the
symmetry limit (the Laplacian of a radial function at the origin equals
N u''(0), discretized with the ghost value u_{-1} = u_1); the boundary flux
u'(R_ball) uses the one-sided second-order stencil, exact on quadratics.

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
from scipy.sparse import csr_array

from .errors import require_int, require_positive

__all__ = [
    "RadialGrid",
    "SystemState",
    "build_grid",
    "apply_operator",
    "boundary_flux",
    "pair_norm",
    "operator_bands",
    "banded_matvec_extended",
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


def apply_operator(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Rows j = 0..M-1 of -u'' - ((N-1)/r) u' + u on the grid.

    The row at j = M is not produced here; that node is governed by the flux
    boundary condition and is assembled by the solvers.
    """
    u = np.asarray(u, dtype=float)
    M, h, N = grid.M, grid.h, grid.N_dim
    if u.shape != (M + 1,):
        raise ValueError(f"expected {M + 1} nodal values, got shape {u.shape}")
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
    u = np.asarray(u, dtype=float)
    M = grid.M
    if u.shape != (M + 1,):
        raise ValueError(f"expected {M + 1} nodal values, got shape {u.shape}")
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
    """(ab, a_pair): the (l, u) = (2, 1) bands of A, and diag(A, A) on the
    interleaved pair as a longdouble CSR array, both read-only.  Row 2j
    (2j+1) of a_pair is row j of A on columns 2k (2k+1), its entries listed
    in band order (super, diag, sub, sub2), so the compiled matvec adds the
    products of each row in the order of a loop over the bands: the same
    bits for finite x."""
    M, h, N = grid.M, grid.h, grid.N_dim
    ab = np.zeros((4, M + 1))  # rows super, diag, sub, sub2
    ab[1, 0] = 2.0 * N / h**2 + 1.0
    ab[0, 1] = -2.0 * N / h**2
    j = np.arange(1, M)
    rj = grid.r[j]
    ab[1, j] = 2.0 / h**2 + 1.0
    ab[2, j - 1] = -1.0 / h**2 + (N - 1) / (2.0 * h * rj)
    ab[0, j + 1] = -1.0 / h**2 - (N - 1) / (2.0 * h * rj)
    ab[3, M - 2] = 1.0 / (2.0 * h)
    ab[2, M - 1] = -2.0 / h
    ab[1, M] = 3.0 / (2.0 * h)
    col = np.arange(M + 1)[:, None] + 1 - np.arange(4)  # [i, k]: band k in row i
    vals = np.where((col >= 0) & (col <= M), ab[range(4), col.clip(0, M)], 0.0)
    pair = (M + 1, 2, 4)  # [i, c, k]: band k of row i in row 2i + c of a_pair
    keep = np.broadcast_to((vals != 0.0)[:, None], pair)
    idx = np.int32  # CSR indices: half the memory of the default int64
    data = np.broadcast_to(vals[:, None], pair)[keep].astype(np.longdouble)
    cols = (2 * col[:, None] + np.arange(2)[:, None])[keep].astype(idx)
    a_pair = csr_array((data, cols, np.r_[0, keep.sum(axis=2).cumsum(dtype=idx)]),
                       shape=(2 * (M + 1),) * 2)
    for a in (ab, a_pair.data, a_pair.indices, a_pair.indptr):
        a.flags.writeable = False
    return ab, a_pair


def operator_bands(grid: RadialGrid) -> np.ndarray:
    """Banded storage (l, u) = (2, 1) of the single-component system.

    Rows 0..M-1 are apply_operator; the last row is the flux stencil u'(R).
    """
    return _bands(grid)[0]


def _pair_matvec(grid: RadialGrid, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """diag(A, A) @ [u1_0, u2_0, u1_1, u2_1, ...], accumulated in
    longdouble.

    u1 and u2 are written straight into one longdouble buffer, the layout
    that the compiled CSR matvec reads in place; the buffer is freed on
    return, before the caller copies the result."""
    z = np.empty(2 * u1.size, dtype=np.longdouble)
    z[0::2] = u1
    z[1::2] = u2
    return _bands(grid)[1] @ z


def banded_matvec_extended(grid: RadialGrid, x: np.ndarray) -> np.ndarray:
    """A @ x for a 1-d x, accumulated in extended precision.

    The matrix entries stay the double-precision numbers of operator_bands;
    only the products and sums carry extra bits, so this measures the true
    algebraic residual of the double system instead of drowning it in
    cancellation noise at the 1/h^2 row scale.  On platforms where
    longdouble aliases double this degrades gracefully to a plain matvec.
    x takes the first slot of an interleaved pair whose second is zero;
    the rows of that slot never read the other, so the bits are those of
    A alone."""
    return _pair_matvec(grid, x, np.zeros_like(x))[0::2]


@cache_per_object
def _factor(grid: RadialGrid) -> tuple:
    """(lu, piv, v): banded LU of A (LAPACK dgbtrf on the (2, 1) bands) and
    the unit-flux column v = A^-1 e_M, computed once per grid.

    v takes two solves with the factor: the solve itself and one
    iterative-refinement pass with an extended-precision residual, which
    brings the forward error down to working precision per node.  The
    matrix is diagonally dominant on the interior rows, so the
    factorization is stable at any resolution used here.  Raises
    LinAlgError when A is singular; nothing is cached then, so the error
    surfaces again at every solve that needs the factor.
    """
    work = np.zeros((6, grid.M + 1), order="F")  # 2 l + u + 1 rows: LU fill
    work[2:] = operator_bands(grid)
    lu, piv, info = dgbtrf(work, 2, 1, overwrite_ab=True)
    if info != 0:
        raise LinAlgError(f"grid operator is singular (dgbtrf info {info})")
    e = np.zeros(grid.M + 1)
    e[grid.M] = 1.0
    v = dgbtrs(lu, 2, 1, e, piv)[0]
    r = banded_matvec_extended(grid, v)
    r[grid.M] -= 1.0
    v = v - dgbtrs(lu, 2, 1, np.asarray(r, dtype=float), piv)[0]
    for a in (lu, piv, v):
        a.flags.writeable = False
    return lu, piv, v


@cache_per_object
def _unit_trace_extended(grid: RadialGrid) -> np.ndarray:
    """The unit-trace profile v/v(R) in longdouble, read-only, computed
    once per grid.

    Starts from the double v of _factor and makes three more refinement
    passes, each a longdouble residual A w - e_M and a dgbtrs correction
    accumulated in longdouble, then divides by its own last entry, which
    makes that entry exactly 1.  t times it rounds to double once, so the
    rebuilt (t phi_h) keeps t as its trace exactly.  Nothing else reads
    it: the double v, mu_h and phi1 are those of _factor."""
    lu, piv, v = _factor(grid)
    w = v.astype(np.longdouble)
    for _ in range(3):
        r = banded_matvec_extended(grid, w)
        r[grid.M] -= 1
        w -= dgbtrs(lu, 2, 1, r.astype(float), piv)[0]
    phi = w / w[grid.M]
    phi.flags.writeable = False
    return phi


def solve_flux_bvp(grid: RadialGrid, flux: float) -> np.ndarray:
    """Solve -v'' - ((N-1)/r) v' + v = 0 with v'(R) = flux.

    The problem is linear in the one scalar flux, so the solution is flux
    times the unit-flux column that is factored, solved and refined once
    per grid; no banded solve happens here.
    """
    return float(flux) * _factor(grid)[2]


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
