"""The grid's one linear set-up: the first boundary eigenpair of the radial
operator, the ray it spans, and its continuum value.

The discrete problem is A phi = mu B phi where A carries the operator rows
plus the flux row and B selects the boundary value in the flux row.  B has
rank one, so the problem has a single finite eigenvalue, and one solve gives
it in closed form: with v the unit-flux solution (A v = e_M),
A v = (1/v(R)) B v, so mu1 = 1/v(R) and phi1 = v/v(R).  The interior
rows are linear with no source term, so every discrete solution of the
paper's system is (t1 phi1, t2 phi1).  steklov_eigenpair is the grid's
one set-up, cached per grid: beside mu1 and phi1 it holds the
unit-flux column v, the longdouble unit-trace profile and the trace
metric's weight, and solve_flux_bvp is a multiple of its v.  Its solves
need no matrix: the rows below the flux row are a forward recurrence
from the origin, and a solve is reduction of order on its solution
(_kernel_solver), in numpy alone.

steklov_shooting_oracle returns g'(R)/g(R) for the regular radial solution
of g'' + ((N-1)/r) g' - g = 0, the continuum value used to cross-check the
grid eigenpair: the Bessel ratio I_{N/2}(R)/I_{N/2-1}(R) as Perron's
continued fraction, scaled by max(R, 1) so that no term leaves double
range, and evaluated on Python floats until a convergent moves the value
by a relative 2^-52 at most.  It needs no special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require_int, require_positive
from .grid import (RadialGrid, _stencil, apply_operator, boundary_flux,
                   cache_per_object)

__all__ = ["SteklovPair", "steklov_eigenpair", "solve_flux_bvp",
           "steklov_shooting_oracle"]


@dataclass(frozen=True, eq=False)
class SteklovPair:
    """First eigenpair: flux(phi1) = mu1 phi1(R), phi1 > 0, sup phi1 = 1,
    and the grid's ray that every discrete solution lies on.

    residual_interior and residual_flux are backward errors relative to the
    operator row scales (about 1/h^2 and 1/h), the accuracy actually
    representable in floating point at those scales.  v is the unit-flux
    column A^-1 e_M in double, profile the unit-trace profile v/v(R) in
    longdouble (last entry exactly 1), both read-only, and w the float
    weight (phi1.phi1)/(2(M+1)) of the trace metric.
    """

    mu1: float
    phi1: np.ndarray
    residual_interior: float
    residual_flux: float
    v: np.ndarray
    profile: np.ndarray
    w: float


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


@cache_per_object
def steklov_eigenpair(grid: RadialGrid) -> SteklovPair:
    """The grid's one linear set-up: the first eigenpair and the ray.

    The unit-flux solution v'(R) = 1 gives the pair: mu1 = 1/v(R) and
    phi1 = v/v(R), which peaks at the boundary.  v starts as the double
    solve (_kernel_solver) of A v = e_M.  Two refinement passes,
    each subtracting the solve of the residual A v - e_M evaluated by
    grid._stencil in longdouble and accumulated in longdouble, make it
    accurate to longdouble per node.  The pair's v is that column rounded
    to double once, and its profile the column divided by its own last
    entry, which makes that entry exactly 1: t times it rounds to double
    once, so the rebuilt (t phi_h) keeps t as its trace exactly.  w sums
    its squares by math.fsum, correctly rounded, so it does not depend on
    the BLAS build.

    Computed once per grid and shared by every caller, with no solver
    kept, so once a grid is set up nothing can make a solve.  Every
    set-up solve runs under np.errstate; a column out of double range, a
    singular A (_kernel_solver), a nonpositive v(R), a phi1 that is
    not strictly positive and a backward error above 1e-10 (they measure
    1e-15 or less) raise NumericalError.  Nothing is cached then, so the
    error surfaces again at every call that needs the grid.
    """
    M = grid.M
    e = np.zeros(M + 1)
    e[M] = 1.0
    with np.errstate(all="ignore"):  # the solve refuses a column out of range
        solve = _kernel_solver(grid)
        col = solve(e).astype(np.longdouble)[:, None]
        for _ in range(2):
            r = _stencil(grid, col)[:, 0]
            r[M] -= 1
            col[:, 0] -= solve(r.astype(float))
    v, profile = col[:, 0].astype(float), (col / col[M])[:, 0]
    if not v[M] > 0.0:
        raise NumericalError("unit-flux solution has a nonpositive boundary value")
    mu = 1.0 / v[M]
    phi = v / v[M]
    if phi.min() <= 0.0:
        raise NumericalError("computed eigenfunction is not strictly positive")
    h = grid.h
    res_int = float(np.abs(apply_operator(grid, phi)).max()) / (2.0 / h**2 + 1.0)
    res_flx = abs(boundary_flux(grid, phi) - mu * phi[M]) / (3.0 / (2.0 * h))
    if max(res_int, res_flx) > 1e-10:
        raise NumericalError(
            f"eigen-residual too large: interior {res_int:.3g}, flux {res_flx:.3g}")
    for a in (v, profile, phi):
        a.flags.writeable = False
    return SteklovPair(mu1=float(mu), phi1=phi, residual_interior=res_int,
                       residual_flux=res_flx, v=v, profile=profile,
                       w=math.fsum((phi * phi).tolist()) / (2 * (M + 1)))


def solve_flux_bvp(grid: RadialGrid, flux: float) -> np.ndarray:
    """Solve -v'' - ((N-1)/r) v' + v = 0 with v'(R) = flux.

    The problem is linear in the one scalar flux, so the solution is flux
    times the grid's unit-flux column (SteklovPair.v); no solve happens
    here.
    """
    return float(flux) * steklov_eigenpair(grid).v


def steklov_shooting_oracle(N_dim: int, R_ball: float) -> float:
    """Continuum mu1 = I_{N/2}(R) / I_{N/2-1}(R), for every integer N >= 3
    and 0 < R < inf (ConfigError otherwise).

    The regular solution is g = r^(1-N/2) I_{N/2-1}(r), and DLMF 10.29.4
    gives g' = r^(1-N/2) I_{N/2}(r); for N = 3 the ratio is coth R - 1/R.
    With nu = N/2 the ratio is Perron's continued fraction (Gautschi and
    Slavik, Math. Comp. 32 (1978))

        R / (b_0 + a_1/(b_1 + a_2/(b_2 + ...))),
        b_0 = 2 nu + R,  a_k = -(2 nu + 2k - 1) R,  b_k = 2 nu + k + 2R.

    With s = max(R, 1), R and every b_k are divided by s and every a_k by
    s^2, an equivalence transformation after which no term leaves double
    range at any R.  The fraction is evaluated forward by the modified
    Lentz method, without its guard against a zero denominator: none
    measured fell below 3/s.  It stops at the first convergent
    whose ratio to the one before is within 2^-52 (one ulp of 1) of 1:
    after at most 43 terms for N <= 130 and about 20 up to N = 10^300,
    fewer towards either end of the range of R.  A subnormal R gives R/N
    rounded once.
    """
    N = require_int(N_dim, "spatial dimension", 3)
    R = require_positive(R_ball, "ball radius")
    s = max(R, 1.0)
    r, t = R / s, R / s / s
    f = c = N / s + r
    d, k, step = 0.0, 0, 0.0
    while abs(step - 1.0) > 2.0 ** -52:
        k += 1
        a = -(N + 2 * k - 1) * t
        b = (N + k) / s + 2.0 * r
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = c * d
        f *= step
    return r / f
