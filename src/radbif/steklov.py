"""First boundary eigenpair of the radial operator and a shooting oracle.

The discrete problem is A phi = mu B phi where A carries the operator rows
plus the flux row and B selects the boundary value in the flux row.  B has
rank one, so the problem has a single finite eigenvalue, and one solve gives
it in closed form: with v the unit-flux solution (A v = e_M),
A v = (1/v(R)) B v, so mu1 = 1/v(R) and phi1 = v/v(R).

steklov_shooting_oracle integrates the regular radial solution of
g'' + ((N-1)/r) g' - g = 0 with adaptive fourth-order steps (series start
near r = 0 to sidestep the singular coefficient) and returns g'(R)/g(R),
an independent high-precision value used to cross-check the grid eigenpair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import RadialGrid, apply_operator, boundary_flux, solve_flux_bvp

__all__ = ["SteklovPair", "steklov_eigenpair", "steklov_shooting_oracle"]


@dataclass(frozen=True, eq=False)
class SteklovPair:
    """First eigenpair: flux(phi1) = mu1 phi1(R), phi1 > 0, sup phi1 = 1.

    residual_interior and residual_flux are backward errors relative to the
    operator row scales (about 1/h^2 and 1/h), the accuracy actually
    representable in floating point at those scales.
    """

    mu1: float
    phi1: np.ndarray
    residual_interior: float
    residual_flux: float


def steklov_eigenpair(grid: RadialGrid, tol: float = 1e-10) -> SteklovPair:
    """Smallest mu with a positive solution of the flux eigenvalue problem.

    One banded solve of the unit-flux problem v'(R) = 1 gives the pair:
    mu1 = 1/v(R) and phi1 = v/v(R), which peaks at the boundary.  tol
    bounds the backward errors checked on the result.
    """
    if not 0 < tol <= 1e-4:
        raise ConfigError(f"eigenvalue tolerance must lie in (0, 1e-4], got {tol}")
    M = grid.M
    v = solve_flux_bvp(grid, 1.0)
    if not v[M] > 0.0:
        raise NumericalError("unit-flux solution has a nonpositive boundary value")
    mu = 1.0 / v[M]
    phi = v / v[M]
    if phi.min() <= 0.0:
        raise NumericalError("computed eigenfunction is not strictly positive")
    h = grid.h
    res_int = float(np.abs(apply_operator(grid, phi)).max()) / (2.0 / h**2 + 1.0)
    res_flx = abs(boundary_flux(grid, phi) - mu * phi[M]) / (3.0 / (2.0 * h))
    if res_int > tol or res_flx > tol:
        raise NumericalError(
            f"eigen-residual too large: interior {res_int:.3g}, flux {res_flx:.3g}")
    return SteklovPair(mu1=float(mu), phi1=phi, residual_interior=res_int,
                       residual_flux=res_flx)


def _series_start(N: int, r0: float):
    # g = sum a_k r^(2k) with a_{k+1} = a_k / ((2k+2)(2k+N)), a_0 = 1
    a, g, dg = 1.0, 0.0, 0.0
    for k in range(8):
        g += a * r0 ** (2 * k)
        if k > 0:
            dg += a * (2 * k) * r0 ** (2 * k - 1)
        a /= (2 * k + 2) * (2 * k + N)
    return g, dg


def steklov_shooting_oracle(N_dim: int, R_ball: float, tol: float = 1e-10) -> float:
    """High-precision mu1 from adaptive integration of the radial kernel.

    Fourth-order steps with step doubling; the local solutions are combined
    by Richardson extrapolation, so the accepted step is fifth order.
    Returns g'(R)/g(R) with relative error of the order of tol.
    """
    if N_dim < 3:
        raise ConfigError(f"spatial dimension must be >= 3, got {N_dim}")
    if R_ball <= 0:
        raise ConfigError(f"ball radius must be positive, got {R_ball}")
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    r0 = min(1e-3, 0.01 * R_ball)
    g, dg = _series_start(N_dim, r0)
    y = np.array([g, dg])

    def rhs(r, y):
        return np.array([y[1], y[0] - (N_dim - 1) / r * y[1]])

    def rk4(r, y, h):
        k1 = rhs(r, y)
        k2 = rhs(r + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(r + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    r = r0
    span = R_ball - r0
    h = span / 64.0
    steps = 0
    while r < R_ball:
        h = min(h, R_ball - r)
        y_one = rk4(r, y, h)
        y_mid = rk4(r, y, 0.5 * h)
        y_two = rk4(r + 0.5 * h, y_mid, 0.5 * h)
        err = float(np.abs(y_two - y_one).max()) / 15.0
        scale = max(1.0, float(np.abs(y_two).max()))
        budget = tol * scale * max(h / span, 1e-3)
        if err <= budget:
            y = y_two + (y_two - y_one) / 15.0
            r += h
        grow = 0.9 * (budget / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, grow))
        steps += 1
        if steps > 200_000:
            raise NumericalError("step control failed to reach the boundary")
    return float(y[1] / y[0])
