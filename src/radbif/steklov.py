"""First boundary eigenpair of the radial operator and its continuum value.

The discrete problem is A phi = mu B phi where A carries the operator rows
plus the flux row and B selects the boundary value in the flux row.  B has
rank one, so the problem has a single finite eigenvalue, and one solve gives
it in closed form: with v the unit-flux solution (A v = e_M),
A v = (1/v(R)) B v, so mu1 = 1/v(R) and phi1 = v/v(R).

steklov_shooting_oracle returns g'(R)/g(R) for the regular radial solution
of g'' + ((N-1)/r) g' - g = 0, the continuum value used to cross-check the
grid eigenpair: the Bessel ratio I_{N/2}(R)/I_{N/2-1}(R) as Perron's
continued fraction, scaled by max(R, 1) so that no term leaves double
range, and evaluated on Python floats until a convergent moves the value
by a relative 2^-52 at most.  It needs no special-function library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, require_int, require_positive
from .grid import (RadialGrid, _ray, apply_operator, boundary_flux,
                   cache_per_object)

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


@cache_per_object
def steklov_eigenpair(grid: RadialGrid) -> SteklovPair:
    """Smallest mu with a positive solution of the flux eigenvalue problem.

    The unit-flux solution v'(R) = 1 gives the pair: mu1 = 1/v(R) and
    phi1 = v/v(R), which peaks at the boundary.  Computed once per grid and
    shared by every caller, so phi1 is read-only.  Both backward errors
    must be at most 1e-10; they measure 1e-15 or less.
    """
    M = grid.M
    v = _ray(grid)[0]
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
    phi.flags.writeable = False
    return SteklovPair(mu1=float(mu), phi1=phi, residual_interior=res_int,
                       residual_flux=res_flx)


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
