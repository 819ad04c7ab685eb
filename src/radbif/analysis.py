"""Scalar bifurcation analytics: bifurcation point, Jordan data of the
linearization, tail exponents, direction of bifurcation, small-amplitude
slope (predicted and fitted), rescaling verification, and the nonexistence
bound.

Everything here is closed-form arithmetic on model constants, the grid's
cached Steklov pair and the closed-form limit solution, plus small
least-squares fits on branch data; no PDE solves happen in this module.
A branch carries its grid and model, and the functions that take one read
the problem from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, InsufficientDataError, require_positive
from .grid import RadialGrid
from .model import NonlinearityModel, _slopes_at_zero, r0_bounds
from .solver import solve_limit_problem
from .steklov import SteklovPair, steklov_eigenpair

if TYPE_CHECKING:  # continuation imports bifurcation_point from here
    from .continuation import Branch

__all__ = [
    "Direction",
    "JordanData",
    "BifurcationReport",
    "RescaleTable",
    "bifurcation_point",
    "jordan_data",
    "theta_exponents",
    "direction_of_bifurcation",
    "slope_prediction",
    "slope_fit",
    "rescale_check",
    "nonexistence_bound",
    "build_report",
]

# Tail cutoff for the rescaling table; the asymptotic regime only.
RESCALE_LAMBDA_MAX = 1e-2


class Direction(Enum):
    LEFT = "Left"
    RIGHT = "Right"
    INDETERMINATE = "Indeterminate"


class JordanData(NamedTuple):
    sigma: float
    zeta: float
    A: np.ndarray
    P: np.ndarray
    Pinv: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class BifurcationReport:
    """All scalar analytics for one model on one grid."""

    mu1: float
    sigma: float
    zeta: float
    mu0: float
    theta1: Optional[float]  # None when p1 p2 <= 1: no blow-up tail
    theta2: Optional[float]
    K_bound: float
    direction: Direction
    slope_predicted: Union[float, tuple]
    r0_under: float
    r0_over: float


def _sigma(model: NonlinearityModel) -> float:
    """sigma = sqrt(f1'(0) f2'(0)), the eigenvalue of the coupling matrix."""
    a, b = _slopes_at_zero(model)
    return math.sqrt(a * b)


def bifurcation_point(model: NonlinearityModel, mu1: float) -> float:
    """mu0 = mu1 / sigma, where the trivial branch loses stability."""
    sig = _sigma(model)
    return require_positive(mu1, "first eigenvalue") / sig


def jordan_data(model: NonlinearityModel) -> JordanData:
    """Diagonalization A = P J P^{-1} of the coupling matrix
    A = [[0, f1'(0)], [f2'(0), 0]]: _jordan of the model's slopes."""
    return _jordan(*_slopes_at_zero(model))


def _jordan(a: float, b: float) -> JordanData:
    """The closed form of jordan_data for the positive slopes a = f1'(0),
    b = f2'(0).

    J = diag(sigma, -sigma), P columns (1, zeta)/(1+zeta) and
    (1, -zeta)/(1+zeta); the inverse is closed-form, so the reconstruction
    identity P J P^{-1} = A holds to a few ulps (measured by verify's
    jordan-identity check, not here).  sigma and zeta are _sigma's and
    zeta's formulas.
    """
    sig, z = math.sqrt(a * b), math.sqrt(b / a)
    q = 1.0 / (1.0 + z)
    A = np.array([[0.0, a], [b, 0.0]])
    P = np.array([[q, q], [z * q, -z * q]])
    Pinv = np.array([[(1.0 + z) / 2.0, (1.0 + z) / (2.0 * z)],
                     [(1.0 + z) / 2.0, -(1.0 + z) / (2.0 * z)]])
    J = np.diag([sig, -sig])
    return JordanData(sigma=sig, zeta=z, A=A, P=P, Pinv=Pinv, J=J)


def theta_exponents(model: NonlinearityModel) -> tuple[float, float]:
    """Tail exponents theta1 = (p2+1)/(p1 p2 - 1), theta2 = (p1+1)/(p1 p2 - 1).

    They solve 1 + theta2 = theta1 p1 and 1 + theta1 = theta2 p2, the
    balance conditions of the rescaling w_i = lam^{theta_i} u_i.
    """
    denom = model.p1 * model.p2 - 1.0
    if denom <= 0:
        raise ConfigError(
            f"need p1*p2 > 1 for the tail exponents, got p1*p2 = {denom + 1.0}")
    return (model.p2 + 1.0) / denom, (model.p1 + 1.0) / denom


def direction_of_bifurcation(model: NonlinearityModel) -> Direction:
    """Sign of the combined remainder bounds: positive lower bound means the
    branch leaves to the left, negative upper bound to the right, straddling
    bounds are Indeterminate (a first-class outcome, not an error)."""
    lo, hi = r0_bounds(model)
    if lo > 0.0:
        return Direction.LEFT
    if hi < 0.0:
        return Direction.RIGHT
    return Direction.INDETERMINATE


def slope_prediction(model: NonlinearityModel, steklov_pair: SteklovPair):
    """Predicted limit of (mu0 - lam) / pair_norm^(nu-1) along the branch
    as the norm vanishes: (mu0/sigma) * R0.

    The general formula carries the surface integral ratio
    phi1(R)^(nu-1); on a ball the sup-normalized radial eigenfunction has
    phi1(R) = 1 exactly, so the factor is 1.  When the combined remainder
    bounds differ beyond 1e-12 the (lower, upper) endpoints are returned
    instead of a single value.
    """
    sig = _sigma(model)
    mu0 = bifurcation_point(model, steklov_pair.mu1)
    lo, hi = r0_bounds(model)
    lo_val = (mu0 / sig) * lo
    hi_val = (mu0 / sig) * hi
    if abs(hi_val - lo_val) <= 1e-12 * max(1.0, abs(hi_val), abs(lo_val)):
        return 0.5 * (lo_val + hi_val)
    return (lo_val, hi_val)


def slope_fit(branch: Branch) -> float:
    """Extrapolated value of (mu0 - lam)/pair_norm^(nu-1) at vanishing norm,
    with mu0 on the branch's grid and nu of its model.

    Ordinary least squares of the quotient against pair_norm over branch
    points with 0 < norm < 0.1; the intercept is returned.  Fewer than five
    such points, or norms that do not vary, raise InsufficientDataError.

    The line is the closed form on Python floats, each sum a math.fsum:
    slope = sum(dx (y - ybar)) / sum(dx^2) with dx = x - xbar, intercept
    ybar - slope xbar.  No LAPACK least-squares solve is made.
    """
    mu0 = bifurcation_point(branch.model, steklov_eigenpair(branch.grid).mu1)
    nu = branch.model.nu
    norms, quots = [], []
    for p in branch.points:
        if 0.0 < p.norm < 0.1:
            norms.append(p.norm)
            quots.append((mu0 - p.lam) / p.norm ** (nu - 1.0))
    if len(norms) < 5:
        raise InsufficientDataError(
            f"need at least 5 branch points with pair_norm in (0, 0.1), "
            f"found {len(norms)}")
    n = len(norms)
    x_bar, y_bar = math.fsum(norms) / n, math.fsum(quots) / n
    dx = [x - x_bar for x in norms]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise InsufficientDataError(
            f"the {n} branch points with pair_norm in (0, 0.1) "
            f"share one norm, {norms[0]!r}: no line to fit")
    slope = math.fsum(d * (y - y_bar) for d, y in zip(dx, quots)) / sxx
    return y_bar - slope * x_bar


@dataclass(frozen=True)
class RescaleTable:
    """Tail convergence table: rows (lam, ratio1, ratio2) with
    ratio_i = lam^theta_i sup|u_i| / sup|w_i*|, ordered by decreasing lam.

    monotone: deviations |ratio - 1| nonincreasing within the last decade;
    final_dev: worst deviation at the smallest lam; ok: both criteria.
    """

    rows: tuple
    monotone: bool
    final_dev: float
    ok: bool


def rescale_check(branch: Branch) -> RescaleTable:
    """Score the branch tail against the limiting problem of its model on
    its grid (solve_limit_problem), with theta from theta_exponents.

    Keeps points with lam <= 1e-2, computes both rescaled-sup ratios (a
    point's sups are its traces t1, t2), and
    requires the deviation from 1 to improve monotonically over the last
    decade and to end within 2%.  Needs at least 3 tail rows.
    """
    limit, _ = solve_limit_problem(branch.grid, branch.model)
    th1, th2 = theta_exponents(branch.model)
    w1_sup = float(np.abs(limit.u1).max())
    w2_sup = float(np.abs(limit.u2).max())
    rows = []
    for p in branch.points:
        if 0.0 < p.lam <= RESCALE_LAMBDA_MAX:
            r1 = p.lam ** th1 * p.t1 / w1_sup
            r2 = p.lam ** th2 * p.t2 / w2_sup
            rows.append((p.lam, r1, r2))
    rows.sort(key=lambda r: -r[0])
    if len(rows) < 3:
        raise InsufficientDataError(
            f"need at least 3 branch points with lam <= {RESCALE_LAMBDA_MAX:g}, "
            f"found {len(rows)}")
    lam_min = rows[-1][0]
    decade = [r for r in rows if r[0] <= 10.0 * lam_min]
    devs = [max(abs(r[1] - 1.0), abs(r[2] - 1.0)) for r in decade]
    monotone = all(b <= a + 1e-4 for a, b in zip(devs[:-1], devs[1:]))
    final_dev = devs[-1]
    return RescaleTable(rows=tuple(rows), monotone=monotone,
                        final_dev=final_dev, ok=monotone and final_dev <= 0.02)


def nonexistence_bound(model: NonlinearityModel, mu1: float) -> float:
    """mu1/K; no positive solution exists for parameters beyond it."""
    return require_positive(mu1, "first eigenvalue") / model.K


def build_report(grid: RadialGrid, model: NonlinearityModel) -> BifurcationReport:
    """Assemble the full scalar report of model on grid; it traces no
    branch, and slope_fit(branch) is the fitted slope beside it.  The
    tail exponents are None when p1 p2 <= 1, where theta_exponents is
    undefined and the branch has no blow-up tail."""
    eig = steklov_eigenpair(grid)
    jd = jordan_data(model)
    mu0 = bifurcation_point(model, eig.mu1)
    th1, th2 = (theta_exponents(model) if model.p1 * model.p2 > 1.0
                else (None, None))
    lo, hi = r0_bounds(model)
    return BifurcationReport(
        mu1=eig.mu1, sigma=jd.sigma, zeta=jd.zeta, mu0=mu0,
        theta1=th1, theta2=th2,
        K_bound=nonexistence_bound(model, eig.mu1),
        direction=direction_of_bifurcation(model),
        slope_predicted=slope_prediction(model, eig),
        r0_under=lo, r0_over=hi)
