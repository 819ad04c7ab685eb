"""Scalar bifurcation analytics: bifurcation point, Jordan data of the
linearization, tail exponents, direction of bifurcation, small-amplitude
slope (predicted and fitted), rescaling verification, and the nonexistence
bound.

Everything here is closed-form arithmetic on model constants plus small
least-squares fits on branch data; no PDE solves happen in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

import numpy as np

from .continuation import Branch
from .errors import ConfigError, InsufficientDataError, NumericalError
from .grid import RadialGrid
from .model import NonlinearityModel, r0_bounds, zeta
from .steklov import SteklovPair, steklov_eigenpair

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
    theta1: float
    theta2: float
    K_bound: float
    direction: Direction
    slope_predicted: Union[float, tuple]
    slope_fitted: Optional[float]
    r0_under: float
    r0_over: float


def bifurcation_point(model: NonlinearityModel, mu1: float) -> float:
    """mu0 = mu1 / sqrt(f1'(0) f2'(0)), where the trivial branch loses
    stability."""
    if model.fp0_1 <= 0 or model.fp0_2 <= 0:
        raise ConfigError("derivatives at zero must be positive, got "
                          f"({model.fp0_1}, {model.fp0_2})")
    if mu1 <= 0:
        raise ConfigError(f"first eigenvalue must be positive, got {mu1}")
    return mu1 / math.sqrt(model.fp0_1 * model.fp0_2)


def jordan_data(model: NonlinearityModel) -> JordanData:
    """Diagonalization A = P J P^{-1} of the coupling matrix
    A = [[0, f1'(0)], [f2'(0), 0]].

    J = diag(sigma, -sigma), P columns (1, zeta)/(1+zeta) and
    (1, -zeta)/(1+zeta); the inverse is closed-form, so the reconstruction
    identity holds to a few ulps and is asserted at 1e-12.
    """
    if model.fp0_1 <= 0 or model.fp0_2 <= 0:
        raise ConfigError("derivatives at zero must be positive, got "
                          f"({model.fp0_1}, {model.fp0_2})")
    sig = math.sqrt(model.fp0_1 * model.fp0_2)
    z = zeta(model)
    q = 1.0 / (1.0 + z)
    A = np.array([[0.0, model.fp0_1], [model.fp0_2, 0.0]])
    P = np.array([[q, q], [z * q, -z * q]])
    Pinv = np.array([[(1.0 + z) / 2.0, (1.0 + z) / (2.0 * z)],
                     [(1.0 + z) / 2.0, -(1.0 + z) / (2.0 * z)]])
    J = np.diag([sig, -sig])
    err = float(np.abs(P @ J @ Pinv - A).max())
    if err > 1e-12 * max(1.0, float(np.abs(A).max())):
        raise NumericalError(f"Jordan reconstruction off by {err:.3e}")
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
    as the norm vanishes: (mu0/sigma) * R0 * phi1(R)^(nu-1).

    On a ball with the sup-normalized radial eigenfunction the surface
    integral ratio collapses to phi1(R)^(nu-1) = 1.  When the combined
    remainder bounds differ beyond 1e-12 the (lower, upper) endpoints are
    returned instead of a single value.
    """
    lo, hi = r0_bounds(model)
    sig = math.sqrt(model.fp0_1 * model.fp0_2)
    mu0 = steklov_pair.mu1 / sig
    phi_r = float(steklov_pair.phi1[-1]) ** (model.nu - 1.0)
    lo_val = (mu0 / sig) * lo * phi_r
    hi_val = (mu0 / sig) * hi * phi_r
    if abs(hi_val - lo_val) <= 1e-12 * max(1.0, abs(hi_val), abs(lo_val)):
        return 0.5 * (lo_val + hi_val)
    return (lo_val, hi_val)


def slope_fit(branch: Branch, mu0: float, nu: float) -> float:
    """Extrapolated value of (mu0 - lam)/pair_norm^(nu-1) at vanishing norm.

    Ordinary least squares of the quotient against pair_norm over branch
    points with 0 < norm < 0.1; the intercept is returned.  Fewer than five
    such points raise InsufficientDataError.
    """
    norms, quots = [], []
    for p in branch.points:
        if 0.0 < p.norm < 0.1:
            norms.append(p.norm)
            quots.append((mu0 - p.lam) / p.norm ** (nu - 1.0))
    if len(norms) < 5:
        raise InsufficientDataError(
            f"need at least 5 branch points with pair_norm in (0, 0.1), "
            f"found {len(norms)}")
    return float(np.polyfit(np.array(norms), np.array(quots), 1)[1])


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


def rescale_check(branch: Branch, theta: tuple[float, float],
                  limit_solution) -> RescaleTable:
    """Score the branch tail against the limiting problem.

    Keeps points with lam <= 1e-2, computes both rescaled-sup ratios, and
    requires the deviation from 1 to improve monotonically over the last
    decade and to end within 2%.  Needs at least 3 tail rows.
    """
    th1, th2 = theta
    w1_sup = float(np.abs(limit_solution.u1).max())
    w2_sup = float(np.abs(limit_solution.u2).max())
    if w1_sup <= 0 or w2_sup <= 0:
        raise ConfigError("limit solution must be nontrivial in both components")
    rows = []
    for p in branch.points:
        if 0.0 < p.lam <= RESCALE_LAMBDA_MAX:
            r1 = p.lam ** th1 * float(np.abs(p.state.u1).max()) / w1_sup
            r2 = p.lam ** th2 * float(np.abs(p.state.u2).max()) / w2_sup
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
    if model.K <= 0:
        raise ConfigError(f"growth constant K must be positive, got {model.K}")
    if mu1 <= 0:
        raise ConfigError(f"first eigenvalue must be positive, got {mu1}")
    return mu1 / model.K


def build_report(grid: RadialGrid, model: NonlinearityModel,
                 branch: Branch | None = None) -> BifurcationReport:
    """Assemble the full scalar report; fits the slope when a branch with
    enough small-norm points is supplied, otherwise leaves it None."""
    eig = steklov_eigenpair(grid)
    jd = jordan_data(model)
    mu0 = bifurcation_point(model, eig.mu1)
    th1, th2 = theta_exponents(model)
    lo, hi = r0_bounds(model)
    fitted = None
    if branch is not None:
        try:
            fitted = slope_fit(branch, mu0, model.nu)
        except InsufficientDataError:
            fitted = None
    return BifurcationReport(
        mu1=eig.mu1, sigma=jd.sigma, zeta=jd.zeta, mu0=mu0,
        theta1=th1, theta2=th2,
        K_bound=nonexistence_bound(model, eig.mu1),
        direction=direction_of_bifurcation(model),
        slope_predicted=slope_prediction(model, eig),
        slope_fitted=fitted, r0_under=lo, r0_over=hi)
