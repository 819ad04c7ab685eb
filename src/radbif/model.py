"""Nonlinearity pairs and the scalar data attached to them.

A model bundles two scalar functions f1, f2 on [0, inf) together with the
constants that the bifurcation analysis reads off them: growth exponents and
coefficients at infinity (f2(s)/s^p1 -> b1, f1(s)/s^p2 -> b2), remainder
exponents nu1, nu2 for R_i(s) = f_i(s) - f_i'(0) s and the limits of
R_i(s)/s^nu, and a linear-minorant constant K with f_i(s) >= K s.  The
slope at zero is no separate constant: f_i'(0) is df_i(0).
Models are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, require_positive
from .grid import cache_per_object

__all__ = [
    "NonlinearityModel",
    "CheckResult",
    "reference_model",
    "quadratic_model",
    "linear_model",
    "polynomial_model",
    "eval_f",
    "f_extended",
    "fprime_extended",
    "r0_bounds",
    "zeta",
    "monotone_check",
    "validate_hypotheses",
]


@dataclass(frozen=True, eq=False)
class NonlinearityModel:
    """Two boundary nonlinearities and their derived scalar parameters.

    Fields
    ------
    f1, f2 : callables on [0, inf), vanishing at 0, with evaluable derivatives
        df1, df2.  f_i'(0) is df_i(0), which must be finite; every use of
        the slope at zero (mu0, zeta, the linear extension below 0) reads it
        there.
    p1, p2 : growth exponents at infinity (f2 ~ b1 s^p1, f1 ~ b2 s^p2).
    b1, b2 : positive asymptotic coefficients.
    nu1, nu2 : remainder exponents (> 1); nu = min(nu1, nu2).
    K : linear-minorant constant, f_i(s) >= K s for all s >= 0.
    r_lims : (R1_lo, R1_hi, R2_lo, R2_hi), the liminf and limsup of
        R_i(s)/s^nu as s -> 0+.  Optional, but r0_bounds and everything
        built on it refuse a model that leaves it unset.
    """

    f1: Callable[[float], float]
    f2: Callable[[float], float]
    df1: Callable[[float], float]
    df2: Callable[[float], float]
    p1: float
    p2: float
    b1: float
    b2: float
    nu1: float
    nu2: float
    K: float
    r_lims: Optional[tuple[float, float, float, float]] = None
    name: str = "custom"

    def __post_init__(self):
        for key in ("p1", "p2", "b1", "b2", "nu1", "nu2", "K"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.nu1 <= 1 or self.nu2 <= 1:
            raise ConfigError("remainder exponents nu1, nu2 must exceed 1")
        if self.K <= 0:
            raise ConfigError("linear-minorant constant K must be positive")
        if self.p1 <= 0 or self.p2 <= 0:
            raise ConfigError("growth exponents p1, p2 must be positive")
        if self.b1 < 0 or self.b2 < 0:
            raise ConfigError("asymptotic coefficients b1, b2 must be nonnegative")
        for f, df, tag in ((self.f1, self.df1, "f1"), (self.f2, self.df2, "f2")):
            if not abs(float(f(0.0))) <= 1e-12:  # NaN fails too
                raise ConfigError(f"{tag}(0) must vanish")
            if not math.isfinite(float(df(0.0))):
                raise ConfigError(f"{tag}'(0) = d{tag}(0) must be finite, "
                                  f"got {float(df(0.0))!r}")
        lims = self.r_lims
        if lims is not None and not (
                isinstance(lims, Sequence) and len(lims) == 4
                and all(isinstance(v, numbers.Real) and math.isfinite(v)
                        for v in lims)
                and lims[0] <= lims[1] and lims[2] <= lims[3]):
            raise ConfigError(
                "r_lims must be 4 finite real numbers (R1_lo, R1_hi, R2_lo, "
                f"R2_hi) with lo <= hi, got {lims!r}")

    @property
    def nu(self) -> float:
        return min(self.nu1, self.nu2)


def _as_pair(model: NonlinearityModel, i: int):
    if i == 1:
        return model.f1, model.df1
    if i == 2:
        return model.f2, model.df2
    raise ValueError(f"component index must be 1 or 2, got {i}")


def eval_f(model: NonlinearityModel, i: int, s: float) -> float:
    """Evaluate f_i(s) for s >= 0; negative arguments are a domain error."""
    if s < 0:
        raise ValueError(f"f{i} is only defined for s >= 0, got {s}")
    f, _ = _as_pair(model, i)
    return float(f(s))


def f_extended(model: NonlinearityModel, i: int, s: float) -> float:
    """f_i extended linearly below zero (f_i(s) = f_i'(0) s for s < 0, with
    f_i'(0) = df_i(0)).

    Used inside Newton solvers so intermediate iterates with small negative
    excursions stay evaluable; converged positive solutions never hit it.
    The extension is C1 because R_i'(0) = 0 under nu_i > 1.
    """
    f, df = _as_pair(model, i)
    return float(f(s)) if s >= 0 else float(df(0.0)) * float(s)


def fprime_extended(model: NonlinearityModel, i: int, s: float) -> float:
    """Derivative of the linear extension (constant f_i'(0) below 0)."""
    _, df = _as_pair(model, i)
    return float(df(s if s >= 0 else 0.0))


def _slopes_at_zero(model: NonlinearityModel) -> tuple[float, float]:
    """(f1'(0), f2'(0)); ConfigError unless both are positive."""
    a, b = fprime_extended(model, 1, 0.0), fprime_extended(model, 2, 0.0)
    if a <= 0 or b <= 0:
        raise ConfigError(f"derivatives at zero must be positive, got ({a}, {b})")
    return a, b


def zeta(model: NonlinearityModel) -> float:
    """zeta = sqrt(f2'(0) / f1'(0)), the component ratio of the kernel pair."""
    a, b = _slopes_at_zero(model)
    return math.sqrt(b / a)


def r0_bounds(model: NonlinearityModel) -> tuple[float, float]:
    """Combined remainder bounds (R0_lo, R0_hi).

    R0_hi = 1/2 (z/(1+z))^(nu-1) R1_hi + 1/2 (1/(1+z))^(nu-1) R2_hi with
    z = zeta(model); R0_lo analogously from the lower limits.  The weights
    are positive, so lo pairs with lo and hi with hi.  The limits are the
    model's r_lims; a model without them is a ConfigError.
    """
    if model.r_lims is None:
        raise ConfigError(f"model {model.name!r} states no remainder limits "
                          "r_lims, which the remainder bounds need")
    lo1, hi1, lo2, hi2 = model.r_lims
    z = zeta(model)
    e = model.nu - 1.0
    w1 = 0.5 * (z / (1.0 + z)) ** e
    w2 = 0.5 * (1.0 / (1.0 + z)) ** e
    return w1 * lo1 + w2 * lo2, w1 * hi1 + w2 * hi2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Sample points of the hypothesis checks on small and moderate arguments.
_SAMPLES = np.geomspace(1e-8, 1e3, 56)


@cache_per_object
def monotone_check(model: NonlinearityModel) -> CheckResult:
    """The "monotone" entry of validate_hypotheses, sampled once per model
    object (models are frozen and hash by identity) and kept while it
    lives."""
    d1 = np.array([float(model.df1(float(s))) for s in _SAMPLES])
    d2 = np.array([float(model.df2(float(s))) for s in _SAMPLES])
    dmin = min(float(d1.min()), float(d2.min()))
    return CheckResult(
        "monotone", dmin >= -1e-12, f"min sampled f_i'(s) = {dmin:.3g}")


def validate_hypotheses(model: NonlinearityModel,
                        N_dim: int) -> tuple[CheckResult, ...]:
    """Sampled pass/fail result for every structural hypothesis, one
    CheckResult each.

    Checks nonnegativity, positive derivatives at zero, the linear minorant
    f_i >= K s, the exponent window p_i in (1, N/(N-2)] with at most one
    critical exponent, monotonicity of f_i (needed by the multiplicity
    machinery), and the empirical growth f2/s^p1 -> b1, f1/s^p2 -> b2 on s
    in [1e2, 1e6].  f_i(0) = 0 is no entry: the model
    refuses |f_i(0)| > 1e-12 when it is built.  Never raises; callers
    decide.
    """
    checks = []

    def sample(f):
        return np.array([float(f(float(s))) for s in _SAMPLES])

    v1, v2 = sample(model.f1), sample(model.f2)
    checks.append(CheckResult(
        "nonneg", bool((v1 >= 0).all() and (v2 >= 0).all()),
        f"min f1={v1.min():.3g}, min f2={v2.min():.3g} on s in [1e-8, 1e3]"))
    d1, d2 = fprime_extended(model, 1, 0.0), fprime_extended(model, 2, 0.0)
    checks.append(CheckResult(
        "positive-derivative-at-zero", d1 > 0 and d2 > 0,
        f"f1'(0)={d1:.6g}, f2'(0)={d2:.6g}"))
    ks = _SAMPLES * model.K
    margin = min(float((v1 - ks).min()), float((v2 - ks).min()))
    checks.append(CheckResult(
        "linear-minorant", margin >= -1e-12,
        f"min(f_i(s) - K s) = {margin:.3g} with K={model.K:.6g}"))
    crit = N_dim / (N_dim - 2)
    in_window = 1 < model.p1 <= crit + 1e-12 and 1 < model.p2 <= crit + 1e-12
    checks.append(CheckResult(
        "exponent-range", bool(in_window),
        f"p1={model.p1:.6g}, p2={model.p2:.6g}, window (1, {crit:.6g}]"))
    n_crit = sum(abs(p - crit) <= 1e-12 for p in (model.p1, model.p2))
    checks.append(CheckResult(
        "not-both-critical", n_crit < 2,
        f"{n_crit} exponent(s) at the critical value {crit:.6g}"))
    checks.append(monotone_check(model))
    big = np.geomspace(1e2, 1e6, 9)
    try:
        g2 = np.array([float(model.f2(float(s))) / float(s) ** model.p1 for s in big])
        g1 = np.array([float(model.f1(float(s))) / float(s) ** model.p2 for s in big])
        ok = (model.b1 > 0 and model.b2 > 0
              and abs(g2[-1] / model.b1 - 1) <= 1e-3
              and abs(g1[-1] / model.b2 - 1) <= 1e-3
              and abs(g2[-1] - model.b1) <= abs(g2[0] - model.b1) + 1e-12
              and abs(g1[-1] - model.b2) <= abs(g1[0] - model.b2) + 1e-12)
        detail = (f"f2/s^p1 -> {g2[-1]:.6g} (b1={model.b1:.6g}), "
                  f"f1/s^p2 -> {g1[-1]:.6g} (b2={model.b2:.6g})")
    except (OverflowError, FloatingPointError, ZeroDivisionError) as exc:
        ok, detail = False, f"growth sampling failed: {exc}"
    checks.append(CheckResult("growth-coefficient", bool(ok), detail))
    return tuple(checks)


def _horner(coeffs) -> Callable[[float], float]:
    """sum_k coeffs[k] s^k by Horner in numpy polyval's operation order
    (its leading + s*0 included): the same bits at a fraction of the cost."""
    top, *rest = [float(a) for a in reversed(coeffs)]

    def f(s):
        y = top + s * 0
        for a in rest:
            y = a + y * s
        return y
    return f


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative, k c_k, the products numpy's polyder
    forms."""
    return c[1:] * np.arange(1, c.size)


def _structure(c: np.ndarray, tag: str):
    """(c trimmed of trailing zeros, degree, leading coefficient, lowest
    power >= 2 or None, inf_{s>=0} f(s)/s) of f(s) = sum_k c_k s^k."""
    c = c[:np.flatnonzero(c)[-1] + 1]
    if c.size > 2 and c[-1] < 0:
        raise ConfigError(f"{tag}: leading coefficient must be positive, got {c[-1]}")
    powers = np.flatnonzero(c[2:]) + 2
    # g = f(s)/s is constant or grows without bound, so its infimum on
    # s >= 0 is at 0 or at a critical point.  g(s) bounds that infimum from
    # above at every s >= 0, so the real part of every root is a safe
    # candidate, and a true minimiser whose root carries a rounding-level
    # imaginary part is never dropped.
    roots = (np.polynomial.polynomial.polyroots(_derivative(c[1:]))
             if c.size > 3 else np.empty(0))
    k = float(_horner(c[1:])(np.append(0.0, roots.real[roots.real > 0])).min())
    if not k > 0:
        raise ConfigError(f"{tag}: f(s)/s falls to {k:.6g} on s >= 0, so no "
                          "linear minorant f(s) >= K s with K > 0 exists")
    return (c, float(c.size - 1), float(c[-1]),
            float(powers[0]) if powers.size else None, k)


def polynomial_model(coeffs1: Sequence[float], coeffs2: Sequence[float], *,
                     name: str = "polynomial") -> NonlinearityModel:
    """Model from ascending coefficient lists f_i(s) = sum_k a_k s^k.

    Requires a0 = 0 and a1 > 0 for both components.  Derivatives are exact,
    and every structural constant is read off the coefficients, trailing
    zeros dropped: f1 ~ b2 s^p2 and f2 ~ b1 s^p1 with p the degree and b
    the leading coefficient (positive at degree >= 2); nu_i is the lowest
    power >= 2 of f_i, and a linear f_i (R_i = 0) takes the other's, or 2
    when both are linear; the limit of R_i(s)/s^nu is the s^nu coefficient
    of f_i, so r_lims is exact; K = min_i inf_{s>=0} f_i(s)/s must be
    positive.
    """
    cs = []
    for c, tag in ((coeffs1, "coeffs1"), (coeffs2, "coeffs2")):
        c = np.asarray(c, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ConfigError(f"{tag} needs at least the s^0 and s^1 coefficients")
        if not np.all(np.isfinite(c)):
            raise ConfigError(f"{tag}: coefficients must be finite, got {c.tolist()}")
        if c[0] != 0.0:
            raise ConfigError(f"{tag}: constant term must be 0 (f(0)=0)")
        if c[1] <= 0.0:
            raise ConfigError(f"{tag}: linear coefficient must be positive")
        cs.append(_structure(c, tag))
    (c1, p2, b2, nu1, k1), (c2, p1, b1, nu2, k2) = cs
    nu1, nu2 = nu1 or nu2 or 2.0, nu2 or nu1 or 2.0
    nu = int(min(nu1, nu2))
    r1, r2 = (float(c[nu]) if nu < c.size else 0.0 for c in (c1, c2))
    return NonlinearityModel(
        f1=_horner(c1), f2=_horner(c2),
        df1=_horner(_derivative(c1)), df2=_horner(_derivative(c2)),
        p1=p1, p2=p2, b1=b1, b2=b2, nu1=nu1, nu2=nu2, K=min(k1, k2),
        r_lims=(r1, r1, r2, r2), name=name)


def reference_model() -> NonlinearityModel:
    """Repo-wide test model: f1 = s - s^2 + s^3, f2 = s + s^2/2.

    Its constants, as polynomial_model derives them: p1 = deg f2 = 2,
    p2 = deg f1 = 3, b1 = 1/2 and b2 = 1 the leading coefficients,
    f_i'(0) = 1, nu1 = nu2 = 2 the lowest powers above the first, R1
    limits -1 and R2 limits +1/2 the s^2 coefficients, and
    K = min(1 - s + s^2, 1 + s/2) = 3/4 at s = 1/2.  Combined remainder
    bound R0 = -1/8, so the branch leaves to the right.
    """
    return polynomial_model([0.0, 1.0, -1.0, 1.0], [0.0, 1.0, 0.5],
                            name="reference")


def quadratic_model() -> NonlinearityModel:
    """Symmetric model f1 = f2 = s + s^2 (R0 = +1/2, branch leaves left)."""
    return polynomial_model([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], name="quadratic")


def linear_model(c1: float = 1.0, c2: float = 1.0) -> NonlinearityModel:
    """Purely linear pair f1 = c1 s, f2 = c2 s (remainders vanish).

    Violates the superlinear growth hypothesis by construction (p_i = 1);
    validate_hypotheses reports that.  Useful for degenerate-case checks.
    """
    c1 = require_positive(c1, "linear model slope c1")
    c2 = require_positive(c2, "linear model slope c2")
    return polynomial_model([0.0, c1], [0.0, c2], name="linear")
