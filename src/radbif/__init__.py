"""Numerical bifurcation toolkit for coupled elliptic systems with
nonlinear boundary fluxes, specialized to radially symmetric solutions on
balls.

The package computes the first boundary (Steklov) eigenpair, locates the
bifurcation point of the positive branch, traces the branch through its
fold by pseudo-arclength continuation, verifies the rescaled tail against
the pure-power limiting problem, and produces second solutions as roots of
the scalar trace equation above a subsolution.
"""

from .analysis import (BifurcationReport, Direction, JordanData, RescaleTable,
                       bifurcation_point, build_report,
                       direction_of_bifurcation, jordan_data,
                       nonexistence_bound, rescale_check, slope_fit,
                       slope_prediction, theta_exponents)
from .continuation import (Branch, BranchPoint, ContinuationConfig, FoldInfo,
                           continue_branch, detect_fold, initial_tangent,
                           solutions_at, step_off)
from .errors import (ConfigError, ContinuationError,
                     DistinctnessError, EstimationFailedError,
                     InsufficientDataError, MonotonicityViolationError,
                     NonConvergenceError, NumericalError, StepOffError,
                     SubsolutionError, ToolkitError)
from .grid import (RadialGrid, SystemState, apply_operator,
                   banded_matvec_extended, boundary_flux, build_grid,
                   load_state_csv, operator_bands, pair_norm, save_state_csv,
                   solve_flux_bvp)
from .model import (CheckResult, HypothesesReport, NonlinearityModel,
                    estimate_remainder_limits, eval_f, eval_fprime,
                    f_extended, fprime_extended, linear_model,
                    polynomial_model, quadratic_model, r0_bounds,
                    reference_model, remainder, remainder_limits,
                    validate_hypotheses, zeta)
from .monotone import build_subsolution, monotone_iterate, second_solution
from .solver import (POSITIVITY_REL_FLOOR, POSITIVITY_ZERO_FLOOR,
                     NewtonConfig, NewtonResult, PairJacobian,
                     is_positive_state, jacobian, linear_bvp_solve,
                     newton_solve, residual, scaled_residual_norm,
                     solve_limit_problem)
from .steklov import SteklovPair, steklov_eigenpair, steklov_shooting_oracle
from .verify import CheckOutcome, format_table, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "NonlinearityModel", "CheckResult", "HypothesesReport",
    "reference_model", "quadratic_model", "linear_model", "polynomial_model",
    "eval_f", "eval_fprime", "f_extended", "fprime_extended", "remainder",
    "remainder_limits", "estimate_remainder_limits", "r0_bounds", "zeta",
    "validate_hypotheses",
    # grid
    "RadialGrid", "SystemState", "build_grid", "pair_norm", "apply_operator",
    "boundary_flux", "operator_bands", "banded_matvec_extended",
    "solve_flux_bvp", "save_state_csv", "load_state_csv",
    # steklov
    "SteklovPair", "steklov_eigenpair", "steklov_shooting_oracle",
    # solver
    "NewtonConfig", "NewtonResult", "PairJacobian", "is_positive_state",
    "POSITIVITY_REL_FLOOR", "POSITIVITY_ZERO_FLOOR",
    "residual", "jacobian", "newton_solve", "linear_bvp_solve",
    "solve_limit_problem", "scaled_residual_norm",
    # continuation
    "ContinuationConfig", "BranchPoint", "FoldInfo", "Branch",
    "initial_tangent", "step_off", "continue_branch", "detect_fold",
    "solutions_at",
    # monotone
    "build_subsolution", "monotone_iterate", "second_solution",
    # analysis
    "Direction", "JordanData", "BifurcationReport", "RescaleTable",
    "bifurcation_point", "jordan_data", "theta_exponents",
    "direction_of_bifurcation", "slope_prediction", "slope_fit",
    "rescale_check", "nonexistence_bound", "build_report",
    # verify
    "CheckOutcome", "run_acceptance", "format_table",
    # errors
    "ToolkitError", "ConfigError", "NumericalError", "NonConvergenceError",
    "EstimationFailedError", "StepOffError",
    "ContinuationError", "SubsolutionError", "MonotonicityViolationError",
    "DistinctnessError", "InsufficientDataError",
]
