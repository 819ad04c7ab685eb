"""The package surface and the shared argument checks."""

import math

import pytest

import radbif
from radbif import (analysis, continuation, errors, grid, model, monotone,
                    solver, steklov, verify)
from radbif.errors import ConfigError, require_positive

# The names the package exported before its list was built from the
# modules' own lists, less step_off and StepOffError: the step-off is the
# first step of continue_branch, and its failure a ContinuationError.  Less
# remainder, remainder_limits, estimate_remainder_limits and
# EstimationFailedError too: remainder limits are model data (r_lims).
# Less detect_fold: every turn of the branch is solved exactly, with no
# sampled fold.  Less eval_fprime: fprime_extended gives its values.
# Less HypothesesReport: validate_hypotheses returns a tuple of CheckResult.
# Less NewtonConfig: newton_solve takes tol, its step limit is the module
# constant MAX_NEWTON_ITER, and TOL_RESIDUAL is the exported default.
# Less PairJacobian: jacobian returned a dense array.  Less
# banded_matvec_extended: the operator is evaluated in difference form by
# the grid's private stencil.  Less operator_bands: A exists once, as
# that stencil.
# Less linear_bvp_solve: the linear problem with fluxes (g1, g2) is
# (solve_flux_bvp(grid, g1), solve_flux_bvp(grid, g2)).  Less jacobian:
# no computation formed the full-space Jacobian, and the jacobian-fd check
# compares the flux rows' derivative that Newton uses
# (_TraceSystem.linearize) with differences of the residual on the ray.
_EARLIER_SURFACE = """
    NonlinearityModel CheckResult
    reference_model quadratic_model linear_model polynomial_model eval_f
    f_extended fprime_extended r0_bounds zeta validate_hypotheses
    RadialGrid
    SystemState build_grid pair_norm apply_operator boundary_flux
    solve_flux_bvp save_state_csv
    load_state_csv SteklovPair steklov_eigenpair steklov_shooting_oracle
    NewtonResult is_positive_state
    POSITIVITY_REL_FLOOR POSITIVITY_ZERO_FLOOR residual
    newton_solve solve_limit_problem scaled_residual_norm
    ContinuationConfig BranchPoint FoldInfo Branch initial_tangent
    continue_branch solutions_at build_subsolution
    monotone_iterate second_solution Direction JordanData BifurcationReport
    RescaleTable bifurcation_point jordan_data theta_exponents
    direction_of_bifurcation slope_prediction slope_fit rescale_check
    nonexistence_bound build_report CheckOutcome run_acceptance format_table
    ToolkitError ConfigError NumericalError NonConvergenceError
    ContinuationError SubsolutionError
    MonotonicityViolationError DistinctnessError InsufficientDataError
""".split()


def test_package_exports_exactly_the_module_lists():
    modules = (model, grid, steklov, solver, continuation, monotone,
               analysis, verify, errors)
    expected = ["__version__"] + [n for m in modules for n in m.__all__]
    assert radbif.__all__ == expected
    assert len(set(expected)) == len(expected)
    for m in modules:
        for name in m.__all__:
            assert getattr(radbif, name) is getattr(m, name)
    assert len(_EARLIER_SURFACE) == 67
    assert set(_EARLIER_SURFACE) <= set(radbif.__all__)
    assert {"monotone_check", "ORDER_SLACK_REL",
            "TOL_RESIDUAL"} <= set(radbif.__all__)
    removed = {"remainder", "remainder_limits", "estimate_remainder_limits",
               "EstimationFailedError", "detect_fold", "eval_fprime",
               "HypothesesReport", "NewtonConfig", "PairJacobian",
               "banded_matvec_extended", "operator_bands",
               "linear_bvp_solve", "jacobian"}
    assert not removed & set(radbif.__all__)
    assert not any(hasattr(radbif, name) for name in removed)


def test_require_positive():
    assert require_positive(2, "x") == 2.0
    assert type(require_positive(2, "x")) is float
    assert require_positive(5e-324, "x") == 5e-324
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError,
                           match=r"^width must be positive and finite, got "):
            require_positive(bad, "width")
