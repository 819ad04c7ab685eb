"""First boundary eigenpair against closed forms and the Bessel-ratio oracle.

For N = 3 the regular kernel is sinh(r)/r, so the first eigenvalue on the
ball of radius R is coth(R) - 1/R in closed form; the grid eigenpair and
the Bessel-ratio oracle I_{N/2}(R)/I_{N/2-1}(R) must both land on it
independently.
"""

import math

import numpy as np
import pytest

from radbif import (ConfigError, build_grid, solve_flux_bvp,
                    steklov_eigenpair, steklov_shooting_oracle)


def mu1_closed(R):
    return 1.0 / math.tanh(R) - 1.0 / R


def test_eigenvalue_closed_form_r1(eig512):
    assert abs(eig512.mu1 - mu1_closed(1.0)) < 5e-7
    assert abs(mu1_closed(1.0) - 2.0 / (math.e ** 2 - 1.0)) < 1e-15


def test_eigenvalue_closed_form_r5():
    # h = 5/1024 here, so the O(h^2) error budget is wider than at R = 1
    g = build_grid(3, 5.0, 1024)
    eig = steklov_eigenpair(g)
    assert eig.mu1 == pytest.approx(mu1_closed(5.0), abs=1e-5)


def test_eigenfunction_normalization_positivity_monotonicity(eig512):
    phi = eig512.phi1
    assert phi[-1] == pytest.approx(1.0, abs=1e-14)
    assert phi.max() == pytest.approx(1.0, abs=1e-14)
    assert phi.min() > 0.0
    assert np.all(np.diff(phi) >= 0.0)


def test_eigenpair_residuals_are_small(eig512):
    assert eig512.residual_interior < 1e-10
    assert eig512.residual_flux < 1e-10


def test_eigenpair_computed_once_per_grid():
    g = build_grid(3, 1.0, 64)
    eig = steklov_eigenpair(g)
    assert steklov_eigenpair(g) is eig
    assert not eig.phi1.flags.writeable
    assert steklov_eigenpair(build_grid(3, 1.0, 64)) is not eig


def test_eigenpair_is_the_unit_flux_solution(grid512, eig512, mu_h512):
    # one solve: mu1 = 1/v(R), phi1 = v/v(R), the mu_h of the trace system
    v = solve_flux_bvp(grid512, 1.0)
    assert eig512.mu1 == mu_h512 == 1.0 / v[-1]
    np.testing.assert_array_equal(eig512.phi1, v / v[-1])


def test_grid_convergence_order():
    exact = mu1_closed(1.0)
    errs = [abs(steklov_eigenpair(build_grid(3, 1.0, M)).mu1 - exact)
            for M in (128, 256, 512)]
    for a, b in zip(errs[:-1], errs[1:]):
        assert 3.4 <= a / b <= 4.6


def test_shooting_oracle_closed_forms():
    assert steklov_shooting_oracle(3, 1.0) == pytest.approx(
        mu1_closed(1.0), abs=1e-10)
    assert steklov_shooting_oracle(3, 10.0) == pytest.approx(
        mu1_closed(10.0), abs=1e-9)
    # large balls approach 1 from below
    assert 0.0 < steklov_shooting_oracle(3, 10.0) < 1.0


def test_shooting_oracle_cross_checks_grid_in_five_dimensions():
    # no elementary closed form at N = 5: the grid eigenvalue must agree
    # with the Bessel-ratio oracle, which shares no code with it
    oracle = steklov_shooting_oracle(5, 1.0)
    eig = steklov_eigenpair(build_grid(5, 1.0, 4096))
    assert 0.0 < oracle < 1.0
    assert abs(oracle - eig.mu1) < 1e-6


def test_parameter_validation():
    with pytest.raises(ConfigError):
        steklov_shooting_oracle(2, 1.0)
    with pytest.raises(ConfigError):
        steklov_shooting_oracle(3, -1.0)


def test_eigenvalue_scales_with_radius():
    # mu1(R) is increasing in R for N=3 (coth R - 1/R is increasing)
    vals = [steklov_eigenpair(build_grid(3, R, 256)).mu1
            for R in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]
