"""First boundary eigenpair against closed forms and the Bessel-ratio oracle.

For N = 3 the regular kernel is sinh(r)/r, so the first eigenvalue on the
ball of radius R is coth(R) - 1/R in closed form; the grid eigenpair and
the Bessel-ratio oracle I_{N/2}(R)/I_{N/2-1}(R) must both land on it
independently.
"""

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest

from conftest import exact_mu, exact_profile
from radbif import (ConfigError, NumericalError, build_grid, solve_flux_bvp,
                    steklov_eigenpair, steklov_shooting_oracle)
from radbif.solver import _on_ray


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


@pytest.mark.parametrize("corrupt, reason", [
    (lambda v: -v, "unit-flux solution has a nonpositive boundary value"),
    (lambda v: np.concatenate(([0.0], v[1:])),
     "computed eigenfunction is not strictly positive"),
    (lambda v: v * np.where(np.arange(v.size) == 1, 1.0 + 1e-6, 1.0),
     "eigen-residual too large: interior "),
], ids=["nonpositive-trace", "nonpositive-node", "residual"])
def test_eigenpair_refuses_a_corrupted_column(corrupt, reason, monkeypatch):
    # the set-up's safety checks, reached through a solver that meets the
    # flux row alone, s -> s_M c, with c a corrupted unit-flux column: the
    # set-up's column is a multiple of c.  NumericalError at every call,
    # nothing cached
    import radbif.steklov as steklov_module
    v = steklov_eigenpair(build_grid(3, 1.0, 64)).v
    setups = []

    def corrupted(grid):
        setups.append(grid)
        c = corrupt(v)
        return lambda s: s[-1] * c

    monkeypatch.setattr(steklov_module, "_kernel_solver", corrupted)
    grid = build_grid(3, 1.0, 64)
    for n in (1, 2):
        with pytest.raises(NumericalError, match="^" + reason):
            steklov_eigenpair(grid)
        assert len(setups) == n
    monkeypatch.undo()
    assert steklov_eigenpair(grid).v.tobytes() == v.tobytes()


def test_eigenpair_is_the_unit_flux_solution(grid512, eig512, mu_h512):
    # one solve: mu1 = 1/v(R), phi1 = v/v(R), the mu_h of the trace system
    v = solve_flux_bvp(grid512, 1.0)
    assert eig512.mu1 == mu_h512 == 1.0 / v[-1]
    np.testing.assert_array_equal(eig512.phi1, v / v[-1])


@pytest.mark.parametrize("M, mu1, digest", [
    (512, 0.31303494913906765,
     "96af777710837db1481c87d33c44a41efe698fefa996ff77bec105a7208bee03"),
    (4096, 0.31303528023771793,
     "0a872e98bbdba9c0b80a2c9321d2d34d68e95388823d0846827f754a99cd0ae8")],
    ids=["512", "4096"])
def test_eigenpair_bits_are_pinned(M, mu1, digest):
    # the pair comes from the double v alone; the longdouble profile the
    # continuation rebuild reads must leave it bit for bit as it is
    eig = steklov_eigenpair(build_grid(3, 1.0, M))
    assert eig.mu1 == mu1
    assert hashlib.sha256(eig.phi1.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("N, R, M", [
    *itertools.product((3, 4, 5, 10), (0.5, 1.0, 3.0, 40.0),
                       (16, 17, 128, 512)),
    (3, 1.0, 4096), (10, 3.0, 4096), (5, 40.0, 4096), (4, 0.5, 4096),
    # CHANGES.md FOUND line 79, ROADMAP item 18: 2.6e6 ulps (-3.3e-10
    # relative) off
    pytest.param(3, 1e-5, 512, marks=pytest.mark.xfail(
        strict=True, reason="mu_h at a small radius is silently wrong")),
])
def test_grid_eigenvalue_is_the_exact_one_to_an_ulp(N, R, M):
    # the discrete problem's own mu_h, in integers: what the set-up's
    # solve and refinement must reach, whatever the O(h^2) error
    mu_h = steklov_eigenpair(build_grid(N, R, M)).mu1
    assert abs(mu_h - float(exact_mu(N, R, M))) <= math.ulp(mu_h)


@pytest.mark.parametrize("N, R, M", [(3, 1.0, 128), (3, 1.0, 512),
                                     (10, 3.0, 512)])
def test_unit_trace_profile_is_the_exact_one_to_an_ulp(N, R, M):
    # the profile every solution is rebuilt from, rounded to double, is
    # the exact profile correctly rounded or a neighbour of it at each node
    profile = steklov_eigenpair(build_grid(N, R, M)).profile
    exact = [float(x) for x in exact_profile(N, R, M)]
    assert exact[-1] == 1.0
    for got, want in zip(profile.astype(float).tolist(), exact):
        assert want in (got, math.nextafter(got, math.inf),
                        math.nextafter(got, -math.inf))


@pytest.mark.parametrize("N", [3, 5, 10, 100, 140])
def test_unit_trace_profile_rises_to_exactly_one(N):
    # on every grid the set-up accepts, the profile is nondecreasing, at
    # most 1 and exactly 1 at R, and rounding is monotone: so a state
    # rebuilt on the ray has sup|u_i| = |t_i| exactly, the scale of the
    # full-space re-check, and a component of t >= 0 has its minimum at
    # node 0 (one of t < 0 is at most 0 there), which its positivity test
    # reads
    accepted = 0
    for R, M in itertools.product((1e-7, 1e-5, 1e-3, 1.0, 40.0, 700.0),
                                  (16, 512, 4096)):
        try:
            profile = steklov_eigenpair(build_grid(N, R, M)).profile
        except NumericalError:
            continue
        accepted += 1
        assert profile[-1] == 1.0 and profile.max() == 1.0, (R, M)
        assert (np.diff(profile) >= 0.0).all(), (R, M)
        for t in (5e-324, 0.3, 7.5, 1e300):
            state = _on_ray(profile, t, -t)
            assert np.abs(state.u1).max() == np.abs(state.u2).max() == t
            assert state.u1.min() == state.u1[0] and state.u2[0] <= 0.0
    assert accepted >= 13


def test_grid_convergence_order():
    exact = mu1_closed(1.0)
    errs = [abs(steklov_eigenpair(build_grid(3, 1.0, M)).mu1 - exact)
            for M in (128, 256, 512)]
    for a, b in zip(errs[:-1], errs[1:]):
        assert 3.4 <= a / b <= 4.6


def test_grid_eigenvalue_is_second_order_up_to_m_32768():
    # the operator rounds once per row at the scale of the state, not at
    # the 1/h^2 row scale, so mu_h stays below mu1 and its error falls by
    # 4 per halving of h down to h = 1/32768; rounded band sums gave
    # ratios 3.92, 4.69 and -1.05 from M = 4096 on
    mu1 = steklov_shooting_oracle(3, 1.0)
    errs = []
    for M in (1024, 2048, 4096, 8192, 16384, 32768):
        mu_h = steklov_eigenpair(build_grid(3, 1.0, M)).mu1
        assert mu_h < mu1, M
        errs.append(mu1 - mu_h)
    for M, a, b in zip((2048, 4096, 8192, 16384, 32768), errs, errs[1:]):
        assert abs(a / b - 4.0) <= 0.01, (M, a / b)


def test_shooting_oracle_closed_forms():
    assert steklov_shooting_oracle(3, 1.0) == pytest.approx(
        mu1_closed(1.0), abs=1e-10)
    assert steklov_shooting_oracle(3, 10.0) == pytest.approx(
        mu1_closed(10.0), abs=1e-9)
    # large balls approach 1 from below
    assert 0.0 < steklov_shooting_oracle(3, 10.0) < 1.0


@pytest.mark.parametrize("N", [3, 4, 5, 10, 50, 130])
def test_shooting_oracle_against_mpmath(N):
    # 40-digit Bessel ratios at radii from 1e-300 (the ratio is R/N there)
    # to 1.7e308 (it is 1 - (N - 1)/(2R)): the exact value is a normal
    # double at each, and the continued fraction lands within 5e-15 of it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nu = mpmath.mpf(N) / 2
        for R in (1e-300, 1e-200, 1e-8, 1e-3, 0.3, 1.0, 3.0, 10.0, 50.0,
                  800.0, 1e4, 1e6, 1e100, 1.7e308):
            exact = mpmath.besseli(nu, R) / mpmath.besseli(nu - 1, R)
            got = steklov_shooting_oracle(N, R)
            assert abs(got / exact - 1) <= 5e-15, (R, got)


@pytest.mark.parametrize("N", [3, 4, 5, 10, 50, 130])
def test_shooting_oracle_at_the_ends_of_double_range(N):
    # a subnormal radius gives R/N rounded once, 0.0 at the smallest; at
    # the largest double 1 - (N - 1)/(2R) rounds to 1
    assert steklov_shooting_oracle(N, 5e-324) == 5e-324 / N == 0.0
    assert steklov_shooting_oracle(N, 1e-320) == 1e-320 / N
    assert steklov_shooting_oracle(N, sys.float_info.max) == 1.0


@pytest.mark.parametrize("N", [3, 4, 5, 10])
def test_shooting_oracle_against_the_scaled_bessel_ratio(N):
    special = pytest.importorskip("scipy.special")
    for R in np.geomspace(1e-8, 1e3, 23):
        ratio = special.ive(N / 2, R) / special.ive(N / 2 - 1, R)
        assert steklov_shooting_oracle(N, float(R)) == pytest.approx(
            ratio, rel=1e-14, abs=0), R


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
    for radius in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            steklov_shooting_oracle(3, radius)


def test_eigenvalue_scales_with_radius():
    # mu1(R) is increasing in R for N=3 (coth R - 1/R is increasing)
    vals = [steklov_eigenpair(build_grid(3, R, 256)).mu1
            for R in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]
