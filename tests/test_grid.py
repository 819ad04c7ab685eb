"""Radial mesh, operator stencils, flux stencil, banded linear solves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import band_loop
from radbif import (ConfigError, SystemState, apply_operator,
                    banded_matvec_extended, boundary_flux, build_grid,
                    load_state_csv, operator_bands, pair_norm, save_state_csv,
                    solve_flux_bvp)
from radbif.grid import _bands

MU1_N3_R1 = 2.0 / (math.e ** 2 - 1.0)


def kernel_g(r):
    """Regular radial solution sinh(r)/r of the N=3 operator kernel."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    nz = r != 0.0
    out[nz] = np.sinh(r[nz]) / r[nz]
    return out


def test_build_grid_nodes_and_spacing():
    g = build_grid(3, 1.0, 16)
    assert g.h == 1.0 / 16
    np.testing.assert_allclose(g.r, np.arange(17) / 16.0, atol=0)
    assert g.r[0] == 0.0 and g.r[-1] == 1.0
    assert build_grid(4, 2.0, 64).h == 0.03125


def test_build_grid_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        build_grid(3, 1.0, 15)  # M too small
    with pytest.raises(ConfigError):
        build_grid(3, 1.0, 4)
    with pytest.raises(ConfigError):
        build_grid(2, 1.0, 64)
    with pytest.raises(ConfigError):
        build_grid(3, 0.0, 64)
    for radius in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            build_grid(3, radius, 64)
    # M = 100.5 would build a 102-node grid ending past R_ball, and
    # N_dim = 3.7 a grid in R^3
    for args in ((3, 1.0, 100.5), (3.7, 1.0, 64), (3, 1.0, math.nan),
                 (3, 1.0, 64.0)):
        with pytest.raises(ConfigError, match="integer"):
            build_grid(*args)
    g = build_grid(np.int64(3), 1.0, np.int64(64))
    assert (g.N_dim, g.M) == (3, 64) and type(g.M) is int


def test_operator_on_constant_is_the_constant():
    g = build_grid(3, 1.0, 32)
    res = apply_operator(g, np.full(33, 2.5))
    np.testing.assert_allclose(res, 2.5, rtol=1e-13)


def test_operator_annihilates_kernel_at_second_order():
    errs = []
    for M in (64, 128, 256):
        g = build_grid(3, 1.0, M)
        errs.append(float(np.abs(apply_operator(g, kernel_g(g.r))).max()))
    # halving h cuts the residual by 4 +- 15%
    for a, b in zip(errs[:-1], errs[1:]):
        assert 4.0 * 0.85 <= a / b <= 4.0 * 1.15
    assert errs[-1] < 2e-5


def test_operator_pointwise_on_r_squared():
    # -u'' - (2/r) u' + u at u = r^2, N=3: -2 - 4 + r^2
    g = build_grid(3, 1.0, 256)
    res = apply_operator(g, g.r ** 2)
    j = 128  # r = 0.5
    assert res[j] == pytest.approx(-2.0 - 4.0 + 0.25, abs=1e-8)


def test_operator_is_linear():
    g = build_grid(3, 1.0, 64)
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(65), rng.standard_normal(65)
    lhs = apply_operator(g, 2.0 * u - 3.0 * v)
    rhs = 2.0 * apply_operator(g, u) - 3.0 * apply_operator(g, v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_boundary_flux_exact_on_quadratics():
    g = build_grid(3, 1.0, 32)
    assert boundary_flux(g, np.ones(33)) == 0.0
    assert boundary_flux(g, g.r.copy()) == pytest.approx(1.0, abs=1e-13)
    assert boundary_flux(g, g.r ** 2) == pytest.approx(2.0, abs=1e-12)


def test_operator_and_flux_refuse_a_wrong_length_array():
    g = build_grid(3, 1.0, 32)
    for n in (32, 34):
        with pytest.raises(ValueError, match="expected 33 nodal values"):
            apply_operator(g, np.ones(n))
        with pytest.raises(ValueError, match="expected 33 nodal values"):
            boundary_flux(g, np.ones(n))


def test_boundary_flux_on_kernel():
    # u = sinh(r)/r at R=1: u'(1) = cosh(1) - sinh(1)
    exact = math.cosh(1.0) - math.sinh(1.0)
    errs = [abs(boundary_flux(build_grid(3, 1.0, M),
                              kernel_g(build_grid(3, 1.0, M).r)) - exact)
            for M in (128, 256)]
    assert errs[0] == pytest.approx(0.0, abs=1e-4)
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_pair_norm_conventions():
    g = build_grid(3, 1.0, 16)
    zero = SystemState.zero(g)
    assert pair_norm(zero) == 0.0
    assert pair_norm(SystemState(np.full(17, 2.0), np.full(17, 3.0))) == 5.0


def test_solve_flux_bvp_zero_flux_is_zero():
    g = build_grid(3, 1.0, 64)
    assert np.all(solve_flux_bvp(g, 0.0) == 0.0)


def test_solve_flux_bvp_unit_flux_boundary_value():
    # v = g/g'(R): v(R) = 1/mu1 up to O(h^2)
    g = build_grid(3, 1.0, 512)
    v = solve_flux_bvp(g, 1.0)
    assert v[-1] == pytest.approx(1.0 / MU1_N3_R1, rel=5e-6)
    assert v.min() > 0.0
    assert np.all(np.diff(v) >= 0.0)  # radially increasing


def test_solve_flux_bvp_satisfies_the_discrete_rows():
    g = build_grid(3, 1.0, 512)
    v = solve_flux_bvp(g, 1.0)
    res_int = apply_operator(g, v)
    # backward error at the operator row scale, near machine precision
    assert np.abs(res_int).max() / (2.0 / g.h ** 2 + 1.0) < 1e-14
    assert abs(boundary_flux(g, v) - 1.0) < 1e-11


def test_solve_flux_bvp_linear_in_flux():
    g = build_grid(3, 1.0, 64)
    a = solve_flux_bvp(g, 0.7)
    b = solve_flux_bvp(g, -0.2)
    c = solve_flux_bvp(g, 0.5)
    np.testing.assert_allclose(a + b, c, rtol=0, atol=1e-13)


def test_solve_flux_bvp_is_a_multiple_of_the_unit_flux_column():
    g = build_grid(3, 1.0, 128)
    v = solve_flux_bvp(g, 1.0)
    for f in (0.7, -0.2, 3.0e5, 1.0 / 3.0):
        np.testing.assert_array_equal(solve_flux_bvp(g, f), f * v)


def test_banded_matvec_extended_matches_dense():
    # h = 1 keeps the entries O(1), compare against the dense product
    g = build_grid(3, 16.0, 16)
    ab = operator_bands(g)
    rng = np.random.default_rng(3)
    n, n_upper, n_lower = g.M + 1, 1, 2
    x = rng.standard_normal(n)
    dense = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - n_upper), min(n, j + n_lower + 1)):
            dense[i, j] = ab[n_upper + i - j, j]
    got = np.asarray(banded_matvec_extended(g, x), dtype=float)
    np.testing.assert_allclose(got, dense @ x, rtol=0, atol=1e-13)
    # an x already in extended precision gives the same bits
    same = banded_matvec_extended(g, x.astype(np.longdouble))
    np.testing.assert_array_equal(same, banded_matvec_extended(g, x))


def test_banded_matvec_extended_beats_double_cancellation():
    # residual of the solved system must sit well below the double floor
    g = build_grid(3, 1.0, 512)
    v = solve_flux_bvp(g, 1.0)
    r = np.asarray(banded_matvec_extended(g, v), dtype=float)
    r[-1] -= 1.0
    scale = 2.0 / g.h ** 2 + 1.0
    assert np.abs(r).max() / scale < 1e-14


def _bits(y):
    return np.asarray(y, dtype=float).view(np.int64)


def _zero_times_nonfinite(ab, x):
    """Rows where band_loop multiplies a zero band entry by an inf or nan
    of x and so adds a NaN that the CSR operator, which holds no zero
    entries, does not."""
    return band_loop(ab == 0.0, ~np.isfinite(x)) > 0


@pytest.mark.parametrize("M", [16, 17, 128, 512, 4096])
def test_banded_matvec_extended_is_bit_identical_to_the_band_loop(M):
    g = build_grid(3, 1.0, M)
    ab = operator_bands(g)
    n = M + 1
    rng = np.random.default_rng(M)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.1e-308,
                        1e300, -1e300, 1e-300, -1e-300, 1.0, -3.5])
    inputs = [solve_flux_bvp(g, 1.0)]  # the refined unit-flux column v
    for _ in range(20):
        wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
        inputs.append(np.where(rng.random(n) < 0.5, rng.choice(special, n), wide))
    with_nan = inputs[-1].copy()
    with_nan[rng.choice(n, 3, replace=False)] = np.nan
    inputs.append(with_nan)
    # strided component views of an interleaved vector, as the residual
    # receives them from newton_solve and the jacobian-fd check
    pair = rng.uniform(0.05, 2.0, 2 * n)
    inputs += [pair[0::2], pair[1::2]]
    for x in inputs:
        keep = ~_zero_times_nonfinite(ab, x)
        assert keep.all() == bool(np.isfinite(x).all())
        got = banded_matvec_extended(g, x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(_bits(got)[keep], _bits(band_loop(ab, x))[keep])


def test_banded_matvec_extended_drops_zero_times_nonfinite():
    # The one intended difference from the band loop: there a zero band
    # entry times an inf or nan x_j (the sub2 band two rows below j) added
    # NaN to its row, with a RuntimeWarning for inf.  The CSR operator
    # holds no zero entries, so such a row is the sum of its nonzero
    # products, which is the band loop with x_j set to 0.
    g = build_grid(3, 1.0, 16)
    ab = operator_bands(g)
    x = np.random.default_rng(5).standard_normal(g.M + 1)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        band_loop(ab, np.where(np.arange(g.M + 1) == 0, np.inf, x))
    for bad in (np.inf, -np.inf, np.nan):
        for j in range(g.M + 1):
            xj = x.copy()
            xj[j] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = banded_matvec_extended(g, xj)
            with np.errstate(invalid="ignore"):
                ref = band_loop(ab, xj)
            zeroed = band_loop(ab, np.where(np.isfinite(xj), xj, 0.0))
            hit = _zero_times_nonfinite(ab, xj)
            assert hit.any() == (j < g.M - 2)  # A[M, M-2] is the one sub2 entry
            assert np.isnan(ref[hit]).all() and np.isfinite(got[hit]).all()
            np.testing.assert_array_equal(_bits(got)[~hit], _bits(ref)[~hit])
            np.testing.assert_array_equal(_bits(got)[hit], _bits(zeroed)[hit])


@pytest.mark.parametrize("M", [16, 17, 128])
def test_pair_operator_is_diag_a_a_interleaved(M):
    # rows 2j and 2j+1 are row j of A on the even and odd columns, each
    # listing its entries in band order (descending column); it is the
    # grid's only operator copy
    g = build_grid(3, 1.0, M)
    ab = operator_bands(g)
    a = band_loop(ab, np.eye(M + 1)).T  # column k of A is A e_k
    pair = _bands(g)[1]
    assert len(_bands(g)) == 2 and pair.dtype == np.longdouble
    want = np.zeros((2 * (M + 1), 2 * (M + 1)), dtype=np.longdouble)
    want[0::2, 0::2] = a
    want[1::2, 1::2] = a
    np.testing.assert_array_equal(pair.toarray(), want)
    for i in range(2 * (M + 1)):
        cols = pair.indices[pair.indptr[i]:pair.indptr[i + 1]]
        assert (np.diff(cols) < 0).all() and (cols % 2 == i % 2).all()


def test_operator_bands_cached_and_frozen():
    g = build_grid(3, 1.0, 64)
    ab1 = operator_bands(g)
    ab2 = operator_bands(g)
    assert ab1 is ab2
    assert not ab1.flags.writeable
    # the pair CSR too: sorting its indices in place would change the
    # order in which the residual adds its products
    a_e = _bands(g)[1]
    assert a_e is _bands(g)[1]
    assert not any(a.flags.writeable for a in (a_e.data, a_e.indices, a_e.indptr))
    with pytest.raises(ValueError):
        a_e.sort_indices()


def test_system_state_vector_roundtrip():
    g = build_grid(3, 1.0, 16)
    rng = np.random.default_rng(11)
    s = SystemState(rng.standard_normal(17), rng.standard_normal(17))
    t = SystemState.from_vector(s.to_vector())
    np.testing.assert_array_equal(t.u1, s.u1)
    np.testing.assert_array_equal(t.u2, s.u2)
    assert s.to_vector()[0] == s.u1[0] and s.to_vector()[1] == s.u2[0]
    with pytest.raises(ValueError):
        SystemState(np.zeros(17), np.zeros(16))
    # a state is one pair of 1-d arrays: (k, M+1) stacks and scalars are
    # refused
    for shape in ((3, 17), (1, 17), ()):
        with pytest.raises(ValueError, match="1-d arrays"):
            SystemState(np.zeros(shape), np.zeros(shape))


def test_state_csv_roundtrip(tmp_path):
    g = build_grid(3, 1.0, 16)
    s = SystemState(np.linspace(0, 1, 17) ** 2, np.linspace(1, 2, 17))
    path = tmp_path / "state.csv"
    save_state_csv(path, g, s, comment="roundtrip")
    r, u1, u2 = load_state_csv(path)
    np.testing.assert_array_equal(r, g.r)
    np.testing.assert_array_equal(u1, s.u1)
    np.testing.assert_array_equal(u2, s.u2)


def test_state_csv_exact_bytes(tmp_path):
    g = build_grid(3, 1.0, 16)
    special = [-0.0, 0.0, 1e-300, 0.1, 1.2345678901234567e300]
    u1 = np.full(17, 0.5)
    u1[:5] = special
    u2 = np.full(17, -2.0)
    u2[12:] = special[::-1]
    path = tmp_path / "state.csv"
    save_state_csv(path, g, SystemState(u1, u2), comment="pinned")
    assert path.read_bytes() == (
        b"# pinned\nr,u1,u2\n"
        b"0,-0,-2\n0.0625,0,-2\n0.125,1e-300,-2\n"
        b"0.1875,0.10000000000000001,-2\n0.25,1.2345678901234567e+300,-2\n"
        b"0.3125,0.5,-2\n0.375,0.5,-2\n0.4375,0.5,-2\n0.5,0.5,-2\n"
        b"0.5625,0.5,-2\n0.625,0.5,-2\n0.6875,0.5,-2\n"
        b"0.75,0.5,1.2345678901234567e+300\n0.8125,0.5,0.10000000000000001\n"
        b"0.875,0.5,1e-300\n0.9375,0.5,0\n1,0.5,-0\n")


def test_state_csv_equals_the_row_by_row_formatting(tmp_path):
    # a 4097-node state, subnormal, tiny, signed-zero, inexact and integer
    # values among random ones, formatted one row at a time
    g = build_grid(3, 1.0, 4096)
    rng = np.random.default_rng(7)
    u1 = rng.standard_normal(4097) * 10.0 ** rng.integers(-300, 300, 4097)
    u2 = rng.random(4097)
    special = [5e-324, 1e-300, -0.0, 0.0, 1.0 / 3.0, 3.0, -17.0, 2.0 ** 53]
    u1[:len(special)] = special
    u2[-len(special):] = special
    path = tmp_path / "state.csv"
    save_state_csv(path, g, SystemState(u1, u2), comment="rows")
    rows = "".join("%.17g,%.17g,%.17g\n" % row
                   for row in zip(g.r.tolist(), u1.tolist(), u2.tolist()))
    assert path.read_bytes() == ("# rows\nr,u1,u2\n" + rows).encode()


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10))
def test_flux_bvp_superposition(f1, f2):
    g = build_grid(3, 1.0, 32)
    lhs = solve_flux_bvp(g, f1) + solve_flux_bvp(g, f2)
    rhs = solve_flux_bvp(g, f1 + f2)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)
