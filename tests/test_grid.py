"""Radial mesh, operator stencils, flux stencil, the grid's ray."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exact_stencil, expression_stencil
from radbif import (ConfigError, SystemState, apply_operator, boundary_flux,
                    build_grid, load_state_csv, pair_norm, reference_model,
                    residual, save_state_csv, solve_flux_bvp,
                    steklov_eigenpair)
from radbif.grid import _pair_weights, _stencil, _weights
from radbif.steklov import _kernel_solver

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


@pytest.mark.parametrize("R, M", [
    (1e160, 512), (1e-200, 512), (1.7976931348623157e308, 16), (5e-324, 16),
    (1.35e154 * 512, 512), (7.4e-155 * 512, 512)])
def test_build_grid_refuses_a_spacing_whose_square_leaves_double_range(R, M):
    # the set-up forms h^2 and the operator rows 1/h^2: when either is not
    # finite, one ConfigError names R, M and h before anything is built
    # (at R = 1e160, steklov_eigenpair raised OverflowError from h ** 2)
    with pytest.raises(ConfigError, match=re.escape(
            f"ball radius {R:g} is out of range at M = {M}: h = {R / M:g}")):
        build_grid(3, R, M)
    # just inside either end the grid is built
    for h in (7.5e-155, 1.34e154):
        assert build_grid(3, h * M, M).h == pytest.approx(h)


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


# mu_h = 1/v(R) at M = 16, 17, 128 and 4096 per (N, R); the earlier set-up
# by banded LU gave these same bits
MU_H = {
    (3, 1): (0.3127047064756864, 0.31274171121630456, 0.3130299247378532, 0.31303528023771793),
    (3, 3): (0.6655388222083879, 0.6662028487263452, 0.6715325472192255, 0.671636387270638),
    (3, 10): (0.822179223193553, 0.8294559812440779, 0.8982935321218006, 0.8999982602456729),
    (4, 1): (0.23997699984785575, 0.24000128034500962, 0.24019021494957188, 0.24019372042681036),
    (4, 3): (0.5633514863129285, 0.5638513657064509, 0.5678462804645962, 0.5679235729351085),
    (4, 10): (0.7840788758068423, 0.7906898988151002, 0.8526704659452549, 0.8541837638608678),
    (5, 1): (0.19437540931950173, 0.19439252018033484, 0.19452558077248566, 0.19452804704316956),
    (5, 3): (0.48538834398501995, 0.48577353440886234, 0.48884154252422657, 0.4889005820383438),
    (5, 10): (0.7479270305374152, 0.7539328775984768, 0.8097645232096085, 0.8111097360276392),
    (10, 1): (0.09913183998921678, 0.09913706487850361, 0.09917763165084569, 0.09917838166338006),
    (10, 3): (0.2787683242327406, 0.27890767607909095, 0.2800068639141997, 0.28002769386466814),
    (10, 10): (0.5955188239562761, 0.5992673067961336, 0.6328999378298555, 0.6336676162616696),
}


@pytest.mark.parametrize("N, R", list(MU_H))
def test_ray_keeps_mu_h_and_solves_its_rows_in_longdouble(N, R):
    # odd N needs the solver's scan to restart at j = (N-1)/2, where
    # alpha_j is exactly 0
    for M, mu_h in zip((16, 17, 128, 4096), MU_H[N, R]):
        g = build_grid(N, R, M)
        pair = steklov_eigenpair(g)
        v, profile = pair.v, pair.profile
        assert 1.0 / v[M] == mu_h, M
        scale = 2.0 / g.h ** 2 + 1.0
        rows = _stencil(g, profile[:, None])[:-1]
        assert float(np.abs(rows).max()) / scale <= 1e-18, M


@pytest.mark.parametrize("M", [4096, 32768])
def test_unit_flux_column_is_the_longdouble_column_rounded_once(M):
    # three more refinement passes from v leave every node of v within
    # half an ulp: v is the refined column rounded to double once
    g = build_grid(3, 1.0, M)
    v = steklov_eigenpair(g).v
    solve = _kernel_solver(g)
    w = v.astype(np.longdouble)[:, None]
    for _ in range(3):
        r = _stencil(g, w)[:, 0]
        r[M] -= 1
        w[:, 0] -= solve(r.astype(float))
    miss = np.abs(v - w[:, 0]) / np.spacing(v).astype(np.longdouble)
    assert miss.max() <= 0.5


def test_kernel_solver_inverts_the_operator():
    # A^-1 s for a random s, against a dense solve, for odd and even N
    for N in (3, 4, 5):
        g = build_grid(N, 2.0, 64)
        s = np.random.default_rng(N).standard_normal(g.M + 1)
        x = _kernel_solver(g)(s)
        np.testing.assert_allclose(x, np.linalg.solve(_dense(g), s),
                                   rtol=1e-12, atol=1e-12 * np.abs(x).max())


def _dense(g):
    """A as a dense array, column j from the reference formulas
    apply_operator and boundary_flux on the unit vector e_j: independent
    of _stencil."""
    dense = np.empty((g.M + 1, g.M + 1))
    for j, e in enumerate(np.eye(g.M + 1)):
        dense[:-1, j] = apply_operator(g, e)
        dense[-1, j] = boundary_flux(g, e)
    return dense


def test_stencil_matches_dense():
    # h = 1 keeps the entries O(1), compare against the dense product
    g = build_grid(3, 16.0, 16)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((g.M + 1, 2))
    got = _stencil(g, x)
    assert got.shape == x.shape and got.dtype == x.dtype
    np.testing.assert_allclose(got, _dense(g) @ x, rtol=0, atol=1e-13)
    # each column on its own gives the same bits, and a longdouble
    # column is evaluated in longdouble
    for k in range(2):
        np.testing.assert_array_equal(_stencil(g, x[:, k:k + 1])[:, 0], got[:, k])
    wide = _stencil(g, x[:, :1].astype(np.longdouble))
    assert wide.dtype == np.longdouble
    np.testing.assert_allclose(wide.astype(float), got[:, :1], rtol=0, atol=1e-13)


def test_stencil_beats_double_cancellation():
    # the unit-flux column solves its rows to well below the double floor
    # at the 1/h^2 row scale, and the stencil sees that: it lies within
    # eps max|v| of the exact value of its formula on every row, where the
    # double sums of A's coefficients times values miss it by far more
    g = build_grid(3, 1.0, 512)
    v = solve_flux_bvp(g, 1.0)
    r = _stencil(g, v[:, None])[:, 0]
    r[-1] -= 1.0
    scale = 2.0 / g.h ** 2 + 1.0
    assert np.abs(r).max() / scale < 1e-14
    exact = np.array([float(y) for y in exact_stencil(g, v)])
    err = np.abs(_stencil(g, v[:, None])[:, 0] - exact).max()
    band_err = np.abs(_dense(g) @ v - exact).max()
    eps_v = np.finfo(float).eps * np.abs(v).max()
    assert err <= eps_v < 1e-3 * band_err


@pytest.mark.parametrize("N", [3, 10])
@pytest.mark.parametrize("M", [16, 17, 512, 4096])
def test_stencil_in_place_is_the_expression_bit_for_bit(M, N):
    # the interior rows written in place from two work arrays, with the
    # weights repeated over the columns, give the bits of the whole-array
    # expressions: double operands of 1, 2, 3 and M + 1 columns (M + 1
    # only up to M = 512, where the (M + 1)^2 operand stays small) and a
    # longdouble column whose values use the extended significand
    g = build_grid(N, 1.0, M)
    rng = np.random.default_rng(100 * M + N)
    for k in (1, 2, 3) + ((M + 1,) if M <= 512 else ()):
        u = rng.standard_normal((M + 1, k))
        assert _stencil(g, u).tobytes() == expression_stencil(g, u).tobytes()
    u = rng.standard_normal((M + 1, 1)).astype(np.longdouble)
    u += np.longdouble(2.0 ** -60) * rng.standard_normal((M + 1, 1))
    got, want = _stencil(g, u), expression_stencil(g, u)
    # a longdouble's padding bytes are not part of its value
    assert got.dtype == np.longdouble and (got == want).all()
    assert (np.signbit(got) == np.signbit(want)).all()
    assert not _pair_weights(g).flags.writeable


def test_stencil_keeps_a_nonfinite_value_within_reach():
    # an inf or nan u_j makes exactly the rows j - 1 .. j + 1 non-finite,
    # and row M from u_{M-2}; every other row keeps its bits.  (A[1, 0] is
    # 0 at N = 3, but row 1 reads u_0 through d_0.)
    g = build_grid(3, 1.0, 16)
    i = np.arange(g.M + 1)
    reach = abs(i[:, None] - i) <= 1  # [i, j]: row i reads u_j
    reach[g.M, g.M - 2] = True
    x = np.random.default_rng(5).standard_normal((g.M + 1, 1))
    clean = _stencil(g, x)
    for bad in (np.inf, -np.inf, np.nan):
        for j in range(g.M + 1):
            xj = x.copy()
            xj[j] = bad
            with np.errstate(invalid="ignore"):  # inf - inf in a reached row
                got = _stencil(g, xj)[:, 0]
            hit = reach[:, j]
            assert not np.isfinite(got[hit]).any()
            np.testing.assert_array_equal(got[~hit], clean[~hit, 0])


@pytest.mark.parametrize("M", [16, 17, 128])
def test_pair_operator_is_diag_a_a_interleaved(M):
    # the residual's pair operator: at lam = 0 the residual is linear, and
    # its column for node k of u1 or of u2 is column k of A at the even or
    # at the odd rows, A the stencil of the identity, which agrees with
    # the reference formulas to rounding
    g = build_grid(3, 1.0, M)
    a = _stencil(g, np.eye(M + 1))
    np.testing.assert_allclose(a, _dense(g), rtol=1e-15,
                               atol=4 * np.finfo(float).eps / g.h ** 2)
    want = np.zeros((2 * (M + 1), 2 * (M + 1)))
    want[0::2, 0::2] = a
    want[1::2, 1::2] = a
    eye, zero = np.eye(M + 1), np.zeros(M + 1)
    pair = np.array([residual(g, reference_model(), 0.0, SystemState(*u))
                     for k in range(M + 1)
                     for u in ((eye[k], zero), (zero, eye[k]))]).T
    np.testing.assert_array_equal(pair, want)


def test_weights_cached_and_frozen():
    # the stencil's weights w_j = (N-1)/(2 h r_j) are made once per grid,
    # read-only, and not shared between grids
    g, other = build_grid(3, 1.0, 64), build_grid(3, 1.0, 64)
    w = _weights(g)
    assert w is _weights(g) and w is not _weights(other)
    assert not w.flags.writeable
    np.testing.assert_array_equal(w, _weights(other))
    assert w.shape == (g.M - 1, 1)
    np.testing.assert_array_equal(w[:, 0], 2.0 / (2.0 * g.h * g.r[1:-1]))


def test_system_state_is_one_pair_of_1d_arrays():
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


def test_load_state_csv_refuses_malformed_files(tmp_path):
    # a file from outside the program: no rows, or a row short of r,u1,u2,
    # is a ValueError naming the path (and the line), not an IndexError
    path = tmp_path / "state.csv"
    path.write_text("# no rows\nr,u1,u2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no "):
        load_state_csv(path)
    path.write_text("r,u1,u2\n0,1,2\n1,3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
        load_state_csv(path)


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


def test_state_csv_writes_each_value_as_its_17_digit_text(tmp_path):
    # with no comment line: -0.0, the smallest subnormal, 1e308 and a value
    # that needs all 17 digits, against f"{x:.17g}" value by value
    g = build_grid(3, 1.0, 16)
    special = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
    u1, u2 = np.full(17, 0.25), np.full(17, -1.0)
    u1[:4], u2[-4:] = special, special
    path = tmp_path / "state.csv"
    save_state_csv(path, g, SystemState(u1, u2))
    rows = "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                   for row in zip(g.r.tolist(), u1.tolist(), u2.tolist()))
    assert path.read_bytes() == ("r,u1,u2\n" + rows).encode()
    assert path.read_text().splitlines()[1:5] == [
        "0,-0,-1", "0.0625,4.9406564584124654e-324,-1", "0.125,1e+308,-1",
        "0.1875,0.30000000000000004,-1"]


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-10, max_value=10))
def test_flux_bvp_superposition(f1, f2):
    g = build_grid(3, 1.0, 32)
    lhs = solve_flux_bvp(g, f1) + solve_flux_bvp(g, f2)
    rhs = solve_flux_bvp(g, f1 + f2)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-11)
