"""Nonlinearity models: evaluation, remainders, combined bounds, hypotheses."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radbif import (ConfigError, NonlinearityModel, bifurcation_point,
                    build_grid, build_report, eval_f, f_extended,
                    fprime_extended, linear_model, polynomial_model,
                    quadratic_model, r0_bounds, reference_model,
                    validate_hypotheses, zeta)


def test_reference_values_at_zero_and_one():
    m = reference_model()
    assert eval_f(m, 1, 0.0) == 0.0
    assert eval_f(m, 1, 1.0) == 1.0  # 1 - 1 + 1
    assert eval_f(m, 2, 2.0) == 4.0  # 2 + 2


def test_negative_argument_is_domain_error():
    m = reference_model()
    with pytest.raises(ValueError):
        eval_f(m, 1, -0.5)


def test_extension_is_linear_below_zero():
    m = reference_model()
    assert f_extended(m, 1, -0.25) == -0.25 * fprime_extended(m, 1, 0.0)
    assert fprime_extended(m, 1, -0.25) == fprime_extended(m, 1, 0.0)
    # C1 match at the origin
    assert f_extended(m, 2, 0.0) == 0.0
    assert fprime_extended(m, 2, 0.0) == m.df2(0.0) == 1.0


def test_slopes_at_zero_are_read_off_df():
    # f_i'(0) is stated once, as df_i(0): mu0, zeta and the extension
    # below zero all read it there
    fields = dict(f1=lambda s: 2.0 * s + s * s, f2=lambda s: 0.5 * s + s * s,
                  df1=lambda s: 2.0 + 2.0 * s, df2=lambda s: 0.5 + 2.0 * s,
                  p1=2.0, p2=2.0, b1=1.0, b2=1.0, nu1=2.0, nu2=2.0, K=0.5,
                  r_lims=(1.0, 1.0, 1.0, 1.0))
    m = NonlinearityModel(**fields)
    assert bifurcation_point(m, 0.3) == 0.3  # sigma = sqrt(2 * 0.5) = 1
    assert zeta(m) == 0.5  # sqrt(0.5 / 2)
    assert f_extended(m, 1, -0.25) == -0.5
    assert f_extended(m, 2, -0.25) == -0.125
    assert fprime_extended(m, 1, -0.25) == 2.0
    assert fprime_extended(m, 2, -1.0) == 0.5
    with pytest.raises(TypeError):
        NonlinearityModel(**fields, fp0_1=2.0)
    with pytest.raises(ConfigError, match="f1'\\(0\\)"):
        replace(m, df1=lambda s: math.nan)


def test_polynomial_model_matches_polyval_bitwise():
    # the scalar Horner loop keeps numpy polyval's operation order
    pv = np.polynomial.polynomial.polyval
    rng = np.random.default_rng(20)
    args = np.concatenate([rng.uniform(0.0, 1e-300, 1000),
                           rng.uniform(0.0, 10.0, 1000),
                           10.0 ** rng.uniform(50.0, 100.0, 1000), [0.0]])
    c1, c2 = [0.0, 1.0, -1.0, 1.0], [0.0, 1.0, 0.5]
    m = polynomial_model(c1, c2)
    pairs = [(m.f1, c1), (m.f2, c2),
             (m.df1, [1.0, -2.0, 3.0]), (m.df2, [1.0, 1.0])]
    for s in args.tolist():
        for f, c in pairs:
            assert (np.float64(f(s)).tobytes()
                    == np.float64(pv(s, np.array(c))).tobytes()), (s, c)


def test_linear_model_remainder_vanishes():
    m = linear_model(2.0, 3.0)
    assert m.r_lims == (0.0, 0.0, 0.0, 0.0)
    assert r0_bounds(m) == (0.0, 0.0)


def test_remainder_limits_analytic_reference():
    assert reference_model().r_lims == (-1.0, -1.0, 0.5, 0.5)


def test_r0_bounds_reference_is_minus_one_eighth():
    lo, hi = r0_bounds(reference_model())
    assert lo == pytest.approx(-0.125, abs=1e-15)
    assert hi == pytest.approx(-0.125, abs=1e-15)


def test_r0_bounds_weighted_combination():
    # zeta = 2 (derivative ratio 4), nu = 2, R1 = 3, R2 = 0:
    # R0 = 1/2 * (2/3) * 3 + 1/2 * (1/3) * 0 = 1
    m = NonlinearityModel(
        f1=lambda s: s, f2=lambda s: 4.0 * s,
        df1=lambda s: 1.0, df2=lambda s: 4.0,
        p1=2.0, p2=2.0, b1=1.0, b2=1.0,
        nu1=2.0, nu2=2.0, K=1.0, r_lims=(3.0, 3.0, 0.0, 0.0))
    assert zeta(m) == pytest.approx(2.0, abs=1e-15)
    lo, hi = r0_bounds(m)
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(1.0, abs=1e-14)


def test_validate_reference_model_passes():
    report = validate_hypotheses(reference_model(), 3)
    assert [c.name for c in report if not c.passed] == []
    # p1=2, p2=3, window (1, 3]
    assert {c.name: c.passed for c in report}["exponent-range"]


def test_validate_rejects_vanishing_derivative_at_zero():
    m = NonlinearityModel(
        f1=lambda s: s * s, f2=lambda s: s,
        df1=lambda s: 2.0 * s, df2=lambda s: 1.0,
        p1=2.0, p2=2.0, b1=1.0, b2=1.0,
        nu1=2.0, nu2=2.0, K=1e-8)
    passed = {c.name: c.passed for c in validate_hypotheses(m, 3)}
    assert not passed["positive-derivative-at-zero"]
    assert not all(passed.values())


def test_validate_rejects_both_exponents_critical():
    m = polynomial_model([0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0])
    report = validate_hypotheses(m, 3)  # critical exponent N/(N-2) = 3
    assert not {c.name: c.passed for c in report}["not-both-critical"]


def test_validate_refuses_a_dimension_build_grid_refuses():
    # the window (1, N/(N-2)] needs N >= 3: at N = 2 it divides by zero,
    # at N = 1 and 0 it is empty
    for N_dim in (2, 1, 0, 3.0):
        with pytest.raises(ConfigError, match="spatial dimension must be an "
                                              "integer >= 3"):
            validate_hypotheses(reference_model(), N_dim)


def test_polynomial_model_rejects_bad_coefficients():
    with pytest.raises(ConfigError):
        polynomial_model([1.0, 1.0], [0.0, 1.0])  # f(0) != 0
    with pytest.raises(ConfigError):
        polynomial_model([0.0, -1.0], [0.0, 1.0])  # f'(0) <= 0
    with pytest.raises(ConfigError, match="coeffs1 needs at least"):
        polynomial_model([0.0], [0.0, 1.0])  # no s^1 coefficient


def test_model_parameter_validation():
    with pytest.raises(ConfigError):
        linear_model(0.0, 1.0)
    with pytest.raises(ConfigError):
        replace(polynomial_model([0, 1.0], [0, 1.0]), nu1=1.0)  # nu must exceed 1
    with pytest.raises(ConfigError):
        replace(polynomial_model([0, 1.0], [0, 1.0]), K=0.0)
    with pytest.raises(ConfigError, match="growth exponents"):
        replace(reference_model(), p1=0.0)
    with pytest.raises(ConfigError, match="asymptotic coefficients"):
        replace(reference_model(), b1=-0.5)


@given(st.floats(min_value=1e-3, max_value=1e2))
def test_derivative_matches_central_difference(s):
    m = reference_model()
    d = 1e-6 * max(1.0, s)
    for i in (1, 2):
        fd = (eval_f(m, i, s + d) - eval_f(m, i, s - d)) / (2.0 * d)
        ex = fprime_extended(m, i, s)
        assert abs(ex - fd) <= 1e-6 * max(1.0, abs(ex))


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0, max_value=3))
def test_r0_bounds_monotone_in_remainder_limits(base, bump):
    # raising the upper limit of either remainder cannot lower R0's upper bound
    def bounds(hi1, hi2):
        m = NonlinearityModel(
            f1=lambda s: s, f2=lambda s: s,
            df1=lambda s: 1.0, df2=lambda s: 1.0,
            p1=2.0, p2=2.0, b1=1.0, b2=1.0,
            nu1=2.0, nu2=2.0, K=1.0,
            r_lims=(base - 1.0, hi1, base - 1.0, hi2))
        return r0_bounds(m)
    _, hi_ref = bounds(base, base)
    _, hi_b1 = bounds(base + bump, base)
    _, hi_b2 = bounds(base, base + bump)
    assert hi_b1 >= hi_ref - 1e-12
    assert hi_b2 >= hi_ref - 1e-12


def test_zeta_and_nu_accessors():
    m = reference_model()
    assert zeta(m) == 1.0
    assert m.nu == 2.0
    assert math.isclose(zeta(linear_model(1.0, 4.0)), 2.0)
    with pytest.raises(ConfigError):
        zeta(NonlinearityModel(
            f1=lambda s: s * s, f2=lambda s: s,
            df1=lambda s: 2.0 * s, df2=lambda s: 1.0,
            p1=2.0, p2=2.0, b1=1.0, b2=1.0,
            nu1=2.0, nu2=2.0, K=1.0))


def test_quadratic_model_data():
    m = quadratic_model()
    assert m.r_lims == (1.0, 1.0, 1.0, 1.0)
    assert r0_bounds(m) == (0.5, 0.5)
    assert all(c.passed for c in validate_hypotheses(m, 3))


def _log_model(**kw):
    """f1 = s + s^2/log(e + 1/s), f2 = s + s^2/2: R1(s)/s^2 tends to 0 as
    1/log(1/s), too slowly for any sample near zero to show it."""
    def f1(s):
        return s + s * s / math.log(math.e + 1.0 / s) if s > 0 else 0.0

    def df1(s):
        if s == 0:
            return 1.0
        log = math.log(math.e + 1.0 / s)
        return 1.0 + 2.0 * s / log + 1.0 / ((math.e + 1.0 / s) * log * log)

    return NonlinearityModel(
        f1=f1, f2=lambda s: s + 0.5 * s * s, df1=df1, df2=lambda s: 1.0 + s,
        p1=2.0, p2=2.0, b1=0.5, b2=1.0,
        nu1=2.0, nu2=2.0, K=1.0, **kw)


def test_remainder_limits_are_model_data():
    # bounds come from r_lims as stated, however f_i behaves near zero
    m = _log_model(r_lims=(0.0, 0.0, 0.5, 0.5))
    assert r0_bounds(m) == (0.125, 0.125)


def test_bounds_refuse_a_model_without_remainder_limits():
    # R0 = 1/8 here; no sample of f1 may stand in for the limits
    m = _log_model()
    with pytest.raises(ConfigError, match="r_lims"):
        r0_bounds(m)
    with pytest.raises(ConfigError, match="r_lims"):
        build_report(build_grid(3, 1.0, 64), m)
    # what does not read the limits still works
    assert zeta(m) == 1.0
    assert {c.name: c.passed for c in validate_hypotheses(m, 3)}["nonneg"]


_LINEAR_FIELDS = dict(f1=lambda s: s, f2=lambda s: s, df1=lambda s: 1.0,
                      df2=lambda s: 1.0, p1=2.0, p2=2.0, b1=1.0, b2=1.0,
                      nu1=2.0, nu2=2.0, K=1.0)


def test_remainder_limits_must_be_four_finite_reals():
    # r0_bounds reads r_lims as four numbers and weighs them; an infinite
    # limit gives an infinite or NaN bound, so each is refused up front
    for lims in ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0), ("a", "b", "c", "d"),
                 "abcd", 1.0, (-math.inf, math.inf, 0.0, 0.0),
                 (-math.inf, 0.0, 0.0, math.inf), (0.0, 0.0, 1.0, 0.0)):
        with pytest.raises(ConfigError, match="r_lims must be 4 finite real"):
            NonlinearityModel(**_LINEAR_FIELDS, r_lims=lims)
    for lims in ((-1.0, 2.0, 0.0, 0.0), [0, 1, np.float64(0.5), 0.5]):
        assert NonlinearityModel(**_LINEAR_FIELDS, r_lims=lims).r_lims == lims


@pytest.mark.parametrize("key", ["p1", "p2", "b1", "b2", "df1", "df2",
                                 "nu1", "nu2", "K"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_model_constant_is_rejected(key, value):
    # f_i'(0) is no field but df_i(0), refused where the model is built
    if key.startswith("df"):
        field, name = (lambda s: value + s), f"f{key[2]}'\\(0\\) = {key}"
    else:
        field, name = value, key
    with pytest.raises(ConfigError, match=f"{name}.* must be finite"):
        NonlinearityModel(**{**_LINEAR_FIELDS, key: field})


def test_non_finite_model_inputs_are_rejected():
    with pytest.raises(ConfigError, match="lo <= hi"):
        NonlinearityModel(**_LINEAR_FIELDS, r_lims=(0.0, math.nan, 0.0, 0.0))
    for coeffs in ([0.0, math.nan], [0.0, 1.0, math.nan], [0.0, 1.0, math.inf]):
        with pytest.raises(ConfigError, match="coeffs1: coefficients must be finite"):
            polynomial_model(coeffs, [0.0, 1.0])
    for slope in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            linear_model(slope)
        with pytest.raises(ConfigError, match="positive and finite"):
            linear_model(1.0, slope)
    # a custom f with f(0) = NaN does not vanish at zero
    with pytest.raises(ConfigError, match="f1\\(0\\) must vanish"):
        NonlinearityModel(**{**_LINEAR_FIELDS, "f1": lambda s: s + math.nan})


def test_growth_coefficient_check_detects_wrong_b():
    m = replace(reference_model(), b1=2.5)  # b1 is wrong (true 0.5)
    report = validate_hypotheses(m, 3)
    assert not {c.name: c.passed for c in report}["growth-coefficient"]


def _expm1_model(c):
    """f_i = expm1(s/c), f_i' = exp(s/c)/c: monotone, vanishing at 0, and
    out of double range (OverflowError) from s of about 709.8 c on."""
    f, df = (lambda s: math.expm1(s / c)), (lambda s: math.exp(s / c) / c)
    return NonlinearityModel(f1=f, f2=f, df1=df, df2=df, p1=2.0, p2=2.0,
                             b1=1.0, b2=1.0, nu1=2.0, nu2=2.0, K=1.0 / c)


def test_a_sample_out_of_range_is_a_failed_entry():
    # f = expm1 overflows inside the sampling window [1e-8, 1e3]: the
    # sampled entries fail with the reason, and nothing raises
    checks = {c.name: c for c in validate_hypotheses(_expm1_model(1.0), 3)}
    for name in ("nonneg", "linear-minorant", "monotone"):
        assert not checks[name].passed
        assert "failed: math range error" in checks[name].detail
    assert checks["positive-derivative-at-zero"].passed
    assert checks["growth-coefficient"].detail.startswith(
        "growth sampling failed")
    # at c = 10 it overflows only above 1e3, in the growth sampling alone
    checks = validate_hypotheses(_expm1_model(10.0), 3)
    assert [c.name for c in checks if not c.passed] == ["growth-coefficient"]
    assert checks[-1].detail == "growth sampling failed: math range error"


def test_monotone_machinery_refuses_a_model_whose_sampling_fails(grid128):
    from radbif import Branch, SystemState, monotone_iterate, solutions_at
    model = _expm1_model(1.0)
    match = "not monotone nondecreasing: sampling f_i' failed"
    with pytest.raises(ConfigError, match=match):
        solutions_at(Branch(grid128, model), 0.3)
    with pytest.raises(ConfigError, match=match):
        monotone_iterate(grid128, model, 0.3, SystemState.zero(grid128))


@pytest.mark.parametrize("i", [0, 3])
def test_component_index_is_one_or_two(i):
    m = reference_model()
    for fn in (f_extended, fprime_extended, eval_f):
        with pytest.raises(ValueError,
                           match=f"component index must be 1 or 2, got {i}"):
            fn(m, i, 0.5)


_FIELDS = ("p1", "p2", "b1", "b2", "f1'(0)", "f2'(0)", "nu1", "nu2", "K",
           "r_lims")


def _constants(m):
    """The model's constants, with f_i'(0) read off df_i as every caller
    reads it."""
    out = {key: getattr(m, key) for key in _FIELDS if "'" not in key}
    out["f1'(0)"], out["f2'(0)"] = (fprime_extended(m, i, 0.0) for i in (1, 2))
    return out


@pytest.mark.parametrize("model, expected", [
    (reference_model(), (2.0, 3.0, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 0.75,
                         (-1.0, -1.0, 0.5, 0.5))),
    (quadratic_model(), (2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0,
                         (1.0, 1.0, 1.0, 1.0))),
    (linear_model(2.0, 3.0), (1.0, 1.0, 3.0, 2.0, 2.0, 3.0, 2.0, 2.0, 2.0,
                              (0.0, 0.0, 0.0, 0.0))),
])
def test_builtin_constants_are_derived_exactly(model, expected):
    # the values these models used to state by hand
    assert _constants(model) == dict(zip(_FIELDS, expected))


def test_trailing_zero_coefficients_change_nothing():
    m = polynomial_model([0.0, 1.0, -1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0])
    assert _constants(m) == _constants(reference_model())


def test_linear_component_takes_the_other_remainder_exponent():
    # R1 = 0, so nu1 takes nu2 = 3; the limit of R2(s)/s^3 is 2
    m = polynomial_model([0.0, 1.0], [0.0, 1.0, 0.0, 2.0])
    assert (m.nu1, m.nu2, m.r_lims) == (3.0, 3.0, (0.0, 0.0, 2.0, 2.0))
    # nu2 = 3 > nu = 2: R2(s)/s^2 -> 0
    m = polynomial_model([0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 2.0])
    assert (m.nu1, m.nu2, m.r_lims) == (2.0, 3.0, (1.0, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("g, inf_g", [
    ([4.1, -12.0, 13.0, -6.0, 1.0], 0.1),   # (s-1)^2 (s-2)^2 + 1/10
    ([1.25, -4.0, 6.0, -4.0, 1.0], 0.25),   # (s-1)^4 + 1/4
])
def test_linear_minorant_of_a_quartic_quotient(g, inf_g):
    # f1 = s g(s) and f2 = s + s^2, so K = inf g; for (s-1)^4 + 1/4, g'
    # has a triple root, which the root finder returns with imaginary
    # parts far above eps
    m = polynomial_model([0.0, *g], [0.0, 1.0, 1.0])
    s = np.linspace(0.0, 4.0, 400001)[1:]
    assert m.K <= float((m.f1(s) / s).min()) + 1e-12
    assert m.K == pytest.approx(inf_g, abs=1e-12)


def test_polynomial_model_refuses_what_breaks_the_hypotheses():
    with pytest.raises(ConfigError, match="coeffs1: leading coefficient"):
        polynomial_model([0.0, 1.0, -1.0], [0.0, 1.0, 1.0])
    # f2(s)/s = 1 - 3s + s^2 falls to -1.25 at s = 3/2
    with pytest.raises(ConfigError, match="coeffs2: f\\(s\\)/s falls to -1.25"):
        polynomial_model([0.0, 1.0, 1.0], [0.0, 1.0, -3.0, 1.0])


def _bits(m, points):
    """Every constant of m and f_i, df_i at the points, as exact bits."""
    values = [m.p1, m.p2, m.b1, m.b2, m.nu1, m.nu2, m.K, *m.r_lims]
    values += [f(s) for f in (m.f1, m.f2, m.df1, m.df2) for s in points]
    return np.array(values).tobytes()


def test_polynomial_model_input_forms_give_the_same_bits():
    # an array, a tuple, ints and trailing zeros are the float list
    points = [0.0, 1e-300, 1e-8, 0.37, 1.0, 2.5, 1e5, 1e80]
    c1, c2 = [0.0, 2.0, -3.0, 2.0], [0.0, 1.0, 4.0]
    want = _bits(polynomial_model(c1, c2), points)
    for a, b in ((np.array(c1), np.array(c2)), (tuple(c1), tuple(c2)),
                 ([0, 2, -3, 2], [0, 1, 4]),
                 ([*c1, 0.0, 0.0], np.array([*c2, 0.0]))):
        assert _bits(polynomial_model(a, b), points) == want, (a, b)


def test_polynomial_model_input_errors_keep_their_text():
    with pytest.raises(ConfigError,
                       match="^coeffs1 needs at least the s\\^0 and s\\^1"):
        polynomial_model(np.array([[0.0, 1.0], [0.0, 1.0]]), [0.0, 1.0])
    for coeffs in ([0.0, 1.0, math.inf], np.array([0.0, 1.0, math.inf])):
        with pytest.raises(ConfigError) as exc:
            polynomial_model(coeffs, [0.0, 1.0])
        assert str(exc.value) == ("coeffs1: coefficients must be finite, "
                                  "got [0.0, 1.0, inf]")
    for coeffs in ([0, 1, -2, 0], np.array([0.0, 1.0, -2.0])):
        with pytest.raises(ConfigError) as exc:
            polynomial_model([0.0, 1.0], coeffs)
        assert str(exc.value) == ("coeffs2: leading coefficient must be "
                                  "positive, got -2.0")
