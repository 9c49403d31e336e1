"""Built-in cases: reference values, constraints, cross-links to the master
identity, and the documented edge behaviors."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcheck import (
    DivergenceError,
    DomainError,
    KernelParams,
    ParameterError,
    PoleError,
    QuadcheckError,
    QuadratureOptions,
    TransformFunction,
    UnknownCaseError,
    VerificationReport,
    gamma,
    integrate_finite,
    integrate_half_line,
    integrate_real_line,
    kernel_weight,
    list_cases,
    master_lhs,
    reciprocal_gamma,
    run_case,
    zeta,
)
from quadcheck.catalog import CATALOG_ORDER, get_case


def test_catalog_has_six_unique_cases():
    cases = list_cases()
    assert len(cases) == 6
    ids = [c.case_id for c in cases]
    assert len(set(ids)) == 6
    assert tuple(ids) == CATALOG_ORDER


def test_every_case_runs_with_defaults():
    for case in list_cases():
        rep = run_case(case.case_id)
        assert rep.passed, (case.case_id, rep.rel_diff)
        assert rep.case_name == case.case_id


def test_unknown_case():
    with pytest.raises(UnknownCaseError):
        run_case("nope")
    with pytest.raises(UnknownCaseError):
        get_case("")


def test_unknown_parameter_rejected():
    with pytest.raises(ParameterError):
        run_case("rational", {"q": 1.0})


def test_rational_reference_value():
    rep = run_case("rational", {"a": 0.7, "b": 2.0}, tolerance=1e-9)
    assert rep.passed
    for side in (rep.lhs, rep.rhs):
        assert abs(side - 0.163891395181855875) < 1e-12


def test_rational_rejects_nonpositive_b():
    for b in (0.0, -1.0):
        with pytest.raises(ParameterError):
            run_case("rational", {"b": b})
    with pytest.raises(ParameterError):
        run_case("rational", {"b": 1 + 1j})


def test_rational_consistency_with_master():
    # half-line printed form is half of the full-line master integral
    b = 2.0
    rep = run_case("rational", {"a": 0.7, "b": b})
    F = TransformFunction(lambda k: 1.0 / (k + b), schwarz_symmetric=True)
    full = master_lhs(F, KernelParams(0.7))
    combined = 2.0 * rep.diagnostics.error_estimate + full.error_estimate + 1e-13
    assert abs(2.0 * rep.lhs - full.value) <= combined


def test_bessel_reference_value_and_notes():
    rep = run_case("bessel", {"a": 7.0}, tolerance=1e-8)
    assert rep.passed
    assert abs(rep.lhs - 0.00070862111311311305) < 5e-12
    # report notes must document the printed-parameter discrepancy
    assert "0.5416" in rep.notes
    assert "a=7" in rep.notes


def test_bessel_value_at_printed_parameter():
    # at a=0.7 the identity itself still holds, near 0.54
    rep = run_case("bessel", {"a": 0.7})
    assert rep.passed
    assert abs(rep.lhs - 0.54161219399775592045) < 1e-10


def test_gaussian_reference_value():
    rep = run_case("gaussian", {"a": 0.3, "b": 0.3}, tolerance=1e-9)
    assert rep.passed
    assert abs(rep.lhs - 0.024076419758804602) < 5e-12


def test_gaussian_rejects_bad_b():
    with pytest.raises(ParameterError):
        run_case("gaussian", {"b": -0.5})


def test_cosine_complex_a_reference_value():
    rep = run_case("cosine", {"alpha": 0.1, "a": 1 + 2j})
    assert rep.passed
    assert rep.experimental
    expected = -0.078370340252624579 + 0.002642142907085374j
    assert abs(rep.lhs - expected) < 5e-11
    assert abs(rep.rhs - expected) < 1e-14


def test_cosine_diverges_slightly_above_threshold():
    # alpha*pi = 1.0996: growth exp((alpha*pi-1)x) must trip the detector
    with pytest.raises(DivergenceError):
        run_case("cosine", {"alpha": 0.35, "a": 1.0})


def test_cosine_alpha_must_be_real():
    with pytest.raises(ParameterError):
        run_case("cosine", {"alpha": 1j, "a": 1.0})


def test_gamma_case_reference_values():
    for (a, b), expected in (
        ((0.5, 1.0), 1.1283791670955125739),
        ((1.0, 1.0), 1.0),
        ((0.25, 2.0), 0.88261012105666980595),
    ):
        rep = run_case("gamma", {"a": a, "b": b}, tolerance=1e-8)
        assert rep.passed, (a, b)
        assert abs(rep.lhs - expected) < 1e-9
        # realness: the integrand satisfies g(-x) = conj(g(x))
        assert abs(rep.lhs.imag) <= rep.diagnostics.error_estimate


def test_gamma_case_closed_form_uses_gamma_operation():
    rep = run_case("gamma", {"a": 0.5, "b": 1.0})
    assert abs(rep.rhs - 1.0 / gamma(1.5)) < 1e-14


def test_gamma_case_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        run_case("gamma", {"a": 1 + 1j})
    with pytest.raises(ParameterError):
        run_case("gamma", {"a": -0.5})


def test_gamma_case_pole_in_closed_form():
    # a+b at a non-positive integer: closed form is exactly 0 via the
    # entire reciprocal, and the contour side agrees
    rep = run_case("gamma", {"a": 0.0, "b": 1.0})
    assert rep.passed


def test_gamma_substitution_identity():
    # the case equals the sech-kernel master integral with
    # F(k) = 1/gamma(4 a k / pi^2 + b), rescaled by x -> x/pi
    a, b = 0.5, 1.0
    F = TransformFunction(
        lambda k: reciprocal_gamma(4.0 * a * k / math.pi**2 + b),
        schwarz_symmetric=True,
    )
    full = master_lhs(F, KernelParams(1.0))
    rep = run_case("gamma", {"a": a, "b": b})
    assert abs(rep.lhs - (4.0 / math.pi) * full.value) <= 1e-9 * abs(rep.lhs)


def test_zeta_case_reference_values():
    rep = run_case("zeta", {"n": 0, "x": 0.5, "a": 1.0}, tolerance=1e-7)
    assert rep.passed
    assert abs(rep.lhs - 0.13383282111588372706) < 1e-11
    rep = run_case("zeta", {"n": 2, "x": 0.5, "a": 2.0}, tolerance=1e-7)
    assert rep.passed
    assert abs(rep.lhs - 0.049461313200120191826) < 1e-11
    assert abs(rep.rhs - 0.5**0.25 / (2 * math.pi * zeta(2.0) ** 2)) < 1e-14


def test_zeta_case_n0_independent_of_a():
    a1 = run_case("zeta", {"n": 0, "x": 0.5, "a": 1.0})
    a5 = run_case("zeta", {"n": 0, "x": 0.5, "a": 5.0})
    assert abs(a1.lhs - a5.lhs) < 1e-10


def test_zeta_case_closed_form_is_zero_at_a_one():
    rep = run_case("zeta", {"n": 1, "x": 0.5, "a": 1.0}, tolerance=1e-7)
    assert rep.rhs == 0
    assert abs(rep.lhs) < 1e-10
    assert rep.passed  # via the absolute branch of the pass criterion


def test_zeta_case_parameter_constraints():
    with pytest.raises(ParameterError):
        run_case("zeta", {"n": 5})
    with pytest.raises(ParameterError):
        run_case("zeta", {"n": 1.5})
    with pytest.raises(ParameterError):
        run_case("zeta", {"n": -1})
    with pytest.raises(ParameterError):
        run_case("zeta", {"x": 1.0})
    with pytest.raises(ParameterError):
        run_case("zeta", {"x": 0.0})
    with pytest.raises(ParameterError):
        run_case("zeta", {"a": -2.0})
    with pytest.raises(ParameterError):
        run_case("zeta", {"a": 1j})


def test_zeta_case_truncation_is_bounded():
    rep = run_case("zeta", {"n": 1, "x": 0.8, "a": 2.0}, tolerance=1e-7)
    assert rep.passed
    assert rep.diagnostics.truncation_used <= 8.0


def test_zeta_case_warns_near_nontrivial_zero():
    # at a = 100 the contour argument passes within 0.05 of the first
    # nontrivial zero; accuracy is destroyed there, so a warning must fire
    # (and no pass assertion is meaningful)
    import warnings as _warnings

    from quadcheck import AccuracyWarning

    with _warnings.catch_warnings(record=True) as captured:
        _warnings.simplefilter("always")
        run_case("zeta", {"n": 1, "x": 0.5, "a": 100.0}, tolerance=1e-3)
    assert any(
        issubclass(w.category, AccuracyWarning) and "nontrivial" in str(w.message)
        for w in captured
    )


def test_complex_a_marks_experimental_but_still_verifies():
    rep = run_case("rational", {"a": 1 + 1j, "b": 2.0}, tolerance=1e-7)
    assert rep.experimental
    assert rep.passed


def test_defaults_are_merged_with_overrides():
    rep = run_case("rational", {"b": 3.0})
    assert rep.params["a"] == complex(0.7)
    assert rep.params["b"] == complex(3.0)
    assert rep.passed


def test_case_runs_are_deterministic():
    r1 = run_case("gaussian")
    r2 = run_case("gaussian")
    assert r1.lhs == r2.lhs
    assert r1.diagnostics == r2.diagnostics


def test_tight_budget_raises_nonconvergence():
    from quadcheck import NonConvergenceError

    opts = QuadratureOptions(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
    with pytest.raises(NonConvergenceError):
        run_case("gaussian", opts=opts)


# ---------------------------------------------------------------------------
# hand-derived forms as oracles
#
# Each case's printed integrand, simplified by hand on its printed domain,
# and its printed closed form.  The catalog computes neither: it folds the
# master integral onto the half-line, so these check that path from outside.
# ---------------------------------------------------------------------------

_QUARTER_PI_SQ = math.pi * math.pi / 4.0


def _ln_sq(a):
    ln_a = cmath.log(a)
    return ln_a * ln_a


def _rational_hand(p):
    kp, b = KernelParams(p["a"]), p["b"]
    c1 = 2.0 * b + math.pi * math.pi

    def f(x):
        x2 = x * x
        return (x2 + b) / (x2 * x2 + c1 * x2 + b * b) * kernel_weight(kp, x)

    a = complex(p["a"])
    rhs = math.pi / (4.0 * a * (1.0 + a * a) * (b + _QUARTER_PI_SQ + _ln_sq(a)))
    return f, integrate_half_line, rhs


def _bessel_hand(p):
    kp = KernelParams(p["a"])

    def f(x):
        k = complex(x * x, math.pi * x)
        return kernel_weight(kp, x) / cmath.sqrt(1.0 + k * k)

    a = complex(p["a"])
    s = _QUARTER_PI_SQ + _ln_sq(a)
    rhs = math.pi / (2.0 * a * (1.0 + a * a) * cmath.sqrt(1.0 + s * s))
    return f, integrate_real_line, rhs


def _gaussian_hand(p):
    kp, b = KernelParams(p["a"]), p["b"]
    pi2 = math.pi * math.pi

    def f(x):
        x2 = x * x
        return (
            math.exp(-b * x2 * (x2 - pi2))
            * math.cos(2.0 * b * math.pi * x2 * x)
            * kernel_weight(kp, x)
        )

    a = complex(p["a"])
    s = _QUARTER_PI_SQ + _ln_sq(a)
    rhs = cmath.exp(-b * s * s) * math.pi / (4.0 * a * (1.0 + a * a))
    return f, integrate_half_line, rhs


def _cosine_hand(p):
    kp, alpha = KernelParams(p["a"]), p["alpha"]

    def f(x):
        return (
            math.cos(alpha * x * x) * math.cosh(alpha * math.pi * x) * kernel_weight(kp, x)
        )

    a = complex(p["a"])
    s = _QUARTER_PI_SQ + _ln_sq(a)
    rhs = math.pi * cmath.cos(alpha * s) / (4.0 * a * (1.0 + a * a))
    return f, integrate_half_line, rhs


def _gamma_hand(p):
    a, b = p["a"], p["b"]

    def f(x):
        z = complex(4.0 * a * x * x + b, 4.0 * a * x)
        return reciprocal_gamma(z) / math.cosh(math.pi * x)

    return f, integrate_real_line, reciprocal_gamma(complex(a + b))


_HAND_FORMS = {
    "rational": _rational_hand,
    "bessel": _bessel_hand,
    "gaussian": _gaussian_hand,
    "cosine": _cosine_hand,
    "gamma": _gamma_hand,
}


@pytest.mark.parametrize("case_id,params", [
    ("rational", {"a": 0.7, "b": 2.0}),
    ("rational", {"a": 1 + 1j, "b": 2.0}),
    ("rational", {"a": 3.0, "b": 0.1}),
    ("bessel", {"a": 7.0}),
    ("bessel", {"a": 0.7}),
    ("bessel", {"a": 0.5 + 0.5j}),
    ("gaussian", {"a": 0.3, "b": 0.3}),
    ("gaussian", {"a": 1.0, "b": 0.1}),
    ("gaussian", {"a": 2.0, "b": 0.25}),
    ("cosine", {"alpha": 0.1, "a": 1 + 2j}),
    ("cosine", {"alpha": 0.2, "a": 1.0}),
    ("cosine", {"alpha": -0.1, "a": 0.5}),
    ("gamma", {"a": 0.5, "b": 1.0}),
    ("gamma", {"a": 0.25, "b": 2.0}),
    ("gamma", {"a": 0.1, "b": -0.5}),
])
def test_master_cases_match_their_hand_derived_forms(case_id, params):
    f, integrate, rhs = _HAND_FORMS[case_id](params)
    oracle = integrate(f)
    assert oracle.converged
    rep = run_case(case_id, params)
    combined = rep.diagnostics.error_estimate + oracle.error_estimate + 1e-14
    assert abs(rep.lhs - oracle.value) <= combined
    assert abs(rep.rhs - rhs) <= 1e-13 * abs(rhs)


@pytest.mark.parametrize(
    "n,x,a", [(1, 0.5, 2.0), (0, 0.5, 1.0), (2, 0.5, 2.0), (4, 0.9, 3.0)]
)
def test_zeta_case_matches_the_full_contour(n, x, a):
    rep = run_case("zeta", {"n": n, "x": x, "a": a}, tolerance=1e-7)
    T = rep.diagnostics.truncation_used
    ln_x = math.log(x)

    def f(t):
        den = 2.0 * math.pi * math.cosh(math.pi * t)
        den *= zeta(complex(4.0 * a * t * t, 4.0 * a * t)) ** n
        return cmath.exp(complex(t * t * ln_x, t * ln_x)) / den

    oracle = integrate_finite(f, -T, T)
    combined = rep.diagnostics.error_estimate + oracle.error_estimate + 1e-14
    assert abs(rep.lhs - oracle.value) <= combined


def test_real_a_gives_exactly_real_lhs():
    for case_id in CATALOG_ORDER:
        assert run_case(case_id, {"a": 2.0}).lhs.imag == 0.0, case_id


def test_gamma_case_does_not_converge_falsely_to_zero():
    # the closed form is 1/gamma(2) = 1; an unfolded full-line run once
    # stopped after 45 evaluations at a value near 0
    rep = run_case("gamma", {"a": 3.0, "b": -1.0})
    assert rep.passed
    assert abs(rep.lhs - 1.0) < 1e-9


@pytest.mark.parametrize("a", [1e-300, 1e-200])
def test_zeta_case_at_tiny_a_ends_in_a_report(a):
    rep = run_case("zeta", {"n": 1, "a": a})
    assert rep.passed
    assert rep.rhs == pytest.approx(0.5**0.25 / (2 * math.pi * zeta(complex(a))))


@pytest.mark.parametrize("case_id", ["rational", "bessel", "gaussian", "cosine"])
@pytest.mark.parametrize("a", [1j, -1j])
def test_a_at_plus_minus_i_is_a_domain_error(case_id, a):
    with pytest.raises(DomainError):
        run_case(case_id, {"a": a})


#: Evaluation ceilings at each case's defaults: a separate bisection for
#: each half-line window cost this much.
_EVALUATION_CEILING = {
    "rational": 225, "bessel": 465, "gaussian": 1320,
    "cosine": 780, "gamma": 240, "zeta": 255,
}


@pytest.mark.parametrize("case_id", CATALOG_ORDER)
def test_default_runs_stay_within_their_evaluation_ceiling(case_id):
    assert run_case(case_id).diagnostics.evaluations <= _EVALUATION_CEILING[case_id]


def test_gaussian_first_window_follows_rel_tol():
    # the first window shares the tolerance max(abs_tol, rel_tol |lhs|);
    # held to abs_tol/8, it spends the whole budget here
    rep = run_case("gaussian", {"b": 0.32})
    assert rep.passed
    assert rep.diagnostics.evaluations < 1500


@pytest.mark.parametrize("case_id,params", [
    ("bessel", {"a": -1e-300 + 2j}),
    ("cosine", {"alpha": 1.000000001, "a": 1e-300 + 2j}),
])
def test_tiny_variation_integral_does_not_overflow(case_id, params):
    # a tiny resasc makes the Gauss-Kronrod damping ratio overflow a power
    try:
        run_case(case_id, params)
    except QuadcheckError:
        pass


_EXTREME = st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])
_VALUE = st.one_of(
    st.builds(complex, _EXTREME, _EXTREME),
    st.builds(complex, _EXTREME),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("case_id", CATALOG_ORDER)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_parameter_map_ends_in_a_report_or_a_typed_error(case_id, data):
    names = get_case(case_id).param_names
    params = data.draw(st.dictionaries(st.sampled_from(names), _VALUE))
    opts = QuadratureOptions(max_subdivisions=200)
    try:
        result = run_case(case_id, params, opts)
    except QuadcheckError:
        return
    assert isinstance(result, VerificationReport)
