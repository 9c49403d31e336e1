"""Built-in cases: reference values, constraints, cross-links to the master
identity, and the documented edge behaviors."""

import cmath
import heapq
import math
import platform

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadcheck import (
    DivergenceError,
    DomainError,
    KernelParams,
    ParameterError,
    PoleError,
    QuadcheckError,
    NonConvergenceError,
    QuadratureOptions,
    RoundoffError,
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
    verify_master,
    verify_seed,
    zeta,
)
import quadcheck.catalog
import quadcheck.numerics
from quadcheck import kernel
from quadcheck._frozen import replace
from quadcheck.catalog import _ZETA_FIRST_ZERO, CATALOG_ORDER, get_case
from quadcheck.kernel import DEFAULT_TOLERANCE, _verify, master_integral


def test_catalog_has_seven_unique_cases():
    cases = list_cases()
    assert len(cases) == 7
    ids = [c.case_id for c in cases]
    assert len(set(ids)) == 7
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


@pytest.mark.parametrize("alpha", [-0.3, -0.05, 0.0, 0.049, 0.1, 0.3])
def test_cosine_row_states_its_F_and_its_pair_alike(alpha):
    # the rays read F off the pair (c, beta) as c e^{i beta k} + conj(c) e^{-i beta k}
    case = quadcheck.catalog.get_case("cosine")
    p = {"alpha": complex(alpha), "a": 1 + 2j}
    F = case.transform(p)
    c, beta = case.contour(p)
    axis = [y / 4.0 for y in range(33)]
    rays = [complex(8.0, y) for y in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
    for x in axis + rays:
        for k in (x * (x + 1j * math.pi), x * (x - 1j * math.pi)):
            pair = c * cmath.exp(1j * beta * k) + c.conjugate() * cmath.exp(-1j * beta * k)
            assert abs(F(k) - pair) <= 1e-13 * abs(F(k)), (x, k)


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
    # truncation is in the master variable y = pi t: y = 27 is t = 8.6
    assert rep.diagnostics.truncation_used <= 27.0
    assert rep.diagnostics.evaluations <= 255


@pytest.mark.parametrize("a", [_ZETA_FIRST_ZERO**2 / 2.0, 100.0, 150.0, 1000.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zeta_case_refuses_a_past_the_first_zero(monkeypatch, n, a):
    # from a = gamma_1^2/2 on the first zero of zeta(4 a u) is a pole of F
    # on the contour or inside the strip, so no zeta value is ever taken
    def never(s):
        raise AssertionError(f"zeta called at {s!r}")

    monkeypatch.setattr(quadcheck.numerics, "zeta", never)
    with pytest.raises(ParameterError, match="gamma_1"):
        run_case("zeta", {"n": n, "x": 0.5, "a": a})


def test_zeta_case_keeps_a_below_the_first_zero_and_every_a_at_n_0():
    assert run_case("zeta", {"n": 0, "x": 0.5, "a": 1000.0}).passed
    assert run_case("zeta", {"n": 1, "x": 0.5, "a": 99.8}).passed


@pytest.mark.parametrize("a", [0.3j, 0.5j, 2j, -0.7j, 5j])
@pytest.mark.parametrize("case_id", ["rational", "bessel", "gaussian", "cosine"])
def test_imaginary_a_is_a_domain_error_before_any_call_of_F(monkeypatch, case_id, a):
    # Re a = 0 puts a kernel pole on the real axis, at x = +/- ln|a|
    def never(p):
        def F(k):
            raise AssertionError(f"F called at {k!r}")

        return F

    case = get_case(case_id)
    monkeypatch.setitem(quadcheck.catalog._CASES, case_id, replace(case, transform=never))
    with pytest.raises(DomainError, match="Re a = 0"):
        run_case(case_id, {"a": a})


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
    # the cosine tail on the steepest-descent rays is 2 Re of the upward ray
    assert run_case("cosine", {"alpha": 0.25, "a": 2.0}).lhs.imag == 0.0


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
    "cosine": 780, "gamma": 240, "zeta": 255, "kernel": 150,
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


def test_gaussian_running_error_drift_does_not_exhaust_the_budget():
    # the integrand peaks near 6e3 while the integral is 0.0096: the running
    # error total drifts above the exact sum, which alone meets the target
    rep = run_case("gaussian", {"b": 0.36})
    assert rep.passed
    assert rep.diagnostics.evaluations < 2500


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


def test_closed_form_beyond_double_range_is_a_domain_error():
    # a^4 = 1e1200 is beyond double range, which KernelParams refuses before
    # any quadrature or closed form (tests/test_inputs.py overflows the
    # closed form itself at a finite a^2)
    with pytest.raises(DomainError):
        run_case("cosine", {"alpha": 1.0, "a": -1e300})


_EXTREME = st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0])
_VALUE = st.one_of(
    st.builds(complex, _EXTREME, _EXTREME),
    st.builds(complex, _EXTREME),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)


_NAMES = sorted({name for case in list_cases() for name in case.params})


@pytest.mark.parametrize("case_id", CATALOG_ORDER)
@settings(max_examples=100, deadline=None)
@given(drawn=st.dictionaries(st.sampled_from(_NAMES), _VALUE))
# the argument of a underflows to a subnormal, where cmath.phase raised OverflowError
@example(drawn={"a": 2 + 5e-324j})
def test_any_parameter_map_ends_in_a_report_or_a_typed_error(case_id, drawn):
    names = get_case(case_id).params
    params = {name: value for name, value in drawn.items() if name in names}
    opts = QuadratureOptions(max_subdivisions=200)
    try:
        result = run_case(case_id, params, opts)
    except QuadcheckError:
        return
    assert isinstance(result, VerificationReport)


#: Evaluations at each case's defaults, exactly: the roundoff stop must
#: not fire on a run that converges.
# Every bit of the left side (float.hex of both parts) and the evaluation
# count of the default runs: a change meant to be faster, not different,
# keeps them all.  When a result changes on purpose, they are restated from
# the new run, never loosened to tolerances or ceilings.  The bits are those
# of glibc on x86-64: math.exp and cmath's exp and log are not correctly
# rounded, so another libm may differ in the last place with no fault here.
_GLIBC = platform.libc_ver()[0] == "glibc"
_DEFAULT_RESULTS = {
    # every row but cosine on a line: rational and bessel at Im x = -0.8,
    # gaussian, gamma and zeta at their depth, Im x = -1.0
    "rational": ("0x1.4fa64ab3370e7p-3", "0x0.0p+0", 135),
    "bessel": ("0x1.7385840c718a8p-11", "0x0.0p+0", 195),
    "gaussian": ("0x1.8a77d2de0160dp-6", "0x0.0p+0", 180),
    # cosine's default alpha = 0.1 takes the rays
    "cosine": ("-0x1.41014205c85b1p-4", "0x1.5a4f9ac12c291p-9", 255),
    "gamma": ("0x1.20dd750429b6cp+0", "0x0.0p+0", 120),
    "zeta": ("0x1.4d40c58349ac8p-4", "0x0.0p+0", 120),
    # the seed identity's row at its defaults a = t = 1, and verify_seed there
    "kernel": ("0x1.10d11b4c55b2cp-5", "0x0.0p+0", 150),
    "seed": ("0x1.10d11b4c55b2cp-5", "0x0.0p+0", 150),
    # 1/(k+2) at a = 0.7 without the Schwarz flag: the fold sums
    # F(k) + F(conj k), the branch no catalog case takes
    "non-schwarz": ("0x1.4fa64ab3370e8p-2", "0x0.0p+0", 135),
}


def _default_report(name):
    if name == "seed":
        return verify_seed(1.0, 1.0)
    if name == "non-schwarz":
        return verify_master(TransformFunction(lambda k: 1.0 / (k + 2.0)), KernelParams(0.7))
    return run_case(name)


@pytest.mark.parametrize("case_id", CATALOG_ORDER)
def test_default_runs_keep_their_evaluation_counts(case_id):
    assert run_case(case_id).diagnostics.evaluations == _DEFAULT_RESULTS[case_id][2]


@pytest.mark.parametrize("name", list(_DEFAULT_RESULTS))
def test_default_results_keep_every_bit(name):
    rep = _default_report(name)
    re_hex, im_hex, evaluations = _DEFAULT_RESULTS[name]
    if _GLIBC:
        assert (rep.lhs.real.hex(), rep.lhs.imag.hex()) == (re_hex, im_hex)
    assert rep.diagnostics.evaluations == evaluations
    assert rep.passed


# The cosine case takes its tail on the rays X +/- iy only for
# 0.05 <= |alpha| < 1/pi; elsewhere it keeps the real axis.  X is 8 below
# |ln|a|| = 4 and |ln|a|| + 8 from there on.

def test_cosine_below_the_ray_range_keeps_its_real_axis_bits():
    rep = run_case("cosine", {"alpha": 0.049, "a": 1 + 2j})
    if _GLIBC:
        assert (rep.lhs.real.hex(), rep.lhs.imag.hex()) == (
            "-0x1.418b201d88d47p-4", "0x1.4cc45a179cd59p-11"
        )
    assert rep.diagnostics.evaluations == 315


def test_cosine_far_out_in_a_starts_its_rays_8_past_the_kernel_poles(monkeypatch):
    # ln 3000 = 8.0: the kernel's poles would sit on the rays 8 +/- iy, so
    # the rays start at ln 3000 + 8
    calls = []
    weight = kernel.kernel_weight
    monkeypatch.setattr(kernel, "kernel_weight", lambda kp, x: calls.append(x) or weight(kp, x))
    rep = run_case("cosine", {"alpha": 0.15, "a": 3000.0})
    monkeypatch.undo()
    assert rep.passed and rep.diagnostics.error_estimate >= rep.abs_diff
    assert rep.diagnostics.evaluations == 180
    assert {x.real for x in calls if isinstance(x, complex)} == {math.log(3000.0) + 8.0}
    assert max(x for x in calls if isinstance(x, float)) < math.log(3000.0) + 8.0
    # |a| beyond double range: the rule takes ln|a| without forming |a|
    with pytest.raises(QuadcheckError):
        run_case("cosine", {"alpha": 0.15, "a": 1.5e308 + 1.5e308j})


@pytest.mark.parametrize("alpha", [0.25, -0.25, 0.3])
def test_cosine_on_the_rays_passes_for_either_sign_of_alpha(alpha):
    rep = run_case("cosine", {"alpha": alpha, "a": 1.0})
    assert rep.passed
    assert rep.lhs == run_case("cosine", {"alpha": -alpha, "a": 1.0}).lhs


def test_cosine_head_and_rays_take_one_subdivision_budget(monkeypatch):
    # head and rays are one partition: every bisection pops its worst segment once
    pops = []
    heappop = heapq.heappop

    def counting(heap):
        pops.append(1)
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counting)
    with pytest.raises(NonConvergenceError) as err:
        run_case("cosine", {"alpha": 0.3, "a": 1.0}, QuadratureOptions(max_subdivisions=3))
    assert len(pops) == err.value.result.subdivisions == 3
    pops.clear()
    rep = run_case("cosine", {"alpha": 0.3, "a": 1.0}, QuadratureOptions(max_subdivisions=7))
    assert rep.passed
    assert len(pops) == rep.diagnostics.subdivisions == 7
    # the contour parameter s = 8 + y: the last window ends at y = 19
    assert rep.diagnostics.truncation_used == 27.0


@pytest.mark.parametrize("alpha", [0.25, -0.25, 0.3])
@pytest.mark.parametrize("a", [0.7, 2.0, math.exp(-6.0)])
def test_cosine_on_the_rays_keeps_real_a_exactly_real(alpha, a):
    # the downward ray is the conjugate of the upward one, term by term
    assert run_case("cosine", {"alpha": alpha, "a": a}).lhs.imag == 0.0


@pytest.mark.parametrize("case_id,params", [
    ("rational", {"a": 0.7}),
    ("bessel", {"a": 7.0}),
    ("gaussian", {"a": 0.3}),
    ("cosine", {"a": 2.0}),
    ("cosine", {"a": 1 + 2j}),
    ("cosine", {"a": 50 - 50j}),
    ("cosine", {"alpha": 0.3, "a": 2.0}),
])
def test_negative_real_part_of_a_gives_the_result_at_minus_a(case_id, params):
    # the left side depends on a^2 only, and the closed form is taken at -a
    rep = run_case(case_id, params)
    flipped = run_case(case_id, {**params, "a": -params["a"]})
    assert rep.passed and flipped.passed
    assert (flipped.lhs, flipped.rhs) == (rep.lhs, rep.rhs)


# Every row but cosine takes its left side on the line Im x = -c, c its
# depth (0.8, or 1.0 for gaussian, gamma and zeta), capped at 3/4 of the way
# to the nearest kernel pole; cosine keeps its rays.

def test_cosine_on_the_rays_keeps_its_bits():
    rep = run_case("cosine", {"alpha": 0.3, "a": 1.0})
    if _GLIBC:
        assert (rep.lhs.real.hex(), rep.lhs.imag.hex()) == ("0x1.28e5655da22f6p-2", "0x0.0p+0")
    assert rep.diagnostics.evaluations == 330


@pytest.mark.parametrize("b", [0.45, 0.6, 1.0, 2.0])
def test_gaussian_past_the_real_axis_rounding_limit_passes(b):
    # on the real axis each of these ends in a RoundoffError
    assert run_case("gaussian", {"b": b}).passed


def test_gamma_with_true_value_zero_passes_with_an_honest_estimate():
    # on the real axis this point ends in a RoundoffError
    rep = run_case("gamma", {"a": 3.0, "b": -3.0})
    assert rep.passed and rep.rhs == 0
    assert rep.abs_diff <= rep.diagnostics.error_estimate


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("a", [90.0, 99.8])
def test_zeta_next_to_its_first_zero_passes(n, a):
    # the zero is a pole of F just above the real axis, far from the line
    assert run_case("zeta", {"n": n, "a": a}).passed


@pytest.mark.parametrize("case_id", ["rational", "bessel", "gaussian"])
@pytest.mark.parametrize("a", [0.01 + 3j, -0.01 + 3j, 0.001 + 0.5j, 3 + 0.1j])
def test_complex_a_takes_a_capped_shift_and_passes(case_id, a):
    # at 0.01+3i a kernel pole sits 0.0033 below the real axis: c = 0.0025
    assert run_case(case_id, {"a": a}).passed


def test_far_out_in_ln_a_the_rows_take_their_line():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    for a in (1000.0, 1e-3, 1e77, 1e-77):
        line = master_integral(F, KernelParams(a), scale=0.5, contour=0.8)
        assert run_case("rational", {"a": a}).diagnostics == line
    # past |ln|a|| = ln(DBL_MAX)/4 the kernel's denominator leaves double
    # range, which KernelParams refuses before any quadrature
    with pytest.raises(DomainError):
        run_case("rational", {"a": 1e300 + 1e-300j})


def test_the_seed_takes_the_same_line():
    F = TransformFunction(lambda k: cmath.exp(-k), schwarz_symmetric=True)
    on_line = master_integral(F, KernelParams(1.0), scale=0.5, contour=0.8)
    assert verify_seed(1.0, 1.0).diagnostics == on_line
    # the truncation is the y reached along the line
    assert on_line.truncation_used == 12.0


def test_the_line_does_not_need_the_schwarz_flag(monkeypatch):
    # F(k) K(x) + F(conj k) K(conj x) folds the line onto y >= 0 for any F
    F = TransformFunction(lambda k: 1.0 / (k + 2.0))
    params = KernelParams(0.7)
    calls = []
    weight = kernel.kernel_weight
    monkeypatch.setattr(kernel, "kernel_weight", lambda kp, x: calls.append(x) or weight(kp, x))
    line = master_integral(F, params, contour=0.8)
    monkeypatch.undo()
    axis = master_integral(F, params)
    assert line.converged and axis.converged
    # K at each node x = y - 0.8i, then at conj x
    assert len(calls) == 2 * line.evaluations
    assert [x.imag for x in calls[::2]] == [-0.8] * line.evaluations
    assert abs(line.value - axis.value) <= line.error_estimate + axis.error_estimate


def _on_the_real_axis(case_id, params):
    """The row's own run with its left side on the real axis: the catalog
    takes these inputs on the line Im x = -0.8, where none is near
    roundoff."""
    case = get_case(case_id)
    clean = {
        name: rule(name, complex(params.get(name, default)))
        for name, (default, rule) in case.params.items()
    }
    F = TransformFunction(case.transform(clean), schwarz_symmetric=True, name=case_id)
    kp = KernelParams(clean["a"] if case.kernel_a is None else case.kernel_a)
    return _verify(
        case_id, clean, F, kp, None, DEFAULT_TOLERANCE, case.scale, f"case {case_id!r}", case.notes
    )


@pytest.mark.parametrize("case_id,params,ceiling", [
    # large integrands with small integrals: the rounding floor
    # 2 eps * integral of |f| lies above the tolerance; each of these used
    # to spend all 60015 evaluations
    ("gaussian", {"b": 0.37}, 1245),
    ("gaussian", {"b": 0.45}, 855),
    ("gaussian", {"b": 2.0}, 1395),
    ("gamma", {"a": 7, "b": -1}, 915),
    ("gamma", {"a": 7, "b": -2}, 735),
    # true value 0: the budget stop here reported an estimate six times
    # below its true error
    ("gamma", {"a": 3, "b": -3}, 765),
])
def test_roundoff_limited_cases_stop_early(case_id, params, ceiling):
    with pytest.raises(RoundoffError) as err:
        _on_the_real_axis(case_id, params)
    result = err.value.result
    assert isinstance(err.value, NonConvergenceError)
    assert result.roundoff_limited and not result.converged
    assert result.evaluations <= ceiling
    assert result.error_estimate >= result.rounding_floor
    message = str(err.value)
    assert "roundoff" in message and "condition number" in message


@pytest.mark.parametrize("case_id,params,evaluations", [
    # early on, the rounding floor of these runs' coarse partitions exceeds
    # the tolerance, but the converged partition's floor is below it
    # (99.6 % of it at b = 0.36301); a stop on the floor of all segments,
    # settled or not, ended each of them in a RoundoffError after 105 to
    # 255 evaluations
    ("gaussian", {"b": 0.3630130793341837}, 6900),
    ("gaussian", {"a": 0.5, "b": 0.44}, 1770),
    ("gaussian", {"a": 1.0, "b": 0.49}, 2220),
    ("gamma", {"a": 6.3, "b": -1.4}, 990),
])
def test_runs_near_the_rounding_limit_still_converge(case_id, params, evaluations):
    rep = _on_the_real_axis(case_id, params)
    assert rep.passed
    assert rep.diagnostics.evaluations == evaluations
    assert not rep.diagnostics.roundoff_limited


# --- far out in a: the sweep opens its first window at the kernel's peak ------

def test_rational_at_small_a_passes():
    # the kernel peaks at x = |ln a|, 13.8 here; a sweep that opened on [0, 8]
    # read its rise across [0, 8], [8, 12] and [12, 18] as divergence
    rep = run_case("rational", {"a": 1e-6})
    assert rep.passed and rep.rel_diff < 1e-15
    assert rep.diagnostics.evaluations == 345


def test_rational_at_large_a_estimates_its_error():
    # the whole integral lies below abs_tol; a sweep that opened on [0, 8]
    # stopped at 12, before the kernel's peak at x = ln a, with an estimate
    # of 6.0e-22 against a true error of 3.4e-21
    rep = run_case("rational", {"a": 1e6})
    assert rep.diagnostics.error_estimate >= rep.abs_diff
    assert rep.diagnostics.evaluations == 135


def test_rational_at_large_a_passes_only_when_it_agrees():
    # a sweep that opened on [0, 8] passed here with rel_diff 0.27
    rep = run_case("rational", {"a": 1e5})
    assert not rep.passed or rep.rel_diff < 1e-6


_FAR_ROWS = [
    ("rational", {}), ("bessel", {}), ("gaussian", {}), ("cosine", {"alpha": 0.1}),
    ("cosine", {"alpha": 0.3}), ("kernel", {}),
]


#: a = 10^{+/-k}, and e^{+/-L} around the first window's switch at L = 4
_FAR_A = [10.0 ** (sign * k) for k in (3, 4, 6, 8, 12, 20, 30, 50, 76) for sign in (1, -1)] + [
    math.exp(sign * L) for L in (3.9, 3.999, 4.0, 4.1, 5.0, 6.0, 6.5, 7.9, 8.0, 10.0)
    for sign in (1, -1)
]


@pytest.mark.parametrize("case_id, params", _FAR_ROWS, ids=str)
@pytest.mark.parametrize("a", _FAR_A, ids=lambda a: f"{a:.4g}")
def test_far_out_in_a_no_run_passes_unless_it_agrees(case_id, params, a):
    try:
        rep = run_case(case_id, {**params, "a": a})
    except QuadcheckError:
        return
    assert rep.passed
    assert rep.diagnostics.error_estimate >= rep.abs_diff
    # a closed form below abs_tol passes on the absolute branch (ROADMAP item 2)
    assert rep.rel_diff <= 1e-6 or abs(rep.rhs) < 1e-12
