"""The input boundary: every public entry point refuses hostile values typed.

One corpus crosses every argument that takes a number, a transform or
quadrature options.  Each refusal must be a ``DomainError`` or a
``ParameterError``, never a bare Python error; the CLI maps both to exit
code 2, which ``test_cli.py`` checks on the values the command line can
pass.

Two more corpora cover user code, an integrand or a transform F: the
values it returns and the exceptions it raises.  On the left side each
must end in an ``IntegrandError`` naming the node, at the closed form in a
``DomainError``.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

import quadcheck as qc
from quadcheck import (
    DomainError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    ParseError,
    PoleError,
    UnknownCaseError,
)
from quadcheck.kernel import master_integral

_CORPUS = [
    ("text", "x"),
    ("numeric-text", "2"),
    ("numeric-text-exp", "1e-3"),
    ("none", None),
    ("complex", 2 + 1j),
    ("decimal-nan", Decimal("NaN")),
    ("decimal-snan", Decimal("sNaN")),
    ("fraction-huge", Fraction(10**400)),
    ("int-huge", 10**400),
    ("inf", math.inf),
    ("-inf", -math.inf),
    ("nan", math.nan),
    ("dict", {"abs_tol": 1e-3}),
    ("complex-nan", complex(math.nan, 0.0)),
    ("complex-nan-imag", complex(1.0, math.nan)),
    ("complex-inf-imag", complex(0.0, math.inf)),
    ("complex-inf", complex(math.inf, 0.0)),
    ("complex-neg-inf", complex(-math.inf, 1.0)),
]

# Cells where the corpus value is valid for the argument: a complex kernel
# parameter, a complex argument of a special function or of the kernel, or
# binding of an expression variable, None for opts (the documented
# default), and an int budget of any size.
_VALID = {
    ("complex", "run_case params a"),
    ("complex", "KernelParams a"),
    ("complex", "gamma z"),
    ("complex", "reciprocal_gamma z"),
    ("complex", "zeta z"),
    ("complex", "cpow base"),
    ("complex", "cpow exponent"),
    ("complex", "evaluate bindings"),
    ("complex", "kernel_weight x"),
    ("int-huge", "QuadratureOptions max_subdivisions"),
}


def _valid(name, entry):
    return (name, entry) in _VALID or (name == "none" and entry.endswith(" opts"))


_F = qc.TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
_A = qc.KernelParams(0.7)


def _decay(x):
    return math.exp(-abs(x))


_ENTRY_POINTS = {
    "run_case params a": lambda v: qc.run_case("rational", {"a": v}),
    "run_case params b": lambda v: qc.run_case("rational", {"b": v}),
    "run_case params t": lambda v: qc.run_case("kernel", {"t": v}),
    "run_case opts": lambda v: qc.run_case("rational", opts=v),
    "run_case tolerance": lambda v: qc.run_case("rational", tolerance=v),
    "verify_seed a": lambda v: qc.verify_seed(v, 1.0),
    "verify_seed t": lambda v: qc.verify_seed(1.0, v),
    "verify_seed opts": lambda v: qc.verify_seed(1.0, 1.0, opts=v),
    "verify_seed tolerance": lambda v: qc.verify_seed(1.0, 1.0, tolerance=v),
    "KernelParams a": qc.KernelParams,
    "TransformFunction fn": qc.TransformFunction,
    "verify_master opts": lambda v: qc.verify_master(_F, _A, opts=v),
    "verify_master tolerance": lambda v: qc.verify_master(_F, _A, tolerance=v),
    "master_lhs opts": lambda v: qc.master_lhs(_F, _A, v),
    "master_lhs params": lambda v: qc.master_lhs(_F, v),
    "master_rhs params": lambda v: qc.master_rhs(_F, v),
    "master_rhs scale": lambda v: qc.master_rhs(_F, _A, v),
    "QuadratureOptions abs_tol": lambda v: qc.QuadratureOptions(abs_tol=v),
    "QuadratureOptions rel_tol": lambda v: qc.QuadratureOptions(rel_tol=v),
    "QuadratureOptions max_subdivisions": lambda v: qc.QuadratureOptions(max_subdivisions=v),
    "integrate_finite lo": lambda v: qc.integrate_finite(_decay, v, 1.0),
    "integrate_finite hi": lambda v: qc.integrate_finite(_decay, 0.0, v),
    "integrate_finite opts": lambda v: qc.integrate_finite(_decay, 0.0, 1.0, v),
    "integrate_half_line opts": lambda v: qc.integrate_half_line(_decay, v),
    "integrate_half_line peak": lambda v: qc.integrate_half_line(_decay, peak=v),
    "integrate_real_line opts": lambda v: qc.integrate_real_line(_decay, v),
    "gamma z": qc.gamma,
    "reciprocal_gamma z": qc.reciprocal_gamma,
    "zeta z": qc.zeta,
    "cpow base": lambda v: qc.cpow(v, 1.0),
    "cpow exponent": lambda v: qc.cpow(2.0, v),
    "evaluate bindings": lambda v: qc.evaluate(qc.parse("k"), {"k": v}),
    "kernel_weight x": lambda v: qc.kernel_weight(_A, v),
    "kernel_weight params": lambda v: qc.kernel_weight(v, 1.0),
    "master_integral contour": lambda v: master_integral(_F, _A, contour=v),
    "master_integral scale": lambda v: master_integral(_F, _A, scale=v),
}

_CELLS = [
    pytest.param(entry, value, id=f"{entry}-{name}")
    for entry in _ENTRY_POINTS
    for name, value in _CORPUS
    if not _valid(name, entry)
]


@pytest.mark.parametrize("entry, value", _CELLS)
def test_hostile_value_is_a_typed_refusal(entry, value):
    with pytest.raises((DomainError, ParameterError)):
        _ENTRY_POINTS[entry](value)


def test_the_cells_left_out_are_valid_arguments():
    assert qc.KernelParams(2 + 1j).a == 2 + 1j
    assert qc.run_case("rational", {"a": 2 + 1j}).experimental
    assert qc.run_case("rational", opts=None) == qc.run_case("rational")
    assert qc.QuadratureOptions(max_subdivisions=10**400).max_subdivisions == 10**400
    assert qc.kernel_weight(_A, 2 + 1j) == qc.kernel_weight(_A, complex(-2, -1))


#: A finite complex whose modulus is beyond double range: every argument that
#: takes a complex answers it with a value or a typed error, never a bare
#: OverflowError from abs().
_HUGE_MODULUS = complex(1.5e308, 1.5e308)


@pytest.mark.parametrize("entry", sorted(e for name, e in _VALID if name == "complex"))
def test_complex_whose_modulus_overflows_is_a_value_or_a_typed_error(entry):
    try:
        _ENTRY_POINTS[entry](_HUGE_MODULUS)
    except qc.QuadcheckError:
        pass


def test_verification_tolerance_is_stored_as_the_float_compared():
    report = qc.run_case("rational", tolerance=Fraction(1, 10**8))
    assert type(report.tolerance) is float and report.tolerance == 1e-8


# --- user code: what it returns, and what it raises ---------------------------

_RETURNED = [
    ("text", "x"),
    ("numeric-text", "1e-3"),
    ("none", None),
    ("nan", math.nan),
    ("inf", math.inf),
    ("int-huge", 10**400),
    ("decimal-snan", Decimal("sNaN")),
]


def _raise_attribute_error(k):
    return None.real


_RAISED = [
    ("sqrt-complex", lambda k: math.sqrt(1j)),  # TypeError
    ("sqrt-negative", lambda k: math.sqrt(-1)),  # ValueError
    ("division-by-zero", lambda k: 1 / 0),  # ZeroDivisionError
    ("exp-overflow", lambda k: math.exp(1000)),  # OverflowError
    ("attribute", _raise_attribute_error),  # AttributeError
]

_USER_CODE = [(name, (lambda k, v=v: v)) for name, v in _RETURNED] + _RAISED

# the left side: every integrator, and the master integral with either fold
_LEFT = {
    "integrate_finite": lambda fn: qc.integrate_finite(fn, 0.0, 1.0),
    "integrate_half_line": qc.integrate_half_line,
    "integrate_real_line": qc.integrate_real_line,
    "verify_master flag": lambda fn: qc.verify_master(
        qc.TransformFunction(fn, schwarz_symmetric=True), _A
    ),
    "verify_master no flag": lambda fn: qc.verify_master(qc.TransformFunction(fn), _A),
}


@pytest.mark.parametrize("fn", [f for _, f in _USER_CODE], ids=[n for n, _ in _USER_CODE])
@pytest.mark.parametrize("entry", list(_LEFT))
def test_failing_user_code_on_the_left_side_is_an_integrand_error(entry, fn):
    with pytest.raises(IntegrandError) as err:
        _LEFT[entry](fn)
    assert "integrand fails at x = " in str(err.value)


@pytest.mark.parametrize("schwarz", [True, False])
@pytest.mark.parametrize("fn", [f for _, f in _USER_CODE], ids=[n for n, _ in _USER_CODE])
def test_failing_user_code_at_the_closed_form_is_a_domain_error(fn, schwarz):
    with pytest.raises(DomainError):
        qc.master_rhs(qc.TransformFunction(fn, schwarz_symmetric=schwarz), _A)


@pytest.mark.parametrize("value, a", [
    (1e300, 1e-300),  # the quotient overflows
    # pi F overflows before the division, and the closed form, about
    # 2.01e308, is beyond double range too
    (8e307, 0.5),
])
def test_closed_form_beyond_double_range_is_a_domain_error(value, a):
    F = qc.TransformFunction(lambda k: value, schwarz_symmetric=True)
    with pytest.raises(DomainError):
        qc.master_rhs(F, qc.KernelParams(a))


def test_pole_error_at_the_closed_form_stays_a_pole_error():
    # F is regular on the contour (complex k) and hits a gamma pole at the
    # real k0 of the closed form
    F = qc.TransformFunction(
        lambda k: 1.0 if k.imag else qc.gamma(0), schwarz_symmetric=True
    )
    with pytest.raises(PoleError):
        qc.master_rhs(F, _A)


def test_real_line_integrand_error_names_the_side_that_failed():
    with pytest.raises(IntegrandError) as err:
        qc.integrate_real_line(lambda x: math.nan if x < -3 else math.exp(-abs(x)))
    assert err.value.abscissa == -3.9914553711208125


def test_real_line_fold_does_not_parse_numeric_text():
    with pytest.raises(IntegrandError):
        qc.integrate_real_line(lambda x: "1e-3")


def test_sum_beyond_double_range_ends_unconverged():
    # each rule is finite; only the exact sum of the first window overflows
    r = qc.integrate_half_line(lambda x: 4e307 if x < 8 else 0.0)
    assert not r.converged
    assert not math.isfinite(r.error_estimate)
    F = qc.TransformFunction(lambda k: 2e305, schwarz_symmetric=True)
    with pytest.raises(NonConvergenceError):
        qc.master_lhs(F, qc.KernelParams(1e-3))


def test_sum_just_inside_double_range_still_converges():
    r = qc.integrate_half_line(lambda x: 2e307 if x < 8 else 0.0)
    assert r.converged and r.value == 1.6000000000000002e308


# --- object arguments ----------------------------------------------------------

_OBJECTS = {
    "verify_master params": (lambda: qc.verify_master(_F, 0.7), DomainError),
    "verify_master F": (lambda: qc.verify_master(0.7, _A), DomainError),
    "master_lhs F": (lambda: qc.master_lhs("x", _A), DomainError),
    "master_rhs params": (lambda: qc.master_rhs(_F, None), DomainError),
    "verify_seed a<0": (lambda: qc.verify_seed(-0.7, 1.0), ParameterError),
    "schwarz flag text": (
        lambda: qc.TransformFunction(_decay, schwarz_symmetric="no"), DomainError
    ),
    "schwarz flag int": (lambda: qc.TransformFunction(_decay, schwarz_symmetric=1), DomainError),
    "run_case params list": (lambda: qc.run_case("rational", ["a"]), ParameterError),
    "run_case params int-huge": (lambda: qc.run_case("rational", 10**400), ParameterError),
    "run_case params zero": (lambda: qc.run_case("rational", 0), ParameterError),
    "run_case params empty text": (lambda: qc.run_case("rational", ""), ParameterError),
    "run_case params empty list": (lambda: qc.run_case("rational", []), ParameterError),
    "run_case id list": (lambda: qc.run_case([]), UnknownCaseError),
    "parse source none": (lambda: qc.parse(None), ParseError),
    "parse source int": (lambda: qc.parse(123), ParseError),
    "parse source bytes": (lambda: qc.parse(b"k"), ParseError),
    "parse source list": (lambda: qc.parse(["k"]), ParseError),
    "evaluate bindings mapping none": (lambda: qc.evaluate(qc.parse("k"), None), DomainError),
    "evaluate bindings mapping list": (
        lambda: qc.evaluate(qc.parse("k"), [("k", 1.0)]), DomainError
    ),
    # a contour is a depth >= 0 or one pair (c, beta) of finite numbers with
    # beta real and >= 0, checked before any quadrature
    "master_integral contour pair list": (
        lambda: master_integral(_F, _A, contour=[0.5, 0.2]), DomainError
    ),
    "master_integral contour one-element tuple": (
        lambda: master_integral(_F, _A, contour=(0.5,)), DomainError
    ),
    "master_integral contour three-element tuple": (
        lambda: master_integral(_F, _A, contour=(0.5, 0.2, 0.0)), DomainError
    ),
    # the mirror term of the pair is implied, never given
    "master_integral contour tuple of pairs": (
        lambda: master_integral(_F, _A, contour=((0.5, 0.2), (0.5, -0.2))), DomainError
    ),
    "master_integral contour empty tuple": (
        lambda: master_integral(_F, _A, contour=()), DomainError
    ),
    "master_integral contour negative depth": (
        lambda: master_integral(_F, _A, contour=-0.5), DomainError
    ),
    "master_integral contour negative beta": (
        lambda: master_integral(_F, _A, contour=(0.5, -0.2)), DomainError
    ),
    "master_integral contour complex beta": (
        lambda: master_integral(_F, _A, contour=(0.5, 0.2j)), DomainError
    ),
    "master_integral contour nan beta": (
        lambda: master_integral(_F, _A, contour=(0.5, math.nan)), DomainError
    ),
    "master_integral contour nan c": (
        lambda: master_integral(_F, _A, contour=(math.nan, 0.2)), DomainError
    ),
    "master_integral contour text c": (
        lambda: master_integral(_F, _A, contour=("0.5", 0.2)), DomainError
    ),
}


def test_every_refusal_is_a_domain_error():
    # the CLI maps DomainError to exit code 2 with one clause
    for error in (ParameterError, UnknownCaseError, ParseError, qc.EvaluationError, PoleError):
        assert issubclass(error, DomainError), error
    assert issubclass(UnknownCaseError, KeyError)


@pytest.mark.parametrize("entry", list(_OBJECTS))
def test_wrong_typed_object_argument_is_a_typed_refusal(entry):
    call, error = _OBJECTS[entry]
    with pytest.raises(error):
        call()


def test_a_depth_of_zero_of_either_sign_is_the_axis():
    axis = master_integral(_F, _A)
    assert master_integral(_F, _A, contour=-0.0) == axis
    assert master_integral(_F, _A, contour=0) == axis
