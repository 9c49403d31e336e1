"""The input boundary: every public entry point refuses hostile values typed.

One corpus crosses every argument that takes a number, a transform or
quadrature options.  Each refusal must be a ``DomainError`` or a
``ParameterError``, never a bare Python error; the CLI maps both to exit
code 2, which ``test_cli.py`` checks on the values the command line can
pass.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

import quadcheck as qc
from quadcheck import DomainError, ParameterError

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
]

# Cells where the corpus value is valid for the argument: a complex kernel
# parameter, None for opts (the documented default), and an int budget of
# any size.
_VALID = {
    ("complex", "run_case params a"),
    ("complex", "KernelParams a"),
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
    "run_case opts": lambda v: qc.run_case("rational", opts=v),
    "run_case tolerance": lambda v: qc.run_case("rational", tolerance=v),
    "verify_seed a": lambda v: qc.verify_seed(v, 1.0),
    "verify_seed t": lambda v: qc.verify_seed(1.0, v),
    "verify_seed opts": lambda v: qc.verify_seed(1.0, 1.0, opts=v),
    "verify_seed tolerance": lambda v: qc.verify_seed(1.0, 1.0, tolerance=v),
    "seed_lhs t": lambda v: qc.seed_lhs(_A, v),
    "seed_lhs opts": lambda v: qc.seed_lhs(_A, 1.0, v),
    "seed_rhs t": lambda v: qc.seed_rhs(_A, v),
    "KernelParams a": qc.KernelParams,
    "TransformFunction fn": qc.TransformFunction,
    "verify_master opts": lambda v: qc.verify_master(_F, _A, opts=v),
    "verify_master tolerance": lambda v: qc.verify_master(_F, _A, tolerance=v),
    "master_lhs opts": lambda v: qc.master_lhs(_F, _A, v),
    "QuadratureOptions abs_tol": lambda v: qc.QuadratureOptions(abs_tol=v),
    "QuadratureOptions rel_tol": lambda v: qc.QuadratureOptions(rel_tol=v),
    "QuadratureOptions max_subdivisions": lambda v: qc.QuadratureOptions(max_subdivisions=v),
    "integrate_finite lo": lambda v: qc.integrate_finite(_decay, v, 1.0),
    "integrate_finite hi": lambda v: qc.integrate_finite(_decay, 0.0, v),
    "integrate_finite opts": lambda v: qc.integrate_finite(_decay, 0.0, 1.0, v),
    "integrate_half_line opts": lambda v: qc.integrate_half_line(_decay, v),
    "integrate_real_line opts": lambda v: qc.integrate_real_line(_decay, v),
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


def test_verification_tolerance_is_stored_as_the_float_compared():
    report = qc.run_case("rational", tolerance=Fraction(1, 10**8))
    assert type(report.tolerance) is float and report.tolerance == 1e-8
