"""Value objects: construction, defaults, equality, hashing, immutability."""

import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from quadcheck import (
    CaseDefinition,
    DomainError,
    EvaluationError,
    KernelParams,
    QuadratureOptions,
    QuadratureResult,
    TransformFunction,
    VerificationReport,
    integrate_half_line,
    integrate_real_line,
)
from quadcheck._frozen import Frozen, replace
from quadcheck.catalog import get_case
from quadcheck.expr import Binary, Call, Constant, Negate, Number, Variable, _Token


def _reciprocal(k):
    return 1.0 / (k + 2.0)


_RESULT = QuadratureResult(1 + 2j, 1e-12, 15, 8.0, True, 3.0, False)
_RATIONAL = get_case("rational")

# (class, positional arguments, the same with one field changed)
VALUES = [
    (QuadratureOptions, (1e-9, 1e-7, 50), (1e-9, 1e-7, 51)),
    (QuadratureResult, (1 + 2j, 1e-12, 15, 8.0, True, 3.0, False, 0),
     (1 + 2j, 1e-12, 15, 8.0, True, 3.0, True, 0)),
    (KernelParams, (0.7 + 0j,), (0.8 + 0j,)),
    (TransformFunction, (_reciprocal, True, "r"), (_reciprocal, True, "s")),
    (VerificationReport,
     ("case", {"a": 1 + 0j}, 1 + 0j, 1e-8, _RESULT, False, "n"),
     ("case", {"a": 1 + 0j}, 1 + 0j, 1e-8, _RESULT, True, "n")),
    (CaseDefinition,
     ("id", _RATIONAL.params, "n", _RATIONAL.transform, 0.5, None, 0.8),
     ("id", _RATIONAL.params, "n", _RATIONAL.transform, 1.0, None, 0.8)),
    (Number, (2.0,), (3.0,)),
    (Constant, ("pi",), ("e",)),
    (Variable, ("k",), ("x",)),
    (Negate, (Variable("k"),), (Variable("x"),)),
    (Binary, ("+", Number(1.0), Variable("k")), ("-", Number(1.0), Variable("k"))),
    (Call, ("exp", Variable("k")), ("log", Variable("k"))),
    (_Token, ("ident", "k", 0), ("ident", "k", 1)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, args, other):
    fields = cls.__match_args__
    assert len(fields) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    mixed = cls(*args[:1], **dict(zip(fields[1:], args[1:])))
    assert by_position == by_keyword == mixed
    for name, value in zip(fields, args):
        assert getattr(by_position, name) == value


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != args and a != object()


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_hash_follows_the_fields(cls, args, other):
    a, b = cls(*args), cls(*args)
    if _hashable(args):
        assert hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, other):
    obj = cls(*args)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(obj, name, args[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert cls(*args) == obj


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_repr_names_every_field(cls, args, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_pickle_round_trip(cls, args, other):
    obj = cls(*args)
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("cls, args, other", VALUES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, args, other):
    first = cls.__match_args__[0]
    with pytest.raises(TypeError, match="positional"):
        cls(*args, args[0])
    if cls is not QuadratureOptions:  # the one class whose fields all have defaults
        with pytest.raises(TypeError, match="missing"):
            cls()
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*args, nosuchfield=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*args, **{first: args[0]})


def test_nodes_of_different_classes_never_compare_equal():
    # a Variable may not take a constant's name, so the two never share
    # their one field; equality still tests the class, as between any two
    # classes with the same fields
    with pytest.raises(EvaluationError, match="bad variable name 'e'"):
        Variable("e")

    class Name(Frozen):
        name: str

    class Other(Frozen):
        name: str

    assert Name("e") != Other("e") and Other("pi") != Name("pi")
    assert Constant("pi") != Name("pi")
    assert Number(1.0) != 1.0
    assert len({Name("e"), Other("e")}) == 2


def test_defaults():
    assert QuadratureOptions() == QuadratureOptions(1e-12, 1e-10, 2000)
    r = QuadratureResult(1 + 0j, 1e-12, 15, 0.0, True)
    assert r.l1_norm == 0.0 and r.roundoff_limited is False
    t = TransformFunction(_reciprocal)
    assert t.schwarz_symmetric is False and t.name == ""
    rep = VerificationReport("c", {}, 0j, 1e-8, r)
    assert rep.experimental is False and rep.notes == ""
    case = CaseDefinition("id", _RATIONAL.params, "n", _RATIONAL.transform)
    assert case.scale == 0.5 and case.kernel_a is None


_DERIVED = ("lhs", "abs_diff", "rel_diff", "passed")


def test_report_stores_its_facts_and_derives_the_verdict():
    rep = VerificationReport("c", {}, 1 + 2.5j, 1e-8, _RESULT)
    assert len(VerificationReport.__match_args__) == 7
    assert not set(_DERIVED) & set(VerificationReport.__match_args__)
    assert (rep.lhs, rep.abs_diff, rep.rel_diff, rep.passed) == (
        _RESULT.value, 0.5, 0.5 / abs(1 + 2.5j), False
    )


@pytest.mark.parametrize("name", _DERIVED)
def test_report_verdict_is_read_only(name):
    rep = VerificationReport("c", {}, 1 + 2j, 1e-8, _RESULT)
    with pytest.raises(TypeError, match="unexpected keyword"):
        VerificationReport("c", {}, 1 + 2j, 1e-8, _RESULT, **{name: getattr(rep, name)})
    with pytest.raises(AttributeError):
        setattr(rep, name, getattr(rep, name))
    with pytest.raises(AttributeError):
        delattr(rep, name)


def test_replacing_a_side_recomputes_the_verdict():
    rep = VerificationReport("c", {}, 1 + 2j, 1e-8, _RESULT)
    assert rep.passed and rep.abs_diff == 0.0
    moved = replace(rep, rhs=1 + 3j)
    assert not moved.passed
    assert (moved.abs_diff, moved.rel_diff) == (1.0, 1.0 / abs(1 + 3j))
    assert replace(moved, rhs=1 + 2j) == rep


@pytest.mark.parametrize("kwargs, message", [
    ({"abs_tol": 0.0}, "tolerances must be positive"),
    ({"rel_tol": -1.0}, "tolerances must be positive"),
    ({"abs_tol": math.nan}, "tolerances must be positive"),
    ({"rel_tol": math.nan}, "tolerances must be positive"),
    ({"max_subdivisions": 0}, "max_subdivisions must be at least 1"),
    ({"abs_tol": "x"}, "tolerances must be positive"),
    ({"abs_tol": 1e-12j}, "tolerances must be positive"),
    ({"rel_tol": None}, "tolerances must be positive"),
    ({"abs_tol": "1e-3"}, "tolerances must be positive"),
    # beyond double range, and unordered: each must fail as a DomainError
    ({"abs_tol": 10**400}, "tolerances must be positive"),
    ({"rel_tol": Fraction(10**400)}, "tolerances must be positive"),
    ({"abs_tol": Decimal("NaN")}, "tolerances must be positive"),
    # the budget counts down to 0: at 2.5 a run to tolerance 1e-15 spent
    # 15165 evaluations where a budget of 2 stops at 75
    ({"max_subdivisions": 2.5}, "max_subdivisions must be an integer"),
    ({"max_subdivisions": 2.0}, "max_subdivisions must be an integer"),
    ({"max_subdivisions": math.nan}, "max_subdivisions must be an integer"),
    ({"max_subdivisions": math.inf}, "max_subdivisions must be an integer"),
    ({"max_subdivisions": True}, "max_subdivisions must be an integer"),
    ({"max_subdivisions": "3"}, "max_subdivisions must be an integer"),
])
def test_quadrature_options_validation(kwargs, message):
    with pytest.raises(DomainError, match=message):
        QuadratureOptions(**kwargs)


@pytest.mark.parametrize("a, message", [
    (0.0, "must be nonzero"),
    (0j, "must be nonzero"),
    (math.inf, "must be finite"),
    (math.nan, "must be finite"),
    (complex(1.0, math.inf), "must be finite"),
])
def test_kernel_params_validation(a, message):
    with pytest.raises(DomainError, match=message):
        KernelParams(a)
    with pytest.raises(DomainError, match=message):
        KernelParams(a=a)


def test_kernel_params_normalizes_a_to_complex():
    p = KernelParams(2)
    assert type(p.a) is complex and p.a == 2 + 0j
    assert p == KernelParams(2.0) == KernelParams(a=2 + 0j)


def test_real_line_doubles_evaluations_and_keeps_every_other_field():
    def f(x):
        return math.exp(-x * x) * math.cos(3.0 * x) + 0.5 * math.exp(-abs(x - 0.3))

    full = integrate_real_line(f)
    half = integrate_half_line(lambda x: complex(f(x)) + complex(f(-x)))
    assert full.evaluations == 2 * half.evaluations
    for name in QuadratureResult.__match_args__:
        if name != "evaluations":
            assert getattr(full, name) == getattr(half, name), name
