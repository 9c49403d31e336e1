"""Expression language: grammar, precedence, evaluation, round trips."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadcheck import DomainError, EvaluationError, ParameterError, ParseError, PoleError
from quadcheck.expr import (
    MAX_DEPTH,
    Binary,
    Call,
    Constant,
    FUNCTIONS,
    Negate,
    Number,
    Variable,
    evaluate,
    parse,
    to_string,
    transform,
    variables,
)


def test_parse_rational():
    assert parse("1/(k+2)") == Binary(
        "/", Number(1.0), Binary("+", Variable("k"), Number(2.0))
    )


def test_parse_power_binds_tighter_than_division():
    ast = parse("gamma(4*a*k/pi^2+b)")
    expected = Call(
        "gamma",
        Binary(
            "+",
            Binary(
                "/",
                Binary("*", Binary("*", Number(4.0), Variable("a")), Variable("k")),
                Binary("^", Constant("pi"), Number(2.0)),
            ),
            Variable("b"),
        ),
    )
    assert ast == expected


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("2*")
    assert err.value.offset == 2


def test_parse_error_cases():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError) as err:
        parse("(1+2")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("foo(2)")  # unknown function
    with pytest.raises(ParseError) as err:
        parse("2k")  # no implicit multiplication
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse("1 + @")
    with pytest.raises(ParseError):
        parse("sin(1,2)")  # builtins are unary; comma is not in the grammar
    # identifiers and digits are ASCII only
    with pytest.raises(ParseError):
        parse("αk+1")  # Greek alpha
    with pytest.raises(ParseError):
        parse("٣+1")  # Arabic-Indic digit three


def test_literal_beyond_double_range_is_a_parse_error():
    # a literal that float() would read as inf, which to_string could not
    # render back as a number
    with pytest.raises(ParseError, match="beyond double range") as err:
        parse("2*k + 1e400")
    assert err.value.offset == 6


def test_number_literals():
    assert parse("1.5").value == 1.5
    assert parse(".25").value == 0.25
    assert parse("2e-3").value == 2e-3
    assert parse("1.25E2").value == 125.0
    assert parse("1.").value == 1.0
    assert parse(".5e-3").value == 5e-4


@pytest.mark.parametrize("source, message, offset", [
    (".", "malformed number starting with '.'", 0),
    ("k+.", "malformed number starting with '.'", 2),
    # an exponent needs a digit: "1" is the number and "e" trails it
    ("1e", "unexpected trailing input 'e'", 1),
    # digits are ASCII only: the full-width one is no digit
    ("１+k", "unexpected character '１'", 0),
    ("k+１", "unexpected character '１'", 2),
])
def test_lexer_errors_name_the_token_and_its_offset(source, message, offset):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize("source", ["k + 1", "k\t+\n1"])
def test_whitespace_between_tokens_is_skipped(source):
    assert parse(source) == parse("k+1") == Binary("+", Variable("k"), Number(1.0))


def test_evaluate_examples():
    assert abs(evaluate(parse("k^2+1"), {"k": 1j})) <= 1e-12
    assert abs(evaluate(parse("cos(pi)"), {}) - (-1.0)) < 1e-15
    assert abs(evaluate(parse("gamma(0.5)^2"), {}) - math.pi) < 1e-10


def test_constants():
    assert evaluate(parse("i"), {}) == 1j
    assert abs(evaluate(parse("e"), {}) - math.e) < 1e-15
    assert abs(evaluate(parse("pi"), {}) - math.pi) < 1e-15


def test_precedence_and_associativity():
    assert evaluate(parse("-2^2"), {}) == -4.0  # ^ above unary minus
    assert abs(evaluate(parse("2^-2"), {}) - 0.25) < 1e-15
    assert abs(evaluate(parse("2^3^2"), {}) - 512.0) < 5e-13  # right assoc
    assert evaluate(parse("6-3-2"), {}) == 1.0  # left assoc
    assert evaluate(parse("2*-3"), {}) == -6.0
    assert evaluate(parse("1+2*3"), {}) == 7.0


def test_unbound_variable():
    with pytest.raises(EvaluationError):
        evaluate(parse("k+1"), {})
    with pytest.raises(EvaluationError):
        evaluate(parse("q"), {"k": 1.0})


def test_division_by_zero():
    with pytest.raises(EvaluationError):
        evaluate(parse("1/k"), {"k": 0.0})


@pytest.mark.parametrize("build, error", [
    (lambda: Call("nope", Variable("k")), EvaluationError),
    (lambda: Call(["exp"], Variable("k")), EvaluationError),
    (lambda: Constant("tau"), EvaluationError),
    (lambda: Number("1"), DomainError),
    (lambda: Number(math.nan), DomainError),
    (lambda: Number(None), DomainError),
    # rendered as 'pi', which parses as the constant
    (lambda: Variable("pi"), EvaluationError),
    (lambda: Variable(123), EvaluationError),
    (lambda: Variable("2k"), EvaluationError),
    # rendered as '(1.0%2.0)', which does not parse
    (lambda: Binary("%", Number(1.0), Number(2.0)), EvaluationError),
    (lambda: Binary(["+"], Number(1.0), Number(2.0)), EvaluationError),
])
def test_hand_built_node_with_a_bad_field_is_refused_when_built(build, error):
    # every failure is typed, and text is no number: each node checks its
    # fields once, when it is built, never at evaluation
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("call", [lambda: evaluate(1.0, {}), lambda: to_string(Negate("k"))])
def test_a_tree_that_holds_no_node_is_an_evaluation_error(call):
    with pytest.raises(EvaluationError, match="unknown AST node"):
        call()


def test_hand_built_tree_evaluates_as_its_parse():
    tree = Binary("+", Call("exp", Negate(Variable("k"))), Binary("*", Number(2), Constant("pi")))
    assert tree == parse("exp(-k)+2*pi")
    assert evaluate(tree, {"k": 1j}) == evaluate(parse("exp(-k)+2*pi"), {"k": 1j})


def test_domain_errors_propagate():
    with pytest.raises(DomainError):
        evaluate(parse("log(0)"), {})
    with pytest.raises(PoleError):
        evaluate(parse("gamma(0)"), {})
    with pytest.raises(PoleError):
        evaluate(parse("zeta(1)"), {})
    with pytest.raises(DomainError):
        evaluate(parse("0^(-1)"), {})


@pytest.mark.parametrize("source", [
    "10^400", "exp(1000)", "cosh(1000)", "gamma(200)", "1e308*10", "sqrt(1e308*1e308)",
])
def test_values_beyond_double_range_are_domain_errors(source):
    with pytest.raises(DomainError):
        evaluate(parse(source), {})


def _nested(depth):
    """Sources whose nesting, in the parser or in the tree, is ``depth``."""
    return [
        "(" * (depth - 1) + "k" + ")" * (depth - 1),
        "-" * (depth - 1) + "k",
        "sin(" * (depth - 1) + "k" + ")" * (depth - 1),
        "+".join(["k"] * depth),
        "^".join(["1"] * depth),
    ]


@pytest.mark.parametrize("source", _nested(MAX_DEPTH))
def test_expression_at_the_nesting_cap_parses_and_evaluates(source):
    value = evaluate(parse(source), {"k": 1e-3})
    assert math.isfinite(value.real)


@pytest.mark.parametrize("source", _nested(MAX_DEPTH + 1) + _nested(1000))
def test_expression_past_the_nesting_cap_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nests deeper than 256 levels"):
        parse(source)


def test_variables_collection():
    assert variables(parse("1/(k+2)")) == {"k"}
    assert variables(parse("a*k+b*pi")) == {"a", "k", "b"}
    assert variables(parse("sin(cos(w))")) == {"w"}
    assert variables(parse("2+2")) == set()


def test_purity():
    ast = parse("sin(k)*gamma(k+2)/(k^2+1)")
    v1 = evaluate(ast, {"k": 0.3 + 0.2j})
    v2 = evaluate(ast, {"k": 0.3 + 0.2j})
    assert v1 == v2


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_numbers = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda x: Number(abs(x)))
_variables = st.sampled_from(["k", "b", "w"]).map(Variable)
_constants = st.sampled_from(["pi", "e", "i"]).map(Constant)
_leaves = st.one_of(_numbers, _variables, _constants)


def _extend(children):
    return st.one_of(
        st.builds(Negate, children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=25)

# Trees as nested tuples, with names and operators good and bad: each is
# built by _build, where a bad field raises
_names = st.one_of(
    st.sampled_from(["k", "b", "q_1", "exp", "pi", "e", "i", "_k", "2k", "k k"]),
    st.text(max_size=3),
    st.integers(),
)
_ops = st.one_of(st.sampled_from("+-*/^"), st.sampled_from(["%", "**", "", " +"]), st.text(max_size=2))
_specs = st.recursive(
    st.one_of(_numbers, _constants, st.tuples(st.just(Variable), _names)),
    lambda children: st.one_of(
        st.tuples(st.just(Negate), children),
        st.tuples(st.just(Binary), _ops, children, children),
        st.tuples(st.just(Call), st.sampled_from(sorted(FUNCTIONS)), children),
    ),
    max_leaves=10,
)


def _build(spec):
    if not isinstance(spec, tuple):
        return spec
    node, *fields = spec
    return node(*(_build(field) for field in fields))


@settings(max_examples=200, deadline=None)
@given(_asts)
def test_roundtrip_parse_of_canonical_rendering(ast):
    assert parse(to_string(ast)) == ast


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_a_hand_built_tree_is_refused_or_round_trips(spec):
    try:
        ast = _build(spec)
    except EvaluationError:
        return
    assert parse(to_string(ast)) == ast


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=6),
    st.lists(st.sampled_from("+-*/^"), min_size=1, max_size=5),
)
def test_precedence_against_reference_evaluator(atoms, ops):
    # flat expression with no parentheses; the reference is Python's own
    # precedence, which matches the grammar for these operators
    n = min(len(atoms) - 1, len(ops))
    parts = [atoms[0]]
    for i in range(n):
        # keep exponents small so chains like 9^9^9 stay representable
        rhs = atoms[i + 1] if ops[i] != "^" else (atoms[i + 1] % 3) + 1
        parts.append(ops[i])
        parts.append(rhs)
    source = "".join(map(str, parts))
    # float literals on the reference side: with ints, 9^3^3^3 would build
    # the exact integer 9**(3**27) and never finish
    reference = "".join(p if isinstance(p, str) else repr(float(p)) for p in parts)
    try:
        expected = complex(eval(reference.replace("^", "**")))
    except OverflowError:
        assume(False)  # right-associative ^ chains can exceed double range
    assume(abs(expected) < 1e300)
    got = evaluate(parse(source), {})
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(max_examples=100, deadline=None)
@given(_asts)
def test_rendering_is_stable(ast):
    assert to_string(parse(to_string(ast))) == to_string(ast)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/^()ksincoexpgamzetalh _\t", max_size=30))
def test_parser_never_raises_anything_but_parse_error(source):
    # arbitrary input either parses or fails with the documented error
    try:
        parse(source)
    except ParseError:
        pass


def test_transform_is_the_parsed_F_in_k_with_its_schwarz_flag():
    F = transform("1/(k+2)")
    assert (F.name, F.schwarz_symmetric) == ("1/(k+2)", True)
    assert F(1 + 1j) == evaluate(parse("1/(k+2)"), {"k": 1 + 1j})
    assert transform("1/(k+2+i)").schwarz_symmetric is False
    with pytest.raises(ParameterError, match="only use the variable 'k'; found: q, z$"):
        transform("z*k + q")
    with pytest.raises(ParseError):
        transform("2k")
