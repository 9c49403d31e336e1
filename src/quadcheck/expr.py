"""A small expression language for user-supplied transform functions.

Grammar, which is a public contract of the CLI:

* binary operators ``+ - * / ^`` with standard precedence
  (``^`` above unary minus above ``* /`` above ``+ -``), ``^``
  right-associative;
* parentheses and single-argument function calls ``f(expr)``;
* built-in functions ``exp log sqrt sin cos sinh cosh gamma zeta``,
  constants ``pi e i``;
* decimal number literals with optional fraction and exponent, within
  double range (``1e400`` is a syntax error);
* identifiers are ASCII words; implicit multiplication is not supported
  ("2k" is a syntax error).

Evaluation is over complex numbers with principal branches throughout.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from collections.abc import Iterator, Mapping

from . import numerics
from ._frozen import Frozen
from .errors import (
    FAILURES, DomainError, EvaluationError, ParameterError, ParseError, QuadcheckError, complex_,
    real,
)
from .kernel import TransformFunction, detect_schwarz_symmetry

__all__ = [
    "ExprAst",
    "Number",
    "Constant",
    "Variable",
    "Negate",
    "Binary",
    "Call",
    "parse",
    "evaluate",
    "to_string",
    "variables",
    "transform",
    "FUNCTIONS",
    "CONSTANTS",
]


# A node checks its own fields once, when it is built, so that evaluating
# a tree, parsed or built by hand, never meets text or an unknown name, and
# parse reads the tree's rendering back as the same tree.

class Number(Frozen):
    value: float

    def __post_init__(self):
        value = real("a Number holds a finite real", self.value)
        if math.copysign(1.0, value) < 0:
            # rendered as '-1.0' or '-0.0', which parses as a Negate
            raise EvaluationError(f"a Number holds no sign, got {value!r}: negate it instead")
        object.__setattr__(self, "value", value)


class Constant(Frozen):
    name: str  # pi | e | i

    def __post_init__(self):
        _known("constant", self.name, CONSTANTS)


class Variable(Frozen):
    name: str

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and _IDENT.fullmatch(name)) or name in CONSTANTS:
            raise EvaluationError(
                f"bad variable name {name!r}: an identifier that names no constant"
            )


class Negate(Frozen):
    operand: "ExprAst"


class Binary(Frozen):
    op: str  # + - * / ^
    left: "ExprAst"
    right: "ExprAst"

    def __post_init__(self):
        _known("operator", self.op, _PREC)


class Call(Frozen):
    func: str
    arg: "ExprAst"

    def __post_init__(self):
        _known("function", self.func, FUNCTIONS)


def _known(kind: str, name, table: Mapping) -> None:
    if not (isinstance(name, str) and name in table):
        raise EvaluationError(f"unknown {kind} {name!r}")


ExprAst = Number | Constant | Variable | Negate | Binary | Call

FUNCTIONS = {
    "exp": cmath.exp,
    "log": cmath.log,
    "sqrt": cmath.sqrt,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "gamma": numerics.gamma,
    "zeta": numerics.zeta,
}

CONSTANTS = {
    "pi": complex(math.pi),
    "e": complex(math.e),
    "i": 1j,
}

# binding powers; ^ binds tighter than unary minus, which binds tighter
# than * and /
_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25
_RIGHT_ASSOC = {"^"}
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# One token after any whitespace.  Each group is named after its token kind
# and the first alternative that matches wins, so a "." that starts no number
# is ``malformed`` and any other stray character is ``unexpected``.
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<ident>{_IDENT.pattern})"
    rf"|(?P<op>[{re.escape(''.join(_PREC))}])"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<end>\Z)"
    r"|(?P<malformed>\.)|(?P<unexpected>.))",
    re.DOTALL,
)
_LEX_ERRORS = {"malformed": "malformed number starting with", "unexpected": "unexpected character"}

#: Deepest nesting ``parse`` accepts, counted both as open parentheses,
#: calls and operands (the parser's recursion, two frames a level) and as
#: the height of the tree (``_evaluate``'s recursion, one frame a level).
#: Both stay well inside Python's default recursion limit of 1000, so a
#: deep expression is a ParseError, never a RecursionError.
MAX_DEPTH = 256


class _Token(Frozen):
    kind: str  # number | ident | op | lparen | rparen | end
    text: str
    offset: int


def _tokenize(source: str) -> Iterator[_Token]:
    pos = 0
    while True:
        m = _TOKEN_RE.match(source, pos)
        kind = m.lastgroup
        if kind in _LEX_ERRORS:
            raise ParseError(f"{_LEX_ERRORS[kind]} {m.group(kind)!r}", m.start(kind))
        yield _Token(kind, m.group(kind), m.start(kind))
        if kind == "end":
            return
        pos = m.end()


class _Parser:
    """Precedence climbing over the token list.

    ``parse_expression`` and ``parse_atom`` return each subtree with its
    height; ``level`` counts the open ``parse_expression`` calls.
    """

    def __init__(self, source: str):
        self.tokens = list(_tokenize(source))
        self.pos = 0
        self.level = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {what}, found {found}", tok.offset)
        return self.advance()

    def parse_expression(self, min_prec: int) -> tuple[ExprAst, int]:
        self.level += 1
        _check_depth(self.level, self.peek())
        left, height = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            prec = _PREC[tok.text]
            if prec < min_prec:
                break
            self.advance()
            next_min = prec if tok.text in _RIGHT_ASSOC else prec + 1
            right, right_height = self.parse_expression(next_min)
            left, height = Binary(tok.text, left, right), 1 + max(height, right_height)
            _check_depth(height, tok)
        self.level -= 1
        return left, height

    def parse_atom(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand, height = self.parse_expression(_UNARY_PREC)
            _check_depth(height + 1, tok)
            return Negate(operand), height + 1
        if tok.kind == "op" and tok.text == "+":
            # unary plus is a no-op but accepted for symmetry
            self.advance()
            return self.parse_expression(_UNARY_PREC)
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if value == math.inf:
                raise ParseError(f"number {tok.text!r} is beyond double range", tok.offset)
            return Number(value), 1
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                arg, height = self.parse_expression(0)
                self.expect("rparen", "')' closing the call")
                _check_depth(height + 1, tok)
                return Call(tok.text, arg), height + 1
            if tok.text in CONSTANTS:
                return Constant(tok.text), 1
            return Variable(tok.text), 1
        if tok.kind == "lparen":
            self.advance()
            inner = self.parse_expression(0)
            self.expect("rparen", "')'")
            return inner
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(f"expected an operand, found {found}", tok.offset)


def _check_depth(depth: int, tok: _Token) -> None:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.offset)


def parse(source: str) -> ExprAst:
    """Parse ``source`` into an AST; raises ParseError with a byte offset.

    A source that is not a ``str``, or nested deeper than ``MAX_DEPTH``, is a ParseError.
    """
    if not isinstance(source, str):
        raise ParseError(f"the expression must be text, got {source!r}", 0)
    parser = _Parser(source)
    ast, _ = parser.parse_expression(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return ast


def evaluate(ast: ExprAst, bindings: Mapping[str, complex]) -> complex:
    """Evaluate an AST over complex numbers.

    ``bindings`` must be a mapping, and each binding a finite number
    (``errors.complex_``), else DomainError.  Unbound variables and
    division by zero raise EvaluationError.  A QuadcheckError from the
    numerics layer (gamma/zeta poles, powers of zero) propagates as is; any
    other failure of a call or a power, and a value that is not a finite
    number, raises DomainError.
    """
    try:
        values = bindings.values()
    except AttributeError:
        raise DomainError(f"bindings must be a mapping, got {bindings!r}") from None
    for value in values:
        if type(value) is not complex or not cmath.isfinite(value):
            bindings = {
                name: complex_(f"variable {name!r} must be bound to a finite number", value)
                for name, value in bindings.items()
            }
            break
    result = _evaluate(ast, bindings)
    if cmath.isfinite(result):
        return result
    raise DomainError(f"the expression's value {result!r} is not a finite number")


def _evaluate(ast: ExprAst, bindings: Mapping[str, complex]) -> complex:
    # the node types are tested commonest first
    if isinstance(ast, Binary):
        left = _evaluate(ast.left, bindings)
        right = _evaluate(ast.right, bindings)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if ast.op == "/":
            if right == 0:
                raise EvaluationError("division by zero")
            return left / right
        return numerics.cpow(left, right)  # ^
    if isinstance(ast, Variable):
        try:
            return bindings[ast.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {ast.name!r}") from None
    if isinstance(ast, Number):
        return complex(ast.value)
    if isinstance(ast, Call):
        value = _evaluate(ast.arg, bindings)
        fn = FUNCTIONS[ast.func]
        try:
            return complex(fn(value))
        except QuadcheckError:
            raise
        except FAILURES as exc:
            raise DomainError(f"{ast.func}({value!r}): {exc}") from exc
    if isinstance(ast, Negate):
        return -_evaluate(ast.operand, bindings)
    if isinstance(ast, Constant):
        return CONSTANTS[ast.name]
    raise EvaluationError(f"unknown AST node {ast!r}")


def to_string(ast: ExprAst) -> str:
    """Canonical fully parenthesized rendering; parse(to_string(a)) == a."""
    if isinstance(ast, Number):
        return repr(ast.value)
    if isinstance(ast, (Constant, Variable)):
        return ast.name
    if isinstance(ast, Negate):
        return f"(-{to_string(ast.operand)})"
    if isinstance(ast, Binary):
        return f"({to_string(ast.left)}{ast.op}{to_string(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.func}({to_string(ast.arg)})"
    raise EvaluationError(f"unknown AST node {ast!r}")


def variables(ast: ExprAst) -> set[str]:
    """Names of all free variables in the expression."""
    if isinstance(ast, Variable):
        return {ast.name}
    if isinstance(ast, Negate):
        return variables(ast.operand)
    if isinstance(ast, Binary):
        return variables(ast.left) | variables(ast.right)
    if isinstance(ast, Call):
        return variables(ast.arg)
    return set()


def transform(source: str) -> TransformFunction:
    """The F that ``custom`` verifies: ``source`` parsed, in the variable k alone.

    F skips ``evaluate``'s checks: a node, a symmetry sample or the closed form checks its values.
    """
    ast = parse(source)
    if extra := ", ".join(sorted(variables(ast) - {"k"})):
        raise ParameterError(f"the transform may only use the variable 'k'; found: {extra}")

    def fn(k: complex) -> complex:
        return _evaluate(ast, {"k": k})

    return TransformFunction(fn, detect_schwarz_symmetry(fn), source)


# ``quadcheck`` re-exports parse, evaluate and to_string, but imports this
# module only on their first use.  Binding them there as soon as this module
# is imported, by whichever route, makes each later ``quadcheck.evaluate`` a
# plain attribute read: a lookup through the package's ``__getattr__`` costs
# about a third of an ``evaluate`` call.  As with an eager import, the
# package then holds the objects this module had when it was imported, so a
# patch applied wherever a function is bound reaches both.
_package = sys.modules[__package__]
for _name in _package._EXPR_NAMES:
    setattr(_package, _name, globals()[_name])
