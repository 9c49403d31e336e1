"""Exception hierarchy shared by every quadcheck layer, and the input coercers.

Every failure the library raises is a ``QuadcheckError``.  Numbers enter
through ``real`` and ``complex_``, which take any finite int, float,
Fraction or Decimal in double range (and complex, for ``complex_``), refuse
text, numeric text included, and raise ``DomainError`` (or, for
``complex_``, the caller's ``ParameterError``) for anything else.
``modulus`` is ``abs`` of a complex, infinite where ``abs`` would overflow.

User code, an integrand or a transform F, fails in one of two ways: it
returns a value ``complex_`` refuses (text, None, a non-finite number), or
it raises one of ``FAILURES``.  At a quadrature node either becomes an
``IntegrandError`` naming the node; outside the quadrature, at a closed
form or in the expression language, a ``QuadcheckError`` passes through
unchanged and anything in ``FAILURES`` becomes a ``DomainError``.

Every refusal of an input is a ``DomainError``: a value outside an
operation's domain, a case parameter (``ParameterError``), an unknown case
id (``UnknownCaseError``) and an expression that does not parse or
evaluate (``ExpressionError``).  The CLI maps ``DomainError`` to exit code
2, and numerical failures (``IntegrandError``, ``DivergenceError``,
``NonConvergenceError`` and its ``RoundoffError``, and any other
``QuadcheckError``) to exit code 3.
"""

from __future__ import annotations

import cmath
import math


class QuadcheckError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QuadcheckError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """The argument is within the guard radius of a pole (gamma, zeta)."""


class IntegrandError(QuadcheckError):
    """The integrand raised, or returned a value that is not a finite number.

    Carries the offending abscissa so the caller can see where the
    integrand failed.
    """

    def __init__(self, abscissa: float, detail: str = ""):
        self.abscissa = abscissa
        msg = f"integrand fails at x = {abscissa!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DivergenceError(QuadcheckError):
    """Tail contributions of an improper integral are not decreasing.

    Raised when two consecutive truncation-window growths fail to shrink
    the window contribution, which signals an inadmissible integrand
    rather than a tolerance problem.
    """


class NonConvergenceError(QuadcheckError):
    """The quadrature did not reach its tolerance.

    Carries the unconverged ``QuadratureResult`` as ``result``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class RoundoffError(NonConvergenceError):
    """Rounding alone keeps the quadrature above its tolerance.

    Raised when the rounding floor of the partition, a few ulps of the
    integral of |f|, exceeds the tolerance: the integrand is large and its
    integral small, so no number of subdivisions could reach it.  The
    quadrature stops at once instead of spending its budget.
    """


class ExpressionError(DomainError):
    """Base class for expression-language failures."""


class ParseError(ExpressionError):
    """Syntax error in an expression, with a byte offset into the source."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class EvaluationError(ExpressionError):
    """Evaluation failed, e.g. an unbound variable or division by zero."""


class UnknownCaseError(DomainError, KeyError):
    """No catalog case with the requested id."""

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0] if self.args else ""


class ParameterError(DomainError):
    """A case parameter violates its domain constraint."""


#: What a conversion or a call of user code raises for a value it cannot
#: use: None or text where a number belongs, a domain error, an overflow, a
#: division by zero, a missing attribute.  The one set of Python exceptions
#: that names a failure of user code.
FAILURES = (TypeError, ValueError, ArithmeticError, AttributeError)

#: text, which float() and complex() would parse as a number
_TEXT = (str, bytes, bytearray, memoryview)


def real(what: str, value, lo=-math.inf) -> float:
    """``value`` as a finite float above ``lo``; else DomainError stating ``what``."""
    try:
        if not isinstance(value, _TEXT):
            x = float(value)
            if lo < x < math.inf:  # NaN fails here
                return x
    except FAILURES:  # complex, None; sNaN, 10**400
        pass
    raise DomainError(f"{what}, got {value!r}")


def complex_(what: str, value, error=DomainError) -> complex:
    """``value`` as a finite complex; else ``error`` stating ``what``."""
    if value.__class__ is complex and cmath.isfinite(value):  # the contours' hot path
        return value
    try:
        if not isinstance(value, _TEXT):
            z = complex(value)
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    except FAILURES:
        pass
    raise error(f"{what}, got {value!r}")


def modulus(z: complex) -> float:
    """``abs(z)``, or inf where the modulus of a finite complex is beyond double range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf
