"""quadcheck: numerical verification of kernel integral identities.

The library evaluates both sides of a family of definite-integral
identities built on the kernel ``cosh x / (1 + 2 a^2 cosh 2x + a^4)``:
the left side by adaptive complex quadrature over unbounded or contour
domains, the right side in closed form, for built-in worked cases and for
user-supplied transforms written in a small expression language.

The expression language, ``quadcheck.expr``, is imported on first use of
``parse``, ``evaluate`` or ``to_string``, so commands that never parse an
expression do not pay for it.
"""

from .catalog import CaseDefinition, list_cases, run_case
from .errors import (
    DivergenceError,
    DomainError,
    EvaluationError,
    IntegrandError,
    NonConvergenceError,
    ParameterError,
    ParseError,
    PoleError,
    QuadcheckError,
    RoundoffError,
    UnknownCaseError,
)
from .kernel import (
    DEFAULT_TOLERANCE,
    KernelParams,
    TransformFunction,
    VerificationReport,
    detect_schwarz_symmetry,
    kernel_weight,
    master_lhs,
    master_rhs,
    verify_master,
    verify_seed,
)
from .numerics import (
    AccuracyWarning,
    POLE_GUARD_RADIUS,
    PRINCIPAL_BRANCH,
    cpow,
    gamma,
    reciprocal_gamma,
    zeta,
)
from .quadrature import (
    QuadratureOptions,
    QuadratureResult,
    integrate_finite,
    integrate_half_line,
    integrate_real_line,
)

__version__ = "0.1.0"

_EXPR_NAMES = ("evaluate", "parse", "to_string")


def __getattr__(name: str):
    # the first use imports quadcheck.expr, which binds these names here
    if name in _EXPR_NAMES:
        from . import expr

        return getattr(expr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPR_NAMES})

__all__ = [
    "AccuracyWarning",
    "CaseDefinition",
    "DEFAULT_TOLERANCE",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "IntegrandError",
    "KernelParams",
    "NonConvergenceError",
    "POLE_GUARD_RADIUS",
    "PRINCIPAL_BRANCH",
    "ParameterError",
    "ParseError",
    "PoleError",
    "QuadcheckError",
    "QuadratureOptions",
    "QuadratureResult",
    "RoundoffError",
    "TransformFunction",
    "UnknownCaseError",
    "VerificationReport",
    "cpow",
    "detect_schwarz_symmetry",
    "evaluate",
    "gamma",
    "integrate_finite",
    "integrate_half_line",
    "integrate_real_line",
    "kernel_weight",
    "list_cases",
    "master_lhs",
    "master_rhs",
    "parse",
    "reciprocal_gamma",
    "run_case",
    "to_string",
    "verify_master",
    "verify_seed",
    "zeta",
]
