"""Built-in verification cases.

All seven cases are instances of the master identity and are pure data: a
transform F, the kernel parameter, and the scale of the printed form
against the full-line master integral (1/2 for half-line forms, 1 for the
full-line one, 4/pi for the sech specializations written in x = y/pi, as
gamma and the zeta contour are).  The seventh, ``kernel``, is the seed
identity, F(k) = exp(-t k) at scale 1/2; ``seed_lhs``, ``seed_rhs``,
``verify_seed`` and the ``kernel-check`` command run it.  Both sides come
from the one folded half-line path in ``kernel``.  Each case's parameters
are data too: a default and a rule per name, which ``_instance`` applies
in one place."""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Mapping

from . import numerics
from ._frozen import Frozen
from .errors import DomainError, ParameterError, UnknownCaseError, complex_
from .kernel import (
    DEFAULT_TOLERANCE,
    KernelParams,
    TransformFunction,
    VerificationReport,
    _verify,
    master_integral,
    master_rhs,
)
from .quadrature import QuadratureOptions, QuadratureResult

__all__ = ["CaseDefinition", "list_cases", "get_case", "run_case", "seed_lhs", "seed_rhs",
           "CATALOG_ORDER"]

Params = Mapping[str, complex]
Transform = Callable[[complex], complex]
Rule = Callable[[str, complex], complex]  # (name, value) -> normalized value

#: Ordinate of the first nontrivial zeta zero 1/2 + i gamma_1, a pole of the zeta
#: case's F inside the master identity's strip once a > gamma_1^2/2 (``_zeta``).
_ZETA_FIRST_ZERO = 14.134725141734693

#: The rows' default line depth.
_LINE_SHIFT = 0.8


class CaseDefinition(Frozen):
    """A runnable verification case.

    ``params`` maps each parameter name, in record order, to its default
    and its rule: ``rule(name, value)`` returns the normalized value or
    raises ParameterError: the rules are the domain, which ``notes`` state
    in prose where needed.  ``transform`` builds the Schwarz-symmetric
    transform F from checked parameters; the case's left side is ``scale``
    times the full-line master integral of F at kernel parameter
    ``kernel_a`` (the case's own ``a`` when None), and its right side is
    ``scale`` times the master closed form.  ``contour`` is the argument
    ``kernel._route`` reads: a depth c, so the parameter rules must keep F
    analytic and decaying in the strip ``-c <= Im x <= 0``, or, as for
    cosine, a callable of the checked parameters that gives one pair
    ``(c, beta)``.  The depth is a cost choice only: _LINE_SHIFT by default,
    1.0 for the rows whose F the deeper line makes cheaper.
    """

    case_id: str
    params: Mapping[str, tuple[complex, Rule]]
    notes: str
    transform: Callable[[Params], Transform]
    scale: float = 0.5  # the half-line printed forms
    kernel_a: complex | None = None
    contour: float | Callable[[Params], tuple[complex, float]] = _LINE_SHIFT


# --- parameter rules --------------------------------------------------------

def _nonzero(name: str, v: complex) -> complex:
    if v == 0:
        raise ParameterError(f"parameter {name!r} must be nonzero")
    return v


def _real(name: str, v: complex) -> complex:
    if v.imag != 0.0:
        raise ParameterError(f"parameter {name!r} must be real, got {v!r}")
    return complex(v.real)  # drops a -0j


def _positive(name: str, v: complex) -> complex:
    x = _real(name, v)
    if not x.real > 0:
        raise ParameterError(f"parameter {name!r} must be positive, got {x.real!r}")
    return x


def _nonnegative(name: str, v: complex) -> complex:
    x = _real(name, v)
    if x.real < 0:
        raise ParameterError(f"parameter {name!r} must be >= 0, got {x.real!r}")
    return x


def _order(name: str, v: complex) -> complex:
    n = _real(name, v).real
    if n != int(n) or not (0 <= n <= 4):
        raise ParameterError(f"parameter {name!r} must be an integer in 0..4, got {n!r}")
    return complex(int(n))


def _unit(name: str, v: complex) -> complex:
    x = _real(name, v)
    if not (0.0 < x.real < 1.0):
        raise ParameterError(f"parameter {name!r} must satisfy 0 < x < 1, got {x.real!r}")
    return x


def _rational(p: Params) -> Transform:
    b = p["b"].real
    return lambda k: 1.0 / (k + b)


def _bessel(p: Params) -> Transform:
    return lambda k: 1.0 / cmath.sqrt(1.0 + k * k)


def _gaussian(p: Params) -> Transform:
    b = p["b"].real
    return lambda k: cmath.exp(-b * k * k)


def _cosine(p: Params) -> Transform:
    alpha = p["alpha"].real
    return lambda k: cmath.cos(alpha * k)


def _kernel(p: Params) -> Transform:
    t = p["t"].real
    return lambda k: cmath.exp(-t * k)  # on the axis, Re is exp(-t x^2) cos(t pi x)


def _gamma(p: Params) -> Transform:
    c = 4.0 * p["a"].real / (math.pi * math.pi)
    b = p["b"].real
    return lambda k: numerics.reciprocal_gamma(c * k + b)


# --- zeta: the contour on the imaginary axis, in t = y/pi ------------------

def _zeta(p: Params) -> Transform:
    """F(k) = x^u / (2 pi zeta(4 a u)^n) with u = k/pi^2.

    On the folded path k = y^2 + i pi y is pi^2 (t^2 + i t) at y = pi t.
    The closed form's k = pi^2/4 gives u = 1/4 exactly, so its zeta factor
    is zeta(a) itself.  For n >= 1 a zero 1/2 + i g of zeta(4 a u) is a pole
    of F: on the real axis at a = g^2/2, in the strip -pi < Im x < 0 past it.
    """
    n = int(p["n"].real)
    a = p["a"].real
    if n and a >= _ZETA_FIRST_ZERO**2 / 2.0:
        raise ParameterError(
            f"zeta case with n >= 1 needs a < gamma_1^2/2 (about 99.895), got {a!r}: "
            "from there on a zeta zero is a pole of F on the contour or inside the strip"
        )
    ln_x = math.log(p["x"].real)
    pi2 = math.pi * math.pi
    two_pi = 2.0 * math.pi
    four_a = 4.0 * a
    guard = numerics.POLE_GUARD_RADIUS
    # looked up now, not at import: a wrapper put on numerics.zeta still sees every call
    zeta, exp = numerics.zeta, cmath.exp

    def F(k: complex) -> complex:
        u = k / pi2
        num = exp(u * ln_x)
        if not n:
            return num / two_pi
        s = four_a * u
        if abs(s - 1.0) < guard:
            # the closed form at a = 1: the zeta factor in the denominator
            # diverges, so F is 0 there; the contour never comes this close
            return 0j
        return num / (two_pi * zeta(s) ** n)

    return F


# --- catalog ----------------------------------------------------------------

_CASES = {
    case.case_id: case
    for case in (
        CaseDefinition(
            case_id="rational",
            params={
                "a": (0.7 + 0j, _nonzero),
                # the b -> 0 limit differs from b = 0, so zero and negative b are refused
                "b": (2.0 + 0j, _positive),
            },
            notes=(
                "Transform 1/(k+b).  b <= 0 is rejected: the b -> 0 limit of the "
                "integral differs from its value at b = 0."
            ),
            transform=_rational,
        ),
        CaseDefinition(
            case_id="bessel",
            params={"a": (7.0 + 0j, _nonzero)},
            notes=(
                "Transform 1/sqrt(1+k^2) (principal square root).  The reference "
                "check value 0.000708622 matches a=7, not the printed a=0.7: at "
                "a=0.7 the closed form evaluates to about 0.5416121940."
            ),
            transform=_bessel,
            scale=1.0,
        ),
        CaseDefinition(
            case_id="gaussian",
            params={"a": (0.3 + 0j, _nonzero), "b": (0.3 + 0j, _positive)},
            notes="Transform exp(-b k^2).",
            transform=_gaussian,
            contour=1.0,
        ),
        CaseDefinition(
            case_id="cosine",
            params={
                # alpha*pi > 1 is deliberately NOT refused: the integrand then
                # grows like exp((alpha*pi - 1)|x|) and the divergence detector
                # must report it, rather than a constraint check hiding it
                "alpha": (0.1 + 0j, _real),
                "a": (1.0 + 2.0j, _nonzero),
            },
            notes=(
                "Transform cos(alpha k).  At 0.05 <= |alpha| < 1/pi and |ln|a|| <= 6 "
                "the tail past 8 is on the rays 8 +/- iy, and truncation is the "
                "contour parameter 8 + y.  For alpha*pi > 1 the integrand grows like "
                "exp((alpha*pi-1)x) and the run ends with a divergence error "
                "instead of a number."
            ),
            transform=_cosine,
            # cos(alpha k) = 0.5 e^{i |alpha| k} + 0.5 e^{-i |alpha| k}; the
            # head of the rays, and every run off them, is the axis
            contour=lambda p: (0.5, abs(p["alpha"].real)),
        ),
        CaseDefinition(
            case_id="gamma",
            params={
                # a < 0 would send the argument parabola into the left half
                # plane, where 1/gamma grows super-exponentially and the
                # integral diverges
                "a": (0.5 + 0j, _nonnegative),
                "b": (1.0 + 0j, _real),
            },
            notes=(
                "Transform 1/gamma(4 a k / pi^2 + b) at the sech specialization, "
                "rescaled x -> x/pi; the closed form is 1/gamma(a+b)."
            ),
            transform=_gamma,
            scale=4.0 / math.pi,
            kernel_a=1.0,
            contour=1.0,
        ),
        CaseDefinition(
            case_id="zeta",
            params={"n": (1.0 + 0j, _order), "x": (0.5 + 0j, _unit), "a": (2.0 + 0j, _positive)},
            notes=(
                "Contour integral over the imaginary axis, parametrized s = i t: "
                "transform x^(k/pi^2) / (2 pi zeta(4 a k/pi^2)^n) at the sech "
                "specialization, rescaled t -> t/pi.  n is restricted to 0..4.  At "
                "a = 1 the closed form is 0 because the zeta factor in its "
                "denominator diverges while the contour side stays regular.  For n >= 1, "
                "a >= 99.895 (gamma_1^2/2) is refused: a zeta zero is then a pole of F."
            ),
            transform=_zeta,
            scale=4.0 / math.pi,
            kernel_a=1.0,
            # the n >= 1 rule keeps zeta's zeros out of the whole strip
            contour=1.0,
        ),
        CaseDefinition(
            case_id="kernel",
            params={"a": (1.0 + 0j, _positive), "t": (1.0 + 0j, _positive)},
            notes="",
            transform=_kernel,
        ),
    )
}

CATALOG_ORDER = tuple(_CASES)


def list_cases() -> list[CaseDefinition]:
    """The built-in cases, in stable catalog order."""
    return list(_CASES.values())


def get_case(case_id: str) -> CaseDefinition:
    try:
        return _CASES[case_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(CATALOG_ORDER)
        raise UnknownCaseError(f"unknown case {case_id!r}; known cases: {known}") from None


def _instance(case_id: str, params: Mapping[str, complex] | None) -> tuple:
    """A built-in case at checked parameters: the tuple of the case, the
    parameters, F, the KernelParams and the contour.

    The one place parameters are checked: ``params`` must be a mapping or
    None, unknown names raise ParameterError, missing ones take the case
    defaults, every value must be a finite number (not text), and then each
    passes its rule.
    """
    case = get_case(case_id)
    given = {} if params is None else params
    if not isinstance(given, Mapping):
        raise ParameterError(f"case parameters must be a mapping or None, got {params!r}")
    for name in given:
        if name not in case.params:
            raise ParameterError(
                f"case {case_id!r} has no parameter {name!r} "
                f"(expected one of {', '.join(case.params)})"
            )
    clean = {}
    for name, (default, rule) in case.params.items():
        what = f"parameter {name!r} must be a finite number"
        clean[name] = rule(name, complex_(what, given.get(name, default), ParameterError))
    F = TransformFunction(case.transform(clean), schwarz_symmetric=True, name=case_id)
    kp = KernelParams(clean["a"] if case.kernel_a is None else case.kernel_a)
    contour = case.contour(clean) if callable(case.contour) else case.contour
    return case, clean, F, kp, contour


def run_case(
    case_id: str,
    params: Mapping[str, complex] | None = None,
    opts: QuadratureOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of a built-in case and compare."""
    case, clean, F, kp, contour = _instance(case_id, params)
    return _verify(case_id, clean, F, kp, opts, tolerance, case.scale, f"case {case_id!r}",
                   case.notes, contour)


def _seed_instance(params: KernelParams, t: float) -> tuple:
    """The ``kernel`` row at the a of ``params`` and at ``t``."""
    if not isinstance(params, KernelParams):
        raise DomainError(f"params must be a KernelParams, got {params!r}")
    return _instance("kernel", {"a": params.a, "t": t})


def seed_rhs(params: KernelParams, t: float) -> complex:
    """Closed form of the seed identity, pi exp(-t(pi^2/4 + ln^2 a)) / (4a(1+a^2)),
    for real a > 0 and t > 0: the ``kernel`` row's right side."""
    case, _, F, kp, _ = _seed_instance(params, t)
    return master_rhs(F, kp, case.scale)


def seed_lhs(
    params: KernelParams, t: float, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Half-line integral side of the seed identity, for real a > 0 and t > 0:
    the ``kernel`` row's left side, on the line Im x = -0.8."""
    case, _, F, kp, contour = _seed_instance(params, t)
    return master_integral(F, kp, opts, case.scale, contour)
