"""Built-in verification cases.

All six cases are instances of the master identity and are pure data: a
transform F, the kernel parameter, and the scale of the printed form
against the full-line master integral (1/2 for half-line forms, 1 for the
full-line one, 4/pi for the sech specializations written in x = y/pi, as
gamma and the zeta contour are).  Both sides come from the one folded
half-line path in ``kernel``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable, Mapping

from . import numerics
from ._frozen import Frozen
from .errors import ParameterError, UnknownCaseError
from .kernel import (
    DEFAULT_TOLERANCE,
    KernelParams,
    TransformFunction,
    VerificationReport,
    _verify,
)
from .numerics import AccuracyWarning
from .quadrature import _MAX_TRUNCATION, QuadratureOptions

__all__ = ["CaseDefinition", "list_cases", "get_case", "run_case", "CATALOG_ORDER"]

Params = Mapping[str, complex]
Transform = Callable[[complex], complex]

#: First ordinates of nontrivial zeta zeros; the zeta case warns when its
#: argument parabola passes close to one of them (denominator accuracy).
_ZETA_ZERO_ORDINATES = (
    14.134725141734693,
    21.022039638771555,
    25.010857580145688,
    30.424876125859513,
    32.935061587739190,
)
_ZETA_ZERO_WARN_DISTANCE = 0.05


class CaseDefinition(Frozen):
    """A runnable verification case.

    ``validate`` normalizes a raw parameter map and raises ParameterError
    on constraint violations.  ``transform`` builds the Schwarz-symmetric
    transform F from validated parameters; the case's left side is
    ``scale`` times the full-line master integral of F at kernel parameter
    ``kernel_a`` (the case's own ``a`` when None), and its right side is
    ``scale`` times the master closed form.
    """

    case_id: str
    param_names: tuple[str, ...]
    defaults: Mapping[str, complex]
    constraints: str
    notes: str
    validate: Callable[[dict[str, complex]], dict[str, complex]]
    transform: Callable[[Params], Transform]
    scale: float = 0.5  # the half-line printed forms
    kernel_a: complex | None = None


def _as_complex(value) -> complex:
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ParameterError("parameter values must be finite")
    return v


def _require_real(params: dict, name: str) -> float:
    v = _as_complex(params[name])
    if v.imag != 0.0:
        raise ParameterError(f"parameter {name!r} must be real, got {v!r}")
    params[name] = complex(v.real)
    return v.real


def _require_real_positive(params: dict, name: str) -> float:
    v = _require_real(params, name)
    if not v > 0:
        raise ParameterError(f"parameter {name!r} must be positive, got {v!r}")
    return v


def _require_nonzero(params: dict, name: str) -> complex:
    v = _as_complex(params[name])
    if v == 0:
        raise ParameterError(f"parameter {name!r} must be nonzero")
    params[name] = v
    return v


def _rational_validate(params: dict) -> dict:
    _require_nonzero(params, "a")
    # the b -> 0 limit differs from b = 0, so zero and negative b are refused
    _require_real_positive(params, "b")
    return params


def _bessel_validate(params: dict) -> dict:
    _require_nonzero(params, "a")
    return params


def _gaussian_validate(params: dict) -> dict:
    _require_nonzero(params, "a")
    _require_real_positive(params, "b")
    return params


def _cosine_validate(params: dict) -> dict:
    _require_nonzero(params, "a")
    _require_real(params, "alpha")
    # alpha*pi > 1 is deliberately NOT rejected here: the integrand then
    # grows like exp((alpha*pi - 1)|x|) and the divergence detector must
    # report it, rather than a constraint check hiding the behavior.
    return params


def _gamma_validate(params: dict) -> dict:
    a = _require_real(params, "a")
    if a < 0:
        # the argument parabola would head into the left half plane, where
        # 1/gamma grows super-exponentially and the integral diverges
        raise ParameterError(f"parameter 'a' must be >= 0, got {a!r}")
    _require_real(params, "b")
    return params


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


def _gamma(p: Params) -> Transform:
    c = 4.0 * p["a"].real / (math.pi * math.pi)
    b = p["b"].real
    return lambda k: numerics.reciprocal_gamma(c * k + b)


# --- zeta: the contour on the imaginary axis, in t = y/pi ------------------

def _zeta_validate(params: dict) -> dict:
    n = _require_real(params, "n")
    if n != int(n) or not (0 <= n <= 4):
        raise ParameterError(f"parameter 'n' must be an integer in 0..4, got {n!r}")
    params["n"] = complex(int(n))
    x = _require_real(params, "x")
    if not (0.0 < x < 1.0):
        raise ParameterError(f"parameter 'x' must satisfy 0 < x < 1, got {x!r}")
    _require_real_positive(params, "a")
    return params


def _zeta(p: Params) -> Transform:
    """F(k) = x^u / (2 pi zeta(4 a u)^n) with u = k/pi^2.

    On the folded path k = y^2 + i pi y is pi^2 (t^2 + i t) at y = pi t.
    The closed form's k = pi^2/4 gives u = 1/4 exactly, so its zeta factor
    is zeta(a) itself.  The zero warning covers every t the sweep reaches.
    """
    n = int(p["n"].real)
    a = p["a"].real
    ln_x = math.log(p["x"].real)
    pi2 = math.pi * math.pi
    two_pi = 2.0 * math.pi
    if n:
        _zeta_warn_near_zero(a, _MAX_TRUNCATION / math.pi)

    def F(k: complex) -> complex:
        u = k / pi2
        num = cmath.exp(u * ln_x)
        if not n:
            return num / two_pi
        s = 4.0 * a * u
        if abs(s - 1.0) < numerics.POLE_GUARD_RADIUS:
            # the closed form at a = 1: the zeta factor in the denominator
            # diverges, so F is 0 there; the contour never comes this close
            return 0j
        return num / (two_pi * numerics.zeta(s) ** n)

    return F


def _zeta_warn_near_zero(a: float, T: float) -> None:
    """Warn when the argument parabola w(t) = 4a(t^2 + i t) comes within
    ``_ZETA_ZERO_WARN_DISTANCE`` of a nontrivial zeta zero for 0 <= t <= T.

    The squared distance to a zero 1/2 + i g is minimized where
    8 a t^3 + (4a - 1) t - g = 0; Newton from t = g/(4a) converges in a
    few steps since the cubic is increasing there.  On [0, T] the parabola
    stays within 4a(T^2 + T) of the origin, so when that is short of the
    first zero no search is needed (and none overflows at tiny a).
    """
    if 4.0 * a * T * (T + 1.0) < _ZETA_ZERO_ORDINATES[0] - _ZETA_ZERO_WARN_DISTANCE:
        return
    closest = math.inf
    for g in _ZETA_ZERO_ORDINATES:
        t = g / (4.0 * a)
        for _ in range(50):
            deriv = 24.0 * a * t * t + 4.0 * a - 1.0
            if deriv <= 0:
                break
            step = (8.0 * a * t**3 + (4.0 * a - 1.0) * t - g) / deriv
            t -= step
            if abs(step) < 1e-14 * max(1.0, abs(t)):
                break
        if not 0.0 <= t <= T:
            continue  # the close approach lies beyond the reachable contour
        w = complex(4.0 * a * t * t, 4.0 * a * t)
        closest = min(closest, abs(w - complex(0.5, g)))
    if closest < _ZETA_ZERO_WARN_DISTANCE:
        warnings.warn(
            f"contour argument passes within {closest:.3g} of a nontrivial "
            "zeta zero; the denominator loses accuracy there",
            AccuracyWarning,
            stacklevel=3,
        )


# --- catalog ----------------------------------------------------------------

_CASES = {
    case.case_id: case
    for case in (
        CaseDefinition(
            case_id="rational",
            param_names=("a", "b"),
            defaults={"a": complex(0.7), "b": complex(2.0)},
            constraints="a nonzero (real a > 0 canonical); b real > 0",
            notes=(
                "Transform 1/(k+b).  b <= 0 is rejected: the b -> 0 limit of the "
                "integral differs from its value at b = 0."
            ),
            validate=_rational_validate,
            transform=_rational,
        ),
        CaseDefinition(
            case_id="bessel",
            param_names=("a",),
            defaults={"a": complex(7.0)},
            constraints="a nonzero (real a > 0 canonical)",
            notes=(
                "Transform 1/sqrt(1+k^2) (principal square root).  The reference "
                "check value 0.000708622 matches a=7, not the printed a=0.7: at "
                "a=0.7 the closed form evaluates to about 0.5416121940."
            ),
            validate=_bessel_validate,
            transform=_bessel,
            scale=1.0,
        ),
        CaseDefinition(
            case_id="gaussian",
            param_names=("a", "b"),
            defaults={"a": complex(0.3), "b": complex(0.3)},
            constraints="a nonzero (real a > 0 canonical); b real > 0",
            notes="Transform exp(-b k^2).",
            validate=_gaussian_validate,
            transform=_gaussian,
        ),
        CaseDefinition(
            case_id="cosine",
            param_names=("alpha", "a"),
            defaults={"alpha": complex(0.1), "a": complex(1.0, 2.0)},
            constraints=(
                "alpha real with alpha*pi <= 1 for convergence; a nonzero "
                "(complex a experimental)"
            ),
            notes=(
                "Transform cos(alpha k).  For alpha*pi > 1 the integrand grows "
                "like exp((alpha*pi-1)x) and the run ends with a divergence "
                "error instead of a number."
            ),
            validate=_cosine_validate,
            transform=_cosine,
        ),
        CaseDefinition(
            case_id="gamma",
            param_names=("a", "b"),
            defaults={"a": complex(0.5), "b": complex(1.0)},
            constraints="a real >= 0; b real",
            notes=(
                "Transform 1/gamma(4 a k / pi^2 + b) at the sech specialization, "
                "rescaled x -> x/pi; the closed form is 1/gamma(a+b)."
            ),
            validate=_gamma_validate,
            transform=_gamma,
            scale=4.0 / math.pi,
            kernel_a=1.0,
        ),
        CaseDefinition(
            case_id="zeta",
            param_names=("n", "x", "a"),
            defaults={"n": complex(1.0), "x": complex(0.5), "a": complex(2.0)},
            constraints="n integer in 0..4; 0 < x < 1 real; a real > 0",
            notes=(
                "Contour integral over the imaginary axis, parametrized s = i t: "
                "transform x^(k/pi^2) / (2 pi zeta(4 a k/pi^2)^n) at the sech "
                "specialization, rescaled t -> t/pi.  n is restricted to 0..4.  At "
                "a = 1 the closed form is 0 because the zeta factor in its "
                "denominator diverges while the contour side stays regular."
            ),
            validate=_zeta_validate,
            transform=_zeta,
            scale=4.0 / math.pi,
            kernel_a=1.0,
        ),
    )
}

CATALOG_ORDER = ("rational", "bessel", "gaussian", "cosine", "gamma", "zeta")


def list_cases() -> list[CaseDefinition]:
    """The built-in cases, in stable catalog order."""
    return [_CASES[cid] for cid in CATALOG_ORDER]


def get_case(case_id: str) -> CaseDefinition:
    try:
        return _CASES[case_id]
    except KeyError:
        known = ", ".join(CATALOG_ORDER)
        raise UnknownCaseError(f"unknown case {case_id!r}; known cases: {known}") from None


def run_case(
    case_id: str,
    params: Mapping[str, complex] | None = None,
    opts: QuadratureOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of a built-in case and compare.

    Missing parameters fall back to the case defaults; unknown parameter
    names raise ParameterError.
    """
    case = get_case(case_id)
    merged = {k: _as_complex(v) for k, v in case.defaults.items()}
    if params:
        for name, value in params.items():
            if name not in case.param_names:
                raise ParameterError(
                    f"case {case_id!r} has no parameter {name!r} "
                    f"(expected one of {', '.join(case.param_names)})"
                )
            merged[name] = _as_complex(value)
    clean = case.validate(merged)
    F = TransformFunction(case.transform(clean), schwarz_symmetric=True, name=case_id)
    kp = KernelParams(clean["a"] if case.kernel_a is None else case.kernel_a)
    return _verify(
        case_id, clean, F, kp, opts, tolerance, case.scale, f"case {case_id!r}", case.notes
    )
