"""The cosh-quotient kernel and the master identity.

The kernel is ``cosh x / (1 + 2 a^2 cosh 2x + a^4)``, which factors as
``cosh x / ((a^2 + e^{2x})(a^2 + e^{-2x}))``.  The master identity: the
full-line integral of ``F(x^2 + i pi x)`` against the kernel equals
``pi F(pi^2/4 + ln^2 a) / (2 a (1 + a^2))`` for any admissible transform F.
At a = 1 the kernel collapses to ``sech(x)/4``.  The seed identity and the
worked cases are instances of it, rows of ``catalog``; ``verify_seed`` runs
the seed's row.

The identity is taken on one contour, the line ``x = y - ic``, and c = 0
is the real axis.  The kernel is even and ``k(-x) = conj k(x)`` for
``k(x) = x^2 + i pi x``, so the line folds onto y >= 0 as the half-line
integral of ``F(k) K(x) + F(conj k) K(conj x)``, which is
``2 Re F(k) K(x)`` for Schwarz-symmetric F at real a^2, times the scale of
the printed form.  ``_route`` decides the contour of a run, a depth or
steepest-descent rays for a pair's tail, and the kernel's peak, where the
sweep opens; it states the rules.  Each catalog row names its own, and a
user's F the depth 0.  One function builds every verification report from
that integral and the scaled closed form.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping

from ._frozen import Frozen
from .errors import (
    FAILURES,
    DomainError,
    NonConvergenceError,
    QuadcheckError,
    RoundoffError,
    complex_,
    modulus,
    real,
)
from .quadrature import (
    QuadratureOptions, QuadratureResult, _first_window, _target, integrate_half_line, options,
)

__all__ = [
    "KernelParams",
    "TransformFunction",
    "VerificationReport",
    "REL_DIFF_FLOOR",
    "DEFAULT_TOLERANCE",
    "kernel_weight",
    "master_lhs",
    "master_rhs",
    "verify_master",
    "verify_seed",
    "detect_schwarz_symmetry",
]

#: Floor for the denominator of relative differences, so rel_diff stays
#: defined when the closed form is tiny or exactly zero.
REL_DIFF_FLOOR = 1e-300

#: Default verification tolerance: well inside quadrature accuracy, far
#: above the 6 digits of the reference check values.
DEFAULT_TOLERANCE = 1e-8

_exp = math.exp
_cexp = cmath.exp
_cisfinite = cmath.isfinite

#: ``_route``'s bounds.  The ray band is [lo, hi) of _RAY_BETA.  lo sits at
#: the measured break-even for cos(beta k) at 11 values of a from 0.0025 to
#: 300, complex ones too: at 0.05 the rays take 3240 evaluations against 3000
#: on the real axis (600, 240 and 195 against 480, 210 and 150 at a = 0.0025,
#: 1 and 300), at 0.06 2625 against 3360, and at 0.1 2355 against 6420.  From
#: 1/pi on, the real-axis integral diverges.  _RAY_CANCEL is the most that the
#: rays' axis head may cancel, e^{beta pi ln(1/|a|)}: 52 bits, a double's
#: precision.  _SHIFT_CAP is the share of the way to the nearest kernel pole
#: that a line may go.  _LOG_A_MAX, ln(2^1024)/4, keeps a^4 and a^-4 in range.
_RAY_BETA = (0.05, 1.0 / math.pi)
_RAY_CANCEL = 52.0 * math.log(2.0)
_SHIFT_CAP = 0.75
_LOG_A_MAX = 256.0 * math.log(2.0)


class KernelParams(Frozen):
    """Kernel parameter ``a``.

    The canonical domain is real a > 0.  Complex values are accepted but
    flagged experimental: the identities check out numerically at sample
    complex points, yet no validity region is established for them.
    Purely imaginary a is accepted here, but a master run refuses
    it: a kernel pole then lies on the real axis, at x = +/- ln|a|.  An a
    that is 0, or with |a| outside [8.64e-78, 1.16e77] (|ln|a|| > 177.45), raises DomainError.
    """

    a: complex

    def __post_init__(self):
        a = complex_("kernel parameter a must be finite and numeric", self.a)
        object.__setattr__(self, "a", a)
        if a == 0:
            raise DomainError("kernel parameter a must be nonzero")
        if abs(cmath.log(a).real) > _LOG_A_MAX:  # ln|a| without forming |a|, which can overflow
            raise DomainError(f"kernel parameter a must have |ln|a|| <= 177.45, got a = {a!r}")
        # a^2 for kernel_weight, not a field: a float when it is real (real
        # or purely imaginary a), so the kernel at real x runs in float arithmetic
        a2 = a * a
        object.__setattr__(self, "_a2", a2.real if a2.imag == 0.0 else a2)

    @property
    def is_real_positive(self) -> bool:
        return self.a.imag == 0.0 and self.a.real > 0.0


class TransformFunction(Frozen):
    """A transform F mapping complex to complex, with a Schwarz flag.

    ``schwarz_symmetric`` asserts F(conj k) = conj F(k); that holds for
    Laplace images of real-valued functions and makes the full-line
    integrals real for real a.  It selects the folded integrand, not the
    contour: ``conj F(k)`` when set, ``F(conj k)`` otherwise, and
    ``2 Re F(k) K(x)`` when set at real a^2.  A false assertion therefore
    makes the left side wrong and the verification fail; leave the flag
    unset when unsure.  The flag must be a ``bool``.

    Calling the transform returns ``fn(k)`` as a finite complex; a value
    that is not a finite number raises DomainError.
    """

    fn: Callable[[complex], complex]
    schwarz_symmetric: bool = False
    name: str = ""

    def __post_init__(self):
        if not callable(self.fn):
            raise DomainError(f"transform F must be callable, got {self.fn!r}")
        if not isinstance(self.schwarz_symmetric, bool):
            raise DomainError(
                f"schwarz_symmetric must be a bool, got {self.schwarz_symmetric!r}"
            )

    def __call__(self, k: complex) -> complex:
        return complex_("F(k) must be a finite number", self.fn(k))


#: Sample count and relative tolerance of ``detect_schwarz_symmetry``.
_SCHWARZ_SAMPLES = 32
_SCHWARZ_TOL = 1e-12


def detect_schwarz_symmetry(fn: Callable[[complex], complex]) -> bool:
    """Numerically test F(conj k) = conj F(k) on a fixed sample grid.

    Sample points where ``fn`` is undefined (it raises, or returns a value
    that is not a finite number or has no finite modulus) are skipped; if
    it cannot be evaluated anywhere, the symmetry is reported absent.
    """
    # deterministic low-discrepancy-ish grid over a box in the right half plane
    usable = 0
    for i in range(_SCHWARZ_SAMPLES):
        k = complex(0.3 + 2.9 * ((i * 0.6180339887498949) % 1.0),
                    -3.0 + 6.0 * ((i * 0.7548776662466927) % 1.0))
        try:
            lhs = complex_("F must be a finite number", fn(k.conjugate()))
            rhs = complex_("F must be a finite number", fn(k)).conjugate()
            if abs(lhs - rhs) > _SCHWARZ_TOL * max(1.0, abs(rhs)):
                return False
        except (QuadcheckError, *FAILURES):  # OverflowError: |F| beyond double range
            continue
        usable += 1
    return usable > 0


class VerificationReport(Frozen):
    """Both sides of an identity, and the verdict on their difference.

    A report stores the facts of a run.  ``lhs``, the value of
    ``diagnostics``, and ``abs_diff``, ``rel_diff`` and ``passed`` are
    computed from them at each read, so a report cannot contradict itself.
    ``rel_diff`` divides by ``|rhs|`` floored at REL_DIFF_FLOOR; the closed
    forms that ``_verify`` stores have a modulus in double range.  A run
    passes when either difference is below the tolerance.
    """

    case_name: str
    params: Mapping[str, complex]
    rhs: complex
    tolerance: float
    diagnostics: QuadratureResult
    experimental: bool = False
    notes: str = ""

    @property
    def lhs(self) -> complex:
        return self.diagnostics.value

    @property
    def abs_diff(self) -> float:
        return modulus(self.lhs - self.rhs)

    @property
    def rel_diff(self) -> float:
        return self.abs_diff / max(modulus(self.rhs), REL_DIFF_FLOOR)

    @property
    def passed(self) -> bool:
        return self.rel_diff < self.tolerance or self.abs_diff < self.tolerance


#: ``i pi``: ``k = x^2 + i pi x`` is taken as ``x (x + i pi)``, whose one complex
#: product rounds to the bits of ``complex(x * x, pi * x)``, with no call.
_I_PI = complex(0.0, math.pi)

# The node table.  kernel_weight's a-free terms at complex x, ``h = (u + u^3)/2``
# and ``u^2``, depend on x alone.  Complex x are the nodes of the line and the
# rays, the same in every run on them, so the terms are built the first time
# x is met and read back by every later call, whatever a, F or the scale:
# what the table holds never changes a result.  ``1+0j`` and ``1-0j`` are one
# key; their u^2 differ in the sign of a zero imaginary part, and the
# quotient's bits do not.  The table holds at most _COMPLEX_TERMS_CAP records,
# about 0.37 MB, and is cleared rather than frozen when full, so one
# bisection-heavy run cannot lock later runs out.  Float x and each contour's
# point and k are computed at every node: tables for them gave no measured
# end-to-end gain, and a fresh float x cost 3.3 times the arithmetic.
_COMPLEX_TERMS: dict[complex, tuple[complex, complex]] = {}
_COMPLEX_TERMS_CAP = 2048


def kernel_weight(params: KernelParams, x: float | complex) -> float | complex:
    """The kernel ``cosh x / (1 + 2 a^2 cosh 2x + a^4)`` at x.

    The one copy of the formula: ``h / ((1 + a^2 u^2)(a^2 + u^2))`` with
    ``h = (u + u^3)/2`` at ``u = e^{-|x|}``, or for complex x at ``e^{-x}``
    or ``e^{x}``, whichever has ``|u| <= 1``, so nothing overflows and the
    evenness in x is exact.  At complex x the a-free h and u^2 are read
    from a node table after the first call.  For real x and real a^2 (real
    or purely imaginary a) float arithmetic gives the bits of
    ``complex(x, 0.0)``'s real part at about half the cost.  Text, None, a
    real or complex x that is not finite, params that are not KernelParams
    and x on a pole raise DomainError.
    """
    if x.__class__ is complex:
        terms = _COMPLEX_TERMS.get(x)
        if terms is None:
            if not _cisfinite(x):
                raise DomainError(f"kernel argument x must be a finite number, got {x!r}")
            u = _cexp(x if x.real < 0.0 else -x)
            u2 = u * u
            if len(_COMPLEX_TERMS) >= _COMPLEX_TERMS_CAP:
                _COMPLEX_TERMS.clear()
            terms = _COMPLEX_TERMS[x] = (0.5 * (u + u * u2), u2)
        h, u2 = terms
    elif x.__class__ is float:
        u = _exp(-abs(x))
        if not u > 0.0:  # x is infinite or NaN, or exp underflowed
            real("kernel argument x must be a finite number", x)
        u2 = u * u
        h = 0.5 * (u + u * u2)
    else:  # any other number, converted to one of the two, or refused
        coerce = complex_ if isinstance(x, complex) else real
        return kernel_weight(params, coerce("kernel argument x must be a finite number", x))
    try:
        a2 = params._a2
        return h / ((1.0 + a2 * u2) * (a2 + u2))
    except ZeroDivisionError:
        raise DomainError(
            f"kernel denominator vanishes at x = {x!r} for a = {params.a!r}"
        ) from None
    except AttributeError:
        raise DomainError(f"params must be a KernelParams, got {params!r}") from None


def _norm_factor(a: complex) -> complex:
    d = a * (1.0 + a * a)
    if d == 0:
        raise DomainError("a (1 + a^2) vanishes; identity undefined at a = +/- i")
    return d


def require_converged(
    result: QuadratureResult, what: str, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Return ``result``, or raise NonConvergenceError naming ``what``.

    A run stopped by its rounding floor raises the RoundoffError subclass,
    whose message gives the floor, the tolerance ``opts`` set and the
    condition number ``l1_norm / |value|``.
    """
    if result.roundoff_limited:
        size = modulus(result.value)
        raise RoundoffError(
            f"{what} is limited by roundoff (rounding floor "
            f"{result.rounding_floor:.3e} against tolerance "
            f"{_target(options(opts), result.value):.3e}, condition number "
            f"{result.l1_norm / size if size else math.inf:.3e}, "
            f"after {result.evaluations} evaluations)",
            result=result,
        )
    if not result.converged:
        raise NonConvergenceError(
            f"{what} did not converge (error estimate "
            f"{result.error_estimate:.3e} after {result.evaluations} evaluations)",
            result=result,
        )
    return result


def _operands(F: TransformFunction, params: KernelParams) -> None:
    """Refuse an F or params of the wrong type before any attribute is read."""
    if not isinstance(F, TransformFunction):
        raise DomainError(f"F must be a TransformFunction, got {F!r}")
    if not isinstance(params, KernelParams):
        raise DomainError(f"params must be a KernelParams, got {params!r}")


def master_rhs(F: TransformFunction, params: KernelParams, scale: float = 1.0) -> complex:
    """``scale`` times the master closed form, pi F(pi^2/4 + ln^2 a) / (2a(1+a^2)).

    The scale is checked as ``master_integral`` checks it.  Raises
    DomainError where F(pi^2/4 + ln^2 a) is undefined, or the scaled closed
    form or its modulus is not finite.  A QuadcheckError that F raises, such
    as a PoleError, passes through unchanged.  The left side depends on a^2
    only, so for Re a < 0 the closed form is taken at -a.
    """
    _operands(F, params)
    scale = real("scale must be a finite number", scale)
    a = -params.a if params.a.real < 0 else params.a
    ln_a = cmath.log(a)
    k0 = math.pi * math.pi / 4.0 + ln_a * ln_a
    try:
        value = scale * (math.pi * F(k0) / (2.0 * _norm_factor(a)))
    except QuadcheckError:
        raise
    except FAILURES as exc:
        raise DomainError(f"the closed form fails: F({k0!r}) raised {exc!r}") from None
    if modulus(complex_("the closed form must be a finite number", value)) < math.inf:
        return value
    raise DomainError(f"the closed form's modulus is beyond double range: {value!r}")


def _route(F: TransformFunction, params: KernelParams, contour) -> tuple:
    """The contour of a master run: the depth taken, 0.0 on the axis, the
    pair whose tail takes the rays, or None, and the kernel's peak L = |ln|a||.

    The value does not depend on where the contour runs inside the strip
    where F and the kernel are analytic (Henrici, *Applied and
    Computational Complex Analysis* I, 1974).  These rules, in order,
    choose it from ``contour``, a and F's Schwarz flag:

    1. ``contour`` is a finite depth c >= 0, the caller's word that F is
       analytic and decays down to the line ``x = y - ic`` (0 and -0.0 are
       the real axis), or one pair ``(c, beta)``, finite c and real
       beta >= 0, stating F as ``c e^{i beta k} + conj(c) e^{-i beta k}``,
       which never takes the line.  Else DomainError.
    2. a = +/- i, and Re a = 0, which puts a kernel pole on the real axis,
       raise DomainError.
    3. A depth is capped at _SHIFT_CAP (3/4) of the way to the nearest
       kernel pole, at ``Im x = |arg a| - pi/2`` for the root a with Re a > 0.
    4. A pair takes its tail on the steepest-descent rays ``X +/- iy``
       (Huybrechs and Vandewalle, SIAM J. Numer. Anal. 44, 2006) where F
       has the Schwarz flag and beta is in _RAY_BETA, [0.05, 1/pi); else
       the run is on the axis.  X, the first window's end (8, or L + 8 from
       L = 4 on), keeps the kernel's poles at ``Re x = +/- L`` 4 or more to
       its left.  A head that cancels past _RAY_CANCEL raises DomainError.
    """
    what = "contour must be a finite depth >= 0 or one pair (c, real beta >= 0)"
    depth, pair = math.nan, None  # nan: a tuple of another length is refused
    if not isinstance(contour, tuple):
        depth = real(what, contour)
    elif len(contour) == 2:
        pair = complex_(what, contour[0]), real(what, contour[1])
    if not (pair[1] if pair else depth) >= 0.0:
        raise DomainError(f"{what}, got {contour!r}")
    a = params.a
    _norm_factor(a)
    if a.real == 0:
        raise DomainError(f"Re a = 0 puts a kernel pole on the real axis: a = {a!r}")
    ln_a = cmath.log(a).real
    if pair:
        lo, hi = _RAY_BETA
        if not (F.schwarz_symmetric and lo <= pair[1] < hi):
            pair = None
        elif -pair[1] * math.pi * ln_a > _RAY_CANCEL:
            raise DomainError(f"the rays' head cancels past double precision at {contour!r}, "
                              f"a = {a!r}: beta pi ln(1/|a|) > 52 ln 2")
        return 0.0, pair, abs(ln_a)
    arg_a = math.atan2(abs(a.imag), abs(a.real))  # cmath.phase raises at subnormal arg a
    return min(depth, _SHIFT_CAP * (0.5 * math.pi - arg_a)) or 0.0, None, abs(ln_a)  # -0.0: 0.0


def master_integral(
    F: TransformFunction,
    params: KernelParams,
    opts: QuadratureOptions | None = None,
    scale: float = 1.0,
    contour: float | tuple[complex, float] = 0.0,
) -> QuadratureResult:
    """``scale`` times the full-line master integral, folded onto [0, inf).

    The scale, a finite real, is applied inside the integrand, so the
    function integrated is the scaled one.  ``_route`` takes the contour
    from ``contour`` and a, and raises DomainError for a malformed
    contour and for a = +/- i or Re a = 0, before any quadrature;
    inadmissible F raise DivergenceError, and convergence is left for the
    caller to check.

    ``k(-y - ic)`` is ``conj k(y - ic)`` and the kernel is even, so on the
    line at depth c the half-line integrand in y is
    ``F(k) K(x) + F(conj k) K(conj x)`` for any F, and ``2 Re F(k) K(x)``
    for a Schwarz F at real a^2; truncation is the y reached.  On the line
    ``k = y^2 + c(pi - c) + iy(pi - 2c)`` the chirp and the hump of ``|F|``
    that the axis sees shrink as c grows.  On the rays s runs over [0, X]
    on the axis, X being the first window's right edge, then over the rays
    ``X +/- iy`` at ``y = s - X``, where the pair stands for F, and
    truncation is the last window's right edge in s.
    """
    _operands(F, params)
    scale = real("scale must be a finite number", scale)
    depth, pair, peak = _route(F, params, contour)
    fn = F.fn  # the quadrature's own check rejects non-finite values
    # looked up now, not at import: a wrapper put on the module still sees every node
    weight = kernel_weight
    schwarz = F.schwarz_symmetric
    # on the axis x stays a float, for kernel_weight's float branch; on the
    # line y - ic is complex(y, -c) bit for bit, with no call
    ic = complex(0.0, depth) if depth else 0.0
    if schwarz and isinstance(params._a2, float):  # real a^2: K(conj x) = conj K(x)
        w = 2.0 * scale

        def f(y: float) -> complex:
            x = y - ic
            return w * (fn(x * (x + _I_PI)) * weight(params, x)).real

    else:

        def f(y: float) -> complex:
            x = y - ic
            k = x * (x + _I_PI)
            g = fn(k)
            h = g.conjugate() if schwarz else fn(k.conjugate())
            w = weight(params, x)  # on the axis x is conj x
            return scale * (g * w + h * (weight(params, x.conjugate()) if ic else w))

    if pair:
        head = f
        # F's term at X - iy, conj(c) e^{-i beta k}, conjugates c e^{i beta k} at X + iy
        c, i_beta = scale * pair[0], complex(0.0, pair[1])
        start = _first_window(peak)[-1]

        def f(s: float) -> complex:
            if s < start:
                return head(s)
            x = complex(start, s - start)
            k, k_neg = x * (x + _I_PI), x * (x - _I_PI)
            t = c * (_cexp(i_beta * k) + _cexp(i_beta * k_neg))
            return 1j * (
                t * weight(params, x) - t.conjugate() * weight(params, x.conjugate())
            )

    return integrate_half_line(f, opts, peak)


def master_lhs(
    F: TransformFunction, params: KernelParams, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Full-line integral of F(x^2 + i pi x) against the kernel.

    Raises DivergenceError for inadmissible F (detected empirically) and
    NonConvergenceError if the quadrature budget is exhausted first
    (RoundoffError if rounding alone keeps it above the tolerance).
    """
    return require_converged(
        master_integral(F, params, opts), "master-identity integral", opts
    )


def _verify(
    name: str,
    record: Mapping[str, complex],
    F: TransformFunction,
    params: KernelParams,
    opts: QuadratureOptions | None,
    tolerance: float,
    scale: float = 1.0,
    what: str = "master-identity integral",
    notes: str = "",
    contour: float | tuple[complex, float] = 0.0,
) -> VerificationReport:
    """Compare ``scale`` times both sides of the master identity for F.

    The run is experimental off the canonical domain: complex a, or F
    without the Schwarz flag.  A tolerance outside (0, inf) raises
    DomainError: with it every comparison would fail, or pass unchecked.
    """
    tolerance = real("verification tolerance must be positive and finite", tolerance, lo=0.0)
    diagnostics = require_converged(master_integral(F, params, opts, scale, contour), what, opts)
    experimental = not (params.is_real_positive and F.schwarz_symmetric)
    rhs = master_rhs(F, params, scale)
    return VerificationReport(name, dict(record), rhs, tolerance, diagnostics, experimental, notes)


def verify_master(
    F: TransformFunction,
    params: KernelParams,
    opts: QuadratureOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of the master identity and compare.

    At a = 1 this exercises the sech specialization: the left side is
    (1/4) integral of F(x^2 + i pi x) sech x and the right side is
    pi F(pi^2/4) / 4.
    """
    _operands(F, params)
    name = "master" if not F.name else f"master[{F.name}]"
    return _verify(name, {"a": params.a}, F, params, opts, tolerance)


def verify_seed(
    a: float,
    t: float,
    opts: QuadratureOptions | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Evaluate both sides of the seed identity and compare: the catalog's
    ``kernel`` row at (a, t)."""
    from .catalog import run_case  # catalog imports this module

    return run_case("kernel", {"a": a, "t": t}, opts, tolerance)
