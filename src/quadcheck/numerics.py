"""Complex arithmetic conventions and the special functions.

Everything here is plain double precision over Python's built-in ``complex``.
All multivalued functions use the principal branch, see ``PRINCIPAL_BRANCH``.
The two nontrivial functions are ``gamma`` (the log form of the Lanczos
approximation plus the reflection formula, both in logs) and ``zeta``
(one Euler-Maclaurin sum on -1 <= Re z < 10, the functional equation left
of it and a plain Dirichlet sum right of it), both implemented from
scratch so their accuracy can be property-tested against independent
series oracles.  Arguments follow the input rule (``errors.complex_``).
A non-finite argument, a result beyond double range and a zeta past its
table raise DomainError; results that underflow are subnormal or 0.
"""

from __future__ import annotations

import cmath
import math
import warnings

from .errors import FAILURES, DomainError, PoleError, complex_, modulus

__all__ = [
    "PRINCIPAL_BRANCH",
    "POLE_GUARD_RADIUS",
    "AccuracyWarning",
    "cpow",
    "gamma",
    "reciprocal_gamma",
    "zeta",
]

#: Branch convention used by every multivalued operation in this package:
#: the principal branch, Im(log z) in (-pi, pi].  ``cmath`` already follows
#: it; sqrt(z) = exp(log(z)/2) and z**w = exp(w*log z) are derived from it.
PRINCIPAL_BRANCH = "Im(log z) in (-pi, pi]"

#: Inside this distance from a pole, double precision cannot represent the
#: function value meaningfully, so gamma/zeta raise PoleError instead.
POLE_GUARD_RADIUS = 1e-8

#: Region in which ``zeta`` is validated to >= 10 significant digits.
ZETA_VALIDATED_RE_MIN = 0.0
ZETA_VALIDATED_IM_MAX = 50.0
_ZETA_OUTSIDE_MESSAGE = (
    f"zeta is evaluated outside the validated region (Re >= {ZETA_VALIDATED_RE_MIN}, "
    f"|Im| <= {ZETA_VALIDATED_IM_MAX}); accuracy may be reduced"
)


class AccuracyWarning(UserWarning):
    """The result may carry fewer correct digits than the documented target."""


def cpow(base: complex, exponent: complex) -> complex:
    """Principal-branch power ``base**exponent = exp(exponent * log base)``.

    ``0**w`` is 0 for Re w > 0 and a domain error otherwise (including
    ``0**0``), as is a power beyond double range.
    """
    base = complex_("cpow requires a finite base", base)
    exponent = complex_("cpow requires a finite exponent", exponent)
    if base == 0:
        if exponent.real > 0:
            return 0j
        raise DomainError(
            "0 cannot be raised to an exponent with non-positive real part"
        )
    return _exp(exponent * cmath.log(base), "cpow", (base, exponent))


def _exp(log_value: complex, what: str, at, negate: bool = False) -> complex:
    """exp(log_value), negated (exactly) if ``negate``; DomainError where
    that is beyond double range, whether cmath.exp raises or returns inf or nan."""
    try:
        value = cmath.exp(log_value)
        if cmath.isfinite(value):
            return -value if negate else value
    except FAILURES:
        pass
    raise DomainError(f"{what} is beyond double range at {at!r}")


# ---------------------------------------------------------------------------
# Gamma: one log(1/gamma), from the log form of the Lanczos approximation
# (g = 7, 9 coefficients) on Re z >= 0.5 and the reflection formula in logs
# elsewhere.  Verified to < 1e-12 relative error against mpmath wherever the
# value is in double range on -185 <= Re z <= 180, |Im z| <= 480.
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)


def _lanczos_sum(z: complex) -> complex:
    # z is already shifted by -1; valid for Re(z+1) >= 0.5.  Written out term
    # by term, which a loop makes a third dearer; summed from c0 upwards.
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS_COEFFS
    return (
        c0 + c1 / (z + 1) + c2 / (z + 2) + c3 / (z + 3) + c4 / (z + 4)
        + c5 / (z + 5) + c6 / (z + 6) + c7 / (z + 7) + c8 / (z + 8)
    )


def _log_gamma_right(z: complex) -> complex:
    # log gamma for Re z >= 0.5; branch of log(lanczos sum) is irrelevant to
    # callers that exponentiate it.
    w = z - 1.0
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(w))


def _log_sin_pi(z: complex) -> tuple[complex, bool]:
    """(log s up to 2 pi i, negate), sin(pi z) = -s if negate else s, z off the integers.

    Reduced by n = round(Re z), sin(pi z) = (-1)^n sin(pi w) with w = z - n,
    so no digits are lost next to an integer.  Past |Im w| = 20 only the
    larger exponential of sin(pi w) = (e^(i pi w) - e^(-i pi w)) / 2i counts
    (the other is below 1e-54 of it), so the log stays finite where sin(pi z)
    overflows.  Nearer, s has Re s >= 0, so the log is real on the real axis.
    """
    n = round(z.real)
    w = z - n
    negate = n % 2 == 1
    if abs(w.imag) > 20.0:
        # sin(pi w) ~ (s i/2) e^(-s i pi w), s the sign of Im w
        s = math.copysign(1.0, w.imag)
        return s * complex(math.pi * w.imag, 0.5 * math.pi - math.pi * w.real) - _LN2, negate
    sin_pi = cmath.sin(math.pi * w)
    if sin_pi.real < 0.0:
        return cmath.log(-sin_pi), not negate
    return cmath.log(sin_pi), negate


def _log_reciprocal_gamma(z: complex) -> tuple[complex, bool]:
    """(L, negate), 1/gamma(z) = -exp(L) if negate else exp(L), for finite z
    off the poles; L is log(1/gamma(z)) up to a multiple of pi i."""
    if z.real >= 0.5:
        return -_log_gamma_right(z), False
    # reflection: 1/gamma(z) = sin(pi z) gamma(1 - z) / pi
    log_sin, negate = _log_sin_pi(z)
    return log_sin + _log_gamma_right(1.0 - z) - _LN_PI, negate


def gamma(z: complex) -> complex:
    """Complex gamma function on the principal branch.

    Raises PoleError when ``z`` is within ``POLE_GUARD_RADIUS`` of a
    non-positive integer, and DomainError where gamma is beyond double range
    (near the real axis above about 171.62).  Real arguments give real values.
    """
    z = complex_("gamma requires a finite number", z)
    # left of 0.5 the nearest integer, round(Re z), is a pole: it is at most 0
    if z.real < 0.5 and abs(z - round(z.real)) < POLE_GUARD_RADIUS:
        raise PoleError(f"gamma pole too close to z = {z!r}")
    log_value, negate = _log_reciprocal_gamma(z)
    return _exp(-log_value, "gamma", z, negate)


def reciprocal_gamma(z: complex) -> complex:
    """1/gamma(z), computed as an entire function.

    Unlike ``1 / gamma(z)`` this underflows cleanly to 0 for arguments where
    gamma overflows double precision (large positive real part), and is exact
    zero at the poles of gamma.  Used for integrands of the form
    ``1/gamma(...)`` whose argument sweeps far into the right half plane.
    Raises DomainError where 1/gamma is beyond double range: far into the
    left half plane away from the poles, and past |Im z| of about 450 near
    Re z = 0.  Real arguments give real values.
    """
    z = complex_("reciprocal_gamma requires a finite number", z)
    if z.real <= 0.0 and z.imag == 0.0 and z.real.is_integer():
        return 0j  # a pole of gamma
    log_value, negate = _log_reciprocal_gamma(z)
    return _exp(log_value, "reciprocal_gamma", z, negate)


# ---------------------------------------------------------------------------
# Zeta: one Euler-Maclaurin sum (Edwards, Riemann's Zeta Function, 1974,
# section 6.4) on -1 <= Re z < 10, the functional equation left of that, and
# a plain Dirichlet sum for Re z >= 10, where it needs fewer terms.
# ---------------------------------------------------------------------------

#: log 1 ... log 160, read by both sums: the Euler-Maclaurin sum is refused
#: past N = 160, and the Dirichlet sum takes at most 28 terms (at Re s = 10).
_LOGS = tuple(math.log(k) for k in range(1, 161))

#: B_2j / (2j)! for j = 1 ... 10, the weights of the Euler-Maclaurin corrections.
_EM_WEIGHTS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
         -3617 / 510, 43867 / 798, -174611 / 330),
        start=1,
    )
)


def _zeta_euler_maclaurin(s: complex) -> complex:
    """zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
    + sum_{j=1}^{10} B_2j/(2j)! s(s+1)...(s+2j-2) N^(-s-2j+1), for s != 1.

    N = floor(0.6 |s|) + 8 (DomainError past 160).  On -1 <= Re s < 10,
    |Im s| <= 50 the remainder bound of this (N, 10) is below 1e-13 max(1, |zeta(s)|).
    """
    n = int(0.6 * abs(s)) + 8
    if n > len(_LOGS):
        raise DomainError(f"zeta's sum at s = {s!r} needs {n} terms, past its table of 160")
    acc = 0j
    minus_s, exp = -s, cmath.exp
    for ln_k in _LOGS[:n - 1]:
        acc += exp(minus_s * ln_k)
    # the corrections by Horner's rule in 1/N^2, innermost weight first
    inv_n2 = 1.0 / (n * n)
    h = 0j
    for j in range(len(_EM_WEIGHTS), 0, -1):
        h = _EM_WEIGHTS[j - 1] + h * (s + (2 * j - 1)) * (s + 2 * j) * inv_n2
    return acc + exp(minus_s * _LOGS[n - 1]) * (n / (s - 1.0) + 0.5 + s * h / n)


def _zeta_dirichlet(s: complex) -> complex:
    """Plain Dirichlet sum, for Re s >= 10 where the tail bound is tiny."""
    sigma = s.real
    # tail of sum_{k>N} k^-sigma is below N^(1-sigma)/(sigma-1)
    n_terms = max(2, math.ceil(math.exp((32.2 - math.log(sigma - 1.0)) / (sigma - 1.0))))
    acc = 1.0 + 0j
    minus_s, exp = -s, cmath.exp
    for ln_k in _LOGS[1:n_terms]:
        acc += exp(minus_s * ln_k)
    return acc


def _zeta_reflect(s: complex) -> complex:
    """Functional equation: zeta(s) = chi(s) zeta(1-s), for Re s < -1.

    chi is formed in log space, so gamma(1-s) may exceed double range as
    long as chi itself does not.
    """
    log_chi = s * _LN2 + (s - 1.0) * _LN_PI + _log_gamma_right(1.0 - s)
    return cmath.exp(log_chi) * cmath.sin(0.5 * math.pi * s) * _zeta_euler_maclaurin(1.0 - s)


def zeta(z: complex) -> complex:
    """Riemann zeta function for complex arguments.

    The formula is chosen from Re z alone: the Dirichlet sum from 10 on,
    the Euler-Maclaurin sum on -1 <= Re z < 10 and the functional equation
    left of -1.  Validated to >= 10 significant digits for Re z >= 0,
    |Im z| <= 50 (the region our contour integrals sweep); an
    AccuracyWarning is emitted when asked for points outside it, where left
    of Re z = 10 the error grows with |Im z|.  Raises PoleError within
    ``POLE_GUARD_RADIUS`` of z = 1, and DomainError left of Re z = 10 from
    |s| = 255 on, s being z, or 1 - z left of -1, where the Euler-Maclaurin
    sum would need more terms than its table holds, and where the value is
    beyond double range.
    """
    z = complex_("zeta requires a finite number", z)
    if modulus(z - 1.0) < POLE_GUARD_RADIUS:
        raise PoleError(f"zeta pole too close to z = {z!r}")
    if z.real >= 10.0:
        # error bound of the plain sum does not depend on Im z, so no
        # accuracy warning is needed out here
        series = _zeta_dirichlet
    else:
        if abs(z.imag) > ZETA_VALIDATED_IM_MAX or z.real < ZETA_VALIDATED_RE_MIN:
            # constant text, so the default filter shows it once per call site
            warnings.warn(_ZETA_OUTSIDE_MESSAGE, AccuracyWarning, stacklevel=2)
        # left of -1, not of 0: reflecting next to z = 0 would form (1 - z) - 1
        series = _zeta_euler_maclaurin if z.real >= -1.0 else _zeta_reflect
    try:
        value = series(z)
        if cmath.isfinite(value):
            return value
    except DomainError:
        raise  # past the sum's table
    except FAILURES:
        pass
    raise DomainError(f"zeta at z = {z!r} is beyond double range or cannot be evaluated")
