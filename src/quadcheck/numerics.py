"""Complex arithmetic conventions and the special functions.

Everything here is plain double precision over Python's built-in ``complex``.
All multivalued functions use the principal branch, see ``PRINCIPAL_BRANCH``.
The two nontrivial functions are ``gamma`` (Lanczos approximation plus the
reflection formula) and ``zeta`` (accelerated alternating series plus the
functional equation), both implemented from scratch so their accuracy can be
property-tested against independent series oracles.
"""

from __future__ import annotations

import cmath
import math
import warnings

from .errors import DomainError, PoleError

__all__ = [
    "PRINCIPAL_BRANCH",
    "POLE_GUARD_RADIUS",
    "AccuracyWarning",
    "cpow",
    "gamma",
    "reciprocal_gamma",
    "zeta",
    "is_finite",
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


class AccuracyWarning(UserWarning):
    """The result may carry fewer correct digits than the documented target."""


def is_finite(z: complex) -> bool:
    """True iff both components of ``z`` are finite (no NaN, no infinity)."""
    return math.isfinite(z.real) and math.isfinite(z.imag)


def cpow(base: complex, exponent: complex) -> complex:
    """Principal-branch power ``base**exponent = exp(exponent * log base)``.

    ``0**w`` is 0 for Re w > 0 and a domain error otherwise (including
    ``0**0``).
    """
    base = complex(base)
    exponent = complex(exponent)
    if base == 0:
        if exponent.real > 0:
            return 0j
        raise DomainError(
            "0 cannot be raised to an exponent with non-positive real part"
        )
    return cmath.exp(exponent * cmath.log(base))


# ---------------------------------------------------------------------------
# Gamma: Lanczos approximation (g = 7, 9 coefficients), reflection for
# Re z < 0.5.  Verified to < 1e-13 relative error on |Re z| <= 10,
# |Im z| <= 10 against high-precision references.
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
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _pole_distance(z: complex) -> float:
    """Distance from ``z`` to the nearest non-positive integer."""
    n = round(z.real)
    if n > 0:
        n = 0
    return abs(z - n)


def _sin_pi(z: complex) -> complex:
    """sin(pi z) as (-1)^n sin(pi (z - n)), n = round(Re z): exact at and near integers."""
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if n % 2 else s


def _lanczos_sum(z: complex) -> complex:
    # z is already shifted by -1; valid for Re(z+1) >= 0.5
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    return acc


def gamma(z: complex) -> complex:
    """Complex gamma function on the principal branch.

    Raises PoleError when ``z`` is within ``POLE_GUARD_RADIUS`` of a
    non-positive integer.
    """
    z = complex(z)
    if not is_finite(z):
        raise DomainError("gamma requires a finite argument")
    if z.real < 0.5:
        if _pole_distance(z) < POLE_GUARD_RADIUS:
            raise PoleError(f"gamma pole too close to z = {z!r}")
        # Reflection: gamma(z) = pi / (sin(pi z) gamma(1 - z))
        return math.pi / (_sin_pi(z) * gamma(1.0 - z))
    w = z - 1.0
    t = w + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * cmath.exp((w + 0.5) * cmath.log(t) - t) * _lanczos_sum(w)


def _log_gamma_right(z: complex) -> complex:
    # log gamma for Re z >= 0.5; branch of log(lanczos sum) is irrelevant to
    # callers that only exponentiate the result.
    w = z - 1.0
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(_lanczos_sum(w))


def reciprocal_gamma(z: complex) -> complex:
    """1/gamma(z), computed as an entire function.

    Unlike ``1 / gamma(z)`` this underflows cleanly to 0 for arguments where
    gamma overflows double precision (large positive real part), and is exact
    zero at the poles of gamma.  Used for integrands of the form
    ``1/gamma(...)`` whose argument sweeps far into the right half plane.
    """
    z = complex(z)
    if not is_finite(z):
        raise DomainError("reciprocal_gamma requires a finite argument")
    if z.real >= 0.5:
        try:
            return cmath.exp(-_log_gamma_right(z))
        except OverflowError:
            # 1/gamma overflows only when gamma underflows; out of our domain
            raise DomainError(f"reciprocal_gamma overflows at z = {z!r}")
    # 1/gamma(z) = sin(pi z) gamma(1 - z) / pi
    return _sin_pi(z) * cmath.exp(_log_gamma_right(1.0 - z)) / math.pi


# ---------------------------------------------------------------------------
# Zeta: accelerated alternating (Dirichlet eta) series with Chebyshev-derived
# weights for Re z >= 0.5, functional equation below.  A plain Dirichlet sum
# takes over for Re z >= 10 where it is both cheaper and immune to the
# |Im z| growth of the alternating-series error bound.
# ---------------------------------------------------------------------------

_ETA_COEFF_CACHE: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}
_LN2 = math.log(2.0)


def _eta_coefficients(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Alternating-series acceleration weights.

    Returns ``(c_k, log(k+1))`` for k = 0..n-1 with
    c_k = (-1)^k (d_n - d_k)/d_n and d_k the standard Chebyshev-polynomial
    integer weights.  Exact integer arithmetic avoids cancellation when
    forming the ratios.
    """
    cached = _ETA_COEFF_CACHE.get(n)
    if cached is not None:
        return cached
    d = []
    s = 0
    for j in range(n + 1):
        s += (
            math.factorial(n + j - 1)
            * 4**j
            // (math.factorial(n - j) * math.factorial(2 * j))
        )
        d.append(n * s)
    dn = d[n]
    coeffs = tuple(
        (float(dn - d[k]) / float(dn)) * (1.0 if k % 2 == 0 else -1.0)
        for k in range(n)
    )
    logs = tuple(math.log(k + 1) for k in range(n))
    _ETA_COEFF_CACHE[n] = (coeffs, logs)
    return coeffs, logs


def _eta_terms(s: complex) -> int:
    # Error of the accelerated series decays like (3+sqrt 8)^-n but carries a
    # factor exp(pi |Im s| / 2); solve for n with generous padding.
    t = abs(s.imag)
    n = int((31.0 + math.log1p(2.0 * t) + 0.5 * math.pi * t) / 1.7627) + 10
    if s.real < 0.5:
        n += 10
    n = max(n, 32)
    # quantize so the coefficient cache gets reused
    return min(((n + 7) // 8) * 8, 160)


def _expm1_complex(w: complex) -> complex:
    """exp(w) - 1 without cancellation for small |w|."""
    if abs(w) > 0.25:
        return cmath.exp(w) - 1.0
    term = 1.0 + 0j
    acc = 0j
    for k in range(1, 20):
        term *= w / k
        acc += term
        if abs(term) < 1e-20 * abs(acc):
            break
    return acc


def _zeta_alternating(s: complex) -> complex:
    """Direct evaluation via the accelerated eta series; needs Re s > 0
    in practice (accuracy degrades gracefully toward Re s = 0)."""
    coeffs, logs = _eta_coefficients(_eta_terms(s))
    acc = 0j
    for c, ln_k in zip(coeffs, logs):
        acc += c * cmath.exp(-s * ln_k)
    # zeta = eta / (1 - 2^(1-s)); the denominator cancels badly near s = 1,
    # so build it from expm1.
    den = -_expm1_complex((1.0 - s) * _LN2)
    return acc / den


def _zeta_dirichlet(s: complex) -> complex:
    """Plain Dirichlet sum, for Re s >= 10 where the tail bound is tiny."""
    sigma = s.real
    # tail of sum_{k>N} k^-sigma is below N^(1-sigma)/(sigma-1)
    n_terms = max(2, math.ceil(math.exp((32.2 - math.log(sigma - 1.0)) / (sigma - 1.0))))
    acc = 1.0 + 0j
    for k in range(2, n_terms + 1):
        acc += cmath.exp(-s * math.log(k))
    return acc


def _zeta_reflect(s: complex) -> complex:
    """Functional equation: zeta(s) = chi(s) zeta(1-s)."""
    chi = (
        cpow(2.0, s)
        * cpow(math.pi, s - 1.0)
        * cmath.sin(0.5 * math.pi * s)
        * gamma(1.0 - s)
    )
    return chi * _zeta_alternating(1.0 - s)


def zeta(z: complex) -> complex:
    """Riemann zeta function for complex arguments.

    Validated to >= 10 significant digits for Re z >= 0, |Im z| <= 50 (the
    region our contour integrals sweep); an AccuracyWarning is emitted when
    asked for points far outside it.  Raises PoleError within
    ``POLE_GUARD_RADIUS`` of z = 1.
    """
    z = complex(z)
    if not is_finite(z):
        raise DomainError("zeta requires a finite argument")
    if abs(z - 1.0) < POLE_GUARD_RADIUS:
        raise PoleError(f"zeta pole too close to z = {z!r}")
    if z.real >= 10.0:
        # error bound of the plain sum does not depend on Im z, so no
        # accuracy warning is needed out here
        return _zeta_dirichlet(z)
    if abs(z.imag) > ZETA_VALIDATED_IM_MAX or z.real < ZETA_VALIDATED_RE_MIN:
        warnings.warn(
            f"zeta({z!r}) is outside the validated region "
            f"(Re >= {ZETA_VALIDATED_RE_MIN}, |Im| <= {ZETA_VALIDATED_IM_MAX}); "
            "accuracy may be reduced",
            AccuracyWarning,
            stacklevel=2,
        )
    if z.real >= 0.5:
        return _zeta_alternating(z)
    # For Re z < 0.5 use the functional equation, except in a small disc
    # around the origin where its zeta(1-z) factor sits on the pole; the
    # alternating series is still accurate there.
    if abs(z) <= 0.01:
        return _zeta_alternating(z)
    return _zeta_reflect(z)
