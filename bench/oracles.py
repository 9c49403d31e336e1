"""Closed forms for every benchmark operation, written apart from the package.

The catalog's four transform cases (rational, bessel, gaussian, cosine) are
evaluated through the master identity

    integral of F(x^2 + i pi x) K_a(x) = pi F(k0) / (c a (1 + a^2)),
    k0 = pi^2/4 + ln^2 a,

with c = 4 for half-line cases and c = 2 for full-line ones, instead of the
hand-simplified formulas in ``quadcheck.catalog``.  Real gamma values come
from ``math.gamma`` and real zeta values from an Euler-Maclaurin sum, so no
oracle calls into ``quadcheck.numerics``.
"""

from __future__ import annotations

import cmath
import math

# B_2k / (2k)! for k = 1..6
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)
_EM_TERMS = 10


def zeta_real(s: float) -> float:
    """Riemann zeta at real s != 1 by Euler-Maclaurin (about 15 digits for s > 0)."""
    n = _EM_TERMS
    total = math.fsum(k ** -s for k in range(1, n))
    total += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    rising = s  # s (s+1) ... (s+2k-2)
    for k, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * rising * n ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return total


def reciprocal_gamma_real(x: float) -> float:
    """1/Gamma(x) for real x, zero at the poles."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _real(k: complex) -> float:
    if k.imag != 0.0:
        raise ValueError(f"oracle needs a real argument, got {k!r}")
    return k.real


#: The custom-transform list, each as an expression for ``quadcheck.parse``
#: and as an independent Python function of k.
TRANSFORMS = {
    "1/(k+2)": lambda k: 1.0 / (k + 2.0),
    "exp(-k)": lambda k: cmath.exp(-k),
    "1/sqrt(1+k^2)": lambda k: 1.0 / cmath.sqrt(1.0 + k * k),
    "exp(-0.3*k^2)": lambda k: cmath.exp(-0.3 * k * k),
    "cos(0.1*k)": lambda k: cmath.cos(0.1 * k),
    "1/gamma(k/3+1)": lambda k: reciprocal_gamma_real(_real(k) / 3.0 + 1.0),
    "1/zeta(k+2)": lambda k: 1.0 / zeta_real(_real(k) + 2.0),
    "log(k+3)/(k+1)^2": lambda k: cmath.log(k + 3.0) / ((k + 1.0) * (k + 1.0)),
    "k/(k^2+1)": lambda k: k / (k * k + 1.0),
}


def _master(F, a: complex, c: float) -> complex:
    ln_a = cmath.log(a)
    k0 = math.pi * math.pi / 4.0 + ln_a * ln_a
    if k0.imag == 0.0:
        k0 = complex(k0.real)
    return math.pi * complex(F(k0)) / (c * a * (1.0 + a * a))


def closed_form(case: str, p: dict) -> complex:
    """Right side for a report record's ``case`` name and parameters."""
    if case == "rational":
        return _master(lambda k: 1.0 / (k + p["b"]), p["a"], 4.0)
    if case == "bessel":
        return _master(lambda k: 1.0 / cmath.sqrt(1.0 + k * k), p["a"], 2.0)
    if case == "gaussian":
        return _master(lambda k: cmath.exp(-p["b"] * k * k), p["a"], 4.0)
    if case == "cosine":
        return _master(lambda k: cmath.cos(p["alpha"] * k), p["a"], 4.0)
    if case == "kernel":
        return _master(lambda k: cmath.exp(-p["t"] * k), p["a"], 4.0)
    if case == "gamma":
        return complex(reciprocal_gamma_real(p["a"].real + p["b"].real))
    if case == "zeta":
        n = int(p["n"].real)
        base = p["x"].real ** 0.25 / (2.0 * math.pi)
        if n == 0:
            return complex(base)
        return complex(base / zeta_real(p["a"].real) ** n)
    if case.startswith("master[") and case.endswith("]"):
        return _master(TRANSFORMS[case[7:-1]], p["a"], 2.0)
    raise KeyError(f"no oracle for case {case!r}")


def oscillatory(omega: float) -> float:
    """Integral of cos(omega x) over [0, 10]."""
    return math.sin(10.0 * omega) / omega
