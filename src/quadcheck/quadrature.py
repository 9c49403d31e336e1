"""Adaptive complex-valued quadrature.

A Gauss-Kronrod 7/15 pair with interval bisection handles finite intervals;
the half-line is covered by geometrically growing truncation windows whose
contributions are monitored directly, which is cheap and honest for
integrands that decay like exp(-|x|) or faster.  The full line is folded
onto the half-line.  Everything is sequential and deterministic: identical
inputs produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import DivergenceError, DomainError, IntegrandError

__all__ = [
    "Integrand",
    "QuadratureOptions",
    "QuadratureResult",
    "integrate_finite",
    "integrate_half_line",
    "integrate_real_line",
]

Integrand = Callable[[float], complex]

# Kronrod-15 abscissae (positive half) and weights, Gauss-7 weights on the
# shared odd-indexed nodes.  QUADPACK values, 33 significant digits.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16
# Rounding floor per interval, in ulps of the |f| integral.  Summed over a
# partition this models the accumulated rounding of the weighted sums while
# staying far below the default tolerances for well-scaled integrands.
_ROUNDING_ULPS = 2.0
_TAIL_FRACTION = 0.25  # window contribution must fall below this times tol
_WINDOW_TOL_FRACTION = 0.125  # per-window refinement target, fraction of tol


@dataclass(frozen=True)
class QuadratureOptions:
    """Tolerances and budgets for the adaptive integrator.

    ``initial_truncation`` is the half-width of the first window used for
    unbounded domains; windows then grow by ``window_growth`` up to
    ``max_truncation``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    initial_truncation: float = 8.0
    max_truncation: float = 120.0
    window_growth: float = 1.5

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if not (self.initial_truncation > 0):
            raise DomainError("initial_truncation must be positive")
        if not (self.initial_truncation < self.max_truncation):
            raise DomainError("initial_truncation must be below max_truncation")
        if not (self.window_growth > 1.0):
            raise DomainError("window_growth must exceed 1")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an error estimate and diagnostics.

    ``truncation_used`` is the final window half-width for unbounded
    domains and 0.0 for finite ones.  ``converged`` is True iff
    ``error_estimate <= max(abs_tol, rel_tol * |value|)`` was reached
    within budget.
    """

    value: complex
    error_estimate: float
    evaluations: int
    truncation_used: float
    converged: bool


def _eval(f: Integrand, x: float) -> complex:
    try:
        v = complex(f(x))
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise IntegrandError(x, str(exc)) from exc
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise IntegrandError(x)
    return v


def _gk15(f: Integrand, lo: float, hi: float) -> tuple[complex, float]:
    """One Gauss-Kronrod 7/15 application on [lo, hi].

    Returns (Kronrod value, error estimate).  The estimate follows the
    QUADPACK recipe: the raw Gauss/Kronrod discrepancy is damped through
    the variation integral resasc, and floored at a small multiple of
    ulp(integral of |f|) to stay honest once discretization error is gone.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = _eval(f, c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fv = []
    for j in range(7):
        dx = h * _XGK[j]
        f1 = _eval(f, c - dx)
        f2 = _eval(f, c + dx)
        fv.append((f1, f2))
        fsum = f1 + f2
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        f1, f2 = fv[j]
        resasc += _WGK[j] * (abs(f1 - mean) + abs(f2 - mean))
    resasc *= h
    resabs *= h
    err = abs(resk - resg) * h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 0.0:
        err = max(err, _ROUNDING_ULPS * _EPS * resabs)
    return resk * h, err


def _resum(segments: list[tuple[float, float, complex, float]]) -> tuple[complex, float]:
    """Canonical reduction: sum values and errors left to right."""
    value = 0j
    error = 0.0
    for seg in sorted(segments, key=lambda s: s[0]):
        value += seg[2]
        error += seg[3]
    return value, error


def _adaptive(
    f: Integrand,
    lo: float,
    hi: float,
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> tuple[complex, float, int, int, bool]:
    """Adaptive bisection on one finite interval.

    Returns (value, error, evaluations, subdivisions_used, converged).
    Convergence is always judged on the canonical left-to-right
    resummation of the current partition; a cheap incremental tracker
    only gates when that exact sum is recomputed.
    """
    val, err = _gk15(f, lo, hi)
    segments = [(lo, hi, val, err)]
    evals = 15
    nsub = 0
    track_val = val
    track_err = err
    while True:
        if track_err <= max(abs_tol, rel_tol * abs(track_val)):
            track_val, track_err = _resum(segments)
            if track_err <= max(abs_tol, rel_tol * abs(track_val)):
                return track_val, track_err, evals, nsub, True
            # incremental tracker had drifted; continue from exact totals
        if nsub >= max_subdivisions:
            break
        worst = max(range(len(segments)), key=lambda i: segments[i][3])
        a, b, v, e = segments[worst]
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval is at floating-point resolution; cannot refine further
            break
        v1, e1 = _gk15(f, a, m)
        v2, e2 = _gk15(f, m, b)
        evals += 30
        nsub += 1
        segments[worst] = (a, m, v1, e1)
        segments.append((m, b, v2, e2))
        track_val += v1 + v2 - v
        track_err += e1 + e2 - e
    value, error = _resum(segments)
    converged = error <= max(abs_tol, rel_tol * abs(value))
    return value, error, evals, nsub, converged


def integrate_finite(
    f: Integrand, lo: float, hi: float, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the finite interval [lo, hi]."""
    opts = opts or QuadratureOptions()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not lo < hi:
        raise DomainError("integrate_finite requires lo < hi")
    value, error, evals, _, converged = _adaptive(
        f, lo, hi, opts.abs_tol, opts.rel_tol, opts.max_subdivisions
    )
    return QuadratureResult(value, error, evals, 0.0, converged)


def _integrate_unbounded(f: Integrand, opts: QuadratureOptions) -> QuadratureResult:
    """Window driver for integrals over [0, infinity).

    The domain is swept window by window: [0, L0], then each growth step
    appends [L, L*growth].  Iteration stops once the newest window
    contributes less than a fixed fraction of the tolerance; two
    consecutive non-shrinking contributions raise DivergenceError instead.
    """
    budget = opts.max_subdivisions
    L0 = opts.initial_truncation

    def window_tols(total: complex) -> tuple[float, float]:
        target = max(opts.abs_tol, opts.rel_tol * abs(total))
        return target * _WINDOW_TOL_FRACTION, opts.rel_tol * _WINDOW_TOL_FRACTION

    a_tol, r_tol = window_tols(0j)
    value, error, evals, used, ok = _adaptive(f, 0.0, L0, a_tol, r_tol, budget)
    budget -= used
    all_converged = ok
    # the initial window participates in the divergence chain but never in
    # the tail-stop decision (at least one growth window is always examined)
    contributions: list[float] = [abs(value)]
    truncation = L0
    tail: float | None = None

    left = L0
    while left < opts.max_truncation:
        target = max(opts.abs_tol, opts.rel_tol * abs(value))
        if len(contributions) >= 2 and contributions[-1] <= _TAIL_FRACTION * target:
            tail = contributions[-1]
            break
        if budget <= 0:
            all_converged = False
            break
        right = min(left * opts.window_growth, opts.max_truncation)
        a_tol, r_tol = window_tols(value)
        v, e, n, used, ok = _adaptive(f, left, right, a_tol, r_tol, budget)
        budget -= used
        evals += n
        value += v
        error += e
        all_converged = all_converged and ok
        truncation = right
        contributions.append(abs(v))
        if (
            len(contributions) >= 3
            and contributions[-1] >= contributions[-2]
            and contributions[-2] >= contributions[-3]
            and contributions[-1]
            > _TAIL_FRACTION * max(opts.abs_tol, opts.rel_tol * abs(value))
        ):
            raise DivergenceError(
                "window contributions are not decreasing "
                f"(last three: {contributions[-3]:.3e}, {contributions[-2]:.3e}, "
                f"{contributions[-1]:.3e}); integrand looks inadmissible"
            )
        left = right

    if tail is None:
        # stopped by budget or by running into max_truncation
        tail = contributions[-1] if len(contributions) >= 2 else 0.0
        if tail > _TAIL_FRACTION * max(opts.abs_tol, opts.rel_tol * abs(value)):
            all_converged = False
    error += tail
    converged = all_converged and error <= max(opts.abs_tol, opts.rel_tol * abs(value))
    return QuadratureResult(value, error, evals, truncation, converged)


def integrate_half_line(
    f: Integrand, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over [0, infinity) by geometric window growth."""
    return _integrate_unbounded(f, opts or QuadratureOptions())


def integrate_real_line(
    f: Integrand, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the whole real line, folded onto [0, infinity).

    The half-line windows integrate ``f(x) + f(-x)``; ``evaluations``
    counts calls of ``f``, two per folded node.
    """

    def folded(x: float) -> complex:
        return _eval(f, x) + _eval(f, -x)

    result = _integrate_unbounded(folded, opts or QuadratureOptions())
    return replace(result, evaluations=2 * result.evaluations)
