"""Adaptive complex-valued quadrature.

One driver serves every domain: a single partition of Gauss-Kronrod 7/15
segments under one global tolerance ``max(abs_tol, rel_tol * |value|)``,
always bisecting the segment with the largest error estimate, as QUADPACK's
``qag`` does.  A finite interval is the partition of [lo, hi].  The
half-line starts as [0, 8] and grows by one window of ratio 1.5 (up to 120)
each time the partition meets the tolerance, until the newest window's
contribution is negligible; that contribution is charged to the error as
the truncation tail.  This is cheap and honest for integrands that decay
like exp(-|x|) or faster.  The full line is folded onto the half-line.
Everything is sequential and deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import heapq
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
_TAIL_FRACTION = 0.25  # newest window's contribution must fall below this times tol
# Half-line windows: [0, 8] first, then each ends 1.5 times further out, up to 120.
_INITIAL_TRUNCATION = 8.0
_WINDOW_GROWTH = 1.5
_MAX_TRUNCATION = 120.0


@dataclass(frozen=True)
class QuadratureOptions:
    """Tolerances and budget for the adaptive integrator.

    The tolerance ``max(abs_tol, rel_tol * |value|)`` holds for the whole
    integral, tail included.  ``max_subdivisions`` caps the bisections of
    the one partition, over all windows together.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with an error estimate and diagnostics.

    ``truncation_used`` is the right edge of the last window for unbounded
    domains and 0.0 for finite ones.  ``error_estimate`` includes the
    truncation tail.  ``converged`` is True iff ``error_estimate <=
    max(abs_tol, rel_tol * |value|)`` and, on the half-line, the window
    sweep ran to its end instead of stopping on the budget.
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
        # the power is taken only below 1: above it, it can overflow
        ratio = 200.0 * err / resasc
        err = resasc * ratio**1.5 if ratio < 1.0 else resasc
    if resabs > 0.0:
        err = max(err, _ROUNDING_ULPS * _EPS * resabs)
    return resk * h, err


def _totals(segments: list, left: float = -math.inf) -> tuple[complex, float]:
    """Exact value and error sums over the segments that start at ``left`` or later.

    ``math.fsum`` is correctly rounded, so the sums do not depend on the
    order of the segments.
    """
    chosen = [s for s in segments if s[1] >= left]
    value = complex(math.fsum(s[3].real for s in chosen), math.fsum(s[3].imag for s in chosen))
    return value, -math.fsum(s[0] for s in chosen)


def _partition(
    f: Integrand, lo: float, hi: float, opts: QuadratureOptions, windowed: bool
) -> QuadratureResult:
    """Worst-first bisection of one partition under one global tolerance.

    The segments live in a heap keyed by (-error, left edge), so the worst
    segment is bisected first and ties break the same way on every run.
    A running total gates the stop test; every stop decision is taken on
    the exact totals.  With ``windowed``, [lo, hi] is the first window, the
    partition is refined to (1 - _TAIL_FRACTION) of the tolerance, and each
    time it gets there one more geometric window is appended, until the
    newest window contributes at most ``_TAIL_FRACTION`` of the tolerance;
    that contribution is added to the error as the truncation tail.
    """
    segments: list[tuple[float, float, float, complex]] = []

    def rule(a: float, b: float) -> tuple[complex, float]:
        v, e = _gk15(f, a, b)
        heapq.heappush(segments, (-e, a, b, v))
        return v, e

    value, error = rule(lo, hi)
    evals = 15
    budget = opts.max_subdivisions
    fraction = 1.0 - _TAIL_FRACTION if windowed else 1.0
    window = lo  # left edge of the newest window
    contributions: list[float] = []
    finished = not windowed
    while True:
        if error <= fraction * max(opts.abs_tol, opts.rel_tol * abs(value)):
            value, error = _totals(segments)
            target = max(opts.abs_tol, opts.rel_tol * abs(value))
            if error <= fraction * target:
                if not windowed:
                    break
                # the first window feeds the divergence test, never the tail stop
                contributions.append(abs(_totals(segments, window)[0]))
                if len(contributions) >= 2 and contributions[-1] <= _TAIL_FRACTION * target:
                    finished = True
                    break
                if len(contributions) >= 3 and (
                    contributions[-3] <= contributions[-2] <= contributions[-1]
                ):
                    raise DivergenceError(
                        "window contributions are not decreasing "
                        f"(last three: {contributions[-3]:.3e}, {contributions[-2]:.3e}, "
                        f"{contributions[-1]:.3e}); integrand looks inadmissible"
                    )
                if hi >= _MAX_TRUNCATION:
                    finished = True
                    break
                window, hi = hi, min(hi * _WINDOW_GROWTH, _MAX_TRUNCATION)
                v, e = rule(window, hi)
                evals += 15
                value += v
                error += e
                continue
        if budget == 0:
            break
        neg_e, a, b, v = segments[0]
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # the worst segment is at floating-point resolution
            break
        heapq.heappop(segments)
        v1, e1 = rule(a, m)
        v2, e2 = rule(m, b)
        evals += 30
        budget -= 1
        value += v1 + v2 - v
        error += e1 + e2 + neg_e

    value, error = _totals(segments)
    if windowed and window > lo:
        error += abs(_totals(segments, window)[0])
    converged = finished and error <= max(opts.abs_tol, opts.rel_tol * abs(value))
    return QuadratureResult(value, error, evals, hi if windowed else 0.0, converged)


def integrate_finite(
    f: Integrand, lo: float, hi: float, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the finite interval [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integrate_finite requires finite endpoints")
    if not lo < hi:
        raise DomainError("integrate_finite requires lo < hi")
    return _partition(f, lo, hi, opts or QuadratureOptions(), windowed=False)


def integrate_half_line(
    f: Integrand, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over [0, infinity) by geometric window growth."""
    return _partition(f, 0.0, _INITIAL_TRUNCATION, opts or QuadratureOptions(), windowed=True)


def integrate_real_line(
    f: Integrand, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the whole real line, folded onto [0, infinity).

    The half-line windows integrate ``f(x) + f(-x)``; ``evaluations``
    counts calls of ``f``, two per folded node.
    """

    def folded(x: float) -> complex:
        return _eval(f, x) + _eval(f, -x)

    opts = opts or QuadratureOptions()
    result = _partition(folded, 0.0, _INITIAL_TRUNCATION, opts, windowed=True)
    return replace(result, evaluations=2 * result.evaluations)
