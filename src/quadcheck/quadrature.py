"""Adaptive complex-valued quadrature.

One driver serves every domain: a single partition of Gauss-Kronrod 7/15
segments under one global tolerance ``max(abs_tol, rel_tol * |value|)``,
always bisecting the segment with the largest error estimate, as QUADPACK's
``qag`` does.  A finite interval is the partition of [lo, hi].  The
half-line starts as a window of several rules, [0, 8] or one around a peak
the caller names, and grows by one window of ratio 1.5 (up to 112 past the
first) each time the partition meets the tolerance, until the newest window
contributes next to nothing; that contribution is charged to the error as
the truncation tail.  This is cheap and honest for integrands that decay like
exp(-|x|) or faster past the first window.  The full line is folded in two.

Each segment's error is floored at a few ulps of its integral of |f|, so
the partition's error can never fall below ``2 eps * integral of |f|``,
whatever the bisection does.  When the tolerance lies below that floor, as
for large integrands with small, cancelling integrals, the run stops as
``roundoff_limited`` (QUADPACK's ``ier=2``) as soon as the segments that
resolve f already account for it, instead of spending its budget.

Everything is sequential and deterministic: identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable

from ._frozen import Frozen, replace
from .errors import (
    FAILURES,
    DivergenceError,
    DomainError,
    IntegrandError,
    QuadcheckError,
    complex_,
    modulus,
    real,
)

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
_FLOOR = _ROUNDING_ULPS * _EPS  # a segment's floor is this times its |f| integral
_TAIL_FRACTION = 0.25  # newest window's contribution must fall below this times tol
# The running error total is re-summed exactly each time it falls this many
# times below the last exact sum: where large errors cancel, its rounding
# drift would otherwise keep it above the tolerance the exact sum meets.
_RESUM_DROP = 16.0
# Half-line windows: the first opened as several rules (_first_window) rather
# than one rule that bisection would throw away with the ones after it; then
# each window ends 1.5 times further out, up to 112 past the first.
_WINDOW_GROWTH = 1.5
_TAIL_REACH = 112.0


class QuadratureOptions(Frozen):
    """Tolerances and budget for the adaptive integrator.

    The tolerance ``max(abs_tol, rel_tol * |value|)`` holds for the whole
    integral, tail included; both tolerances must be positive and finite.
    ``max_subdivisions``, an ``int`` of at least 1, caps the bisections of
    the one partition, over all windows together.  Other values raise
    DomainError.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        # an infinite tolerance would let every run converge on its first rules
        for name in ("abs_tol", "rel_tol"):
            what = f"tolerances must be positive and finite ({name})"
            object.__setattr__(self, name, real(what, getattr(self, name), lo=0.0))
        # the budget counts down to exactly 0: a fraction, NaN or inf never gets there
        n = self.max_subdivisions
        if not isinstance(n, int) or isinstance(n, bool):
            raise DomainError(f"max_subdivisions must be an integer, got {n!r}")
        if n < 1:
            raise DomainError("max_subdivisions must be at least 1")


#: The options of every call that passes none; immutable, so one object serves all.
_DEFAULT_OPTIONS = QuadratureOptions()


def options(opts: QuadratureOptions | None) -> QuadratureOptions:
    """``opts``, or the default options for None; anything else raises DomainError."""
    if opts is None:
        return _DEFAULT_OPTIONS
    if not isinstance(opts, QuadratureOptions):
        raise DomainError(f"opts must be a QuadratureOptions or None, got {opts!r}")
    return opts


class QuadratureResult(Frozen):
    """Integral value with an error estimate and diagnostics.

    ``truncation_used`` is the right edge of the last window for unbounded
    domains and 0.0 for finite ones.  ``error_estimate`` includes the
    truncation tail.  ``converged`` is True iff ``error_estimate <=
    max(abs_tol, rel_tol * |value|)`` and, on the half-line, the window
    sweep ran to its end instead of stopping on the budget or on roundoff.
    ``l1_norm`` is the integral of |f| as the final partition's rules
    estimate it, so ``l1_norm / |value|`` is the condition number of the
    integral.
    ``roundoff_limited`` is True iff the run stopped because the rounding
    floor of its settled segments (those whose error sits at their floor)
    alone exceeded the tolerance: the result is then not converged, and no
    budget would have made it so.  ``rounding_floor``, the floor of all
    segments, is then above the tolerance too.  ``subdivisions`` counts the
    bisections made, at most ``max_subdivisions``.
    """

    value: complex
    error_estimate: float
    evaluations: int
    truncation_used: float
    converged: bool
    l1_norm: float = 0.0
    roundoff_limited: bool = False
    subdivisions: int = 0

    @property
    def rounding_floor(self) -> float:
        """Lower bound of ``error_estimate``: a few ulps of ``l1_norm``."""
        return _FLOOR * self.l1_norm


def _first_window(peak: float) -> tuple[float, ...]:
    """The first window's edges: [0, 8] for a peak below 4, else eight rules to peak + 8."""
    # Fixed edges below 4 keep the line's nodes where they are whatever a is,
    # so kernel_weight's node table serves every run.  The second formula at
    # every peak, with edges below 0.5 dropped, took 234 900 evaluations on
    # catalog seeds 1-2 against 243 360, but on seed 1 the table missed
    # 66 829 times a round against 1 140, and warm rounds ran slower.
    if peak < 4.0:
        return (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    return (0.0, 0.5 * peak, peak - 1, peak, peak + 0.5, peak + 1, peak + 2, peak + 4, peak + 8)


def _target(opts: QuadratureOptions, value: complex) -> float:
    """The stop target ``max(abs_tol, rel_tol * |value|)``; inf past double range."""
    return max(opts.abs_tol, opts.rel_tol * modulus(value))


def _eval(f: Integrand, x: float) -> complex:
    """``f(x)`` as a finite complex; else IntegrandError at ``x``."""
    try:
        return complex_("f(x) must be a finite number", f(x))
    except (QuadcheckError, *FAILURES) as exc:
        raise IntegrandError(x, str(exc)) from exc


def _name_bad_node(f: Integrand, c: float, h: float) -> None:
    """Re-walk a rule's nodes in evaluation order; raise IntegrandError at the first bad one."""
    _eval(f, c)
    for x in _XGK[:7]:
        _eval(f, c - h * x)
        _eval(f, c + h * x)


def _gk15(f: Integrand, lo: float, hi: float) -> tuple[complex, float, float]:
    """One Gauss-Kronrod 7/15 application on [lo, hi].

    Returns (Kronrod value, error estimate, integral of |f|).  The estimate
    follows the QUADPACK recipe: the raw Gauss/Kronrod discrepancy is damped
    through the variation integral resasc, and floored at a small multiple
    of ulp(integral of |f|) to stay honest once discretization error is
    gone.  Finiteness is checked once, on the |f| sum: only when it fails,
    or the integrand or a sum raises, are the nodes walked again, through
    ``_eval``, to name the bad one; where none is bad on that walk, ``f``
    is impure and the IntegrandError names the rule's centre.  Where every
    value is finite and only a sum or a modulus overflowed, the rule returns
    ``(nan, inf, inf)``, and the run ends unconverged, as one whose exact
    sums leave double range does.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    d0, d1, d2, d3, d4, d5, d6 = h * x0, h * x1, h * x2, h * x3, h * x4, h * x5, h * x6
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    try:
        # in the order _name_bad_node walks: the centre, then the pairs outwards
        fc = f(c)
        l0 = f(c - d0)
        r0 = f(c + d0)
        l1 = f(c - d1)
        r1 = f(c + d1)
        l2 = f(c - d2)
        r2 = f(c + d2)
        l3 = f(c - d3)
        r3 = f(c + d3)
        l4 = f(c - d4)
        r4 = f(c + d4)
        l5 = f(c - d5)
        r5 = f(c + d5)
        l6 = f(c - d6)
        r6 = f(c + d6)
        # The sums are written out, centre term first, then the node pairs
        # outwards; they raise only for values that are not numbers.
        s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
        resk = (
            w7 * fc + w0 * (l0 + r0) + w1 * s1 + w2 * (l2 + r2) + w3 * s3
            + w4 * (l4 + r4) + w5 * s5 + w6 * (l6 + r6)
        )
        resg = g3 * fc + g0 * s1 + g1 * s3 + g2 * s5
    except (QuadcheckError, *FAILURES) as exc:
        _name_bad_node(f, c, h)
        raise IntegrandError(c, str(exc)) from exc  # an impure f: no node fails again
    try:
        resabs = (
            w7 * abs(fc) + w0 * (abs(l0) + abs(r0)) + w1 * (abs(l1) + abs(r1))
            + w2 * (abs(l2) + abs(r2)) + w3 * (abs(l3) + abs(r3))
            + w4 * (abs(l4) + abs(r4)) + w5 * (abs(l5) + abs(r5))
            + w6 * (abs(l6) + abs(r6))
        )
        mean = 0.5 * resk
        resasc = (
            w7 * abs(fc - mean) + w0 * (abs(l0 - mean) + abs(r0 - mean))
            + w1 * (abs(l1 - mean) + abs(r1 - mean)) + w2 * (abs(l2 - mean) + abs(r2 - mean))
            + w3 * (abs(l3 - mean) + abs(r3 - mean)) + w4 * (abs(l4 - mean) + abs(r4 - mean))
            + w5 * (abs(l5 - mean) + abs(r5 - mean)) + w6 * (abs(l6 - mean) + abs(r6 - mean))
        )
        err = abs(resk - resg) * h
    except OverflowError:  # the modulus of a finite complex value is beyond double range
        resabs = math.inf
    if not math.isfinite(resabs):
        values = (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6)
        if not all(map(cmath.isfinite, values)):
            _name_bad_node(f, c, h)
            # an impure f: a value was not finite, and no node fails again
            raise IntegrandError(c, "f(x) was not a finite number at one of the rule's nodes")
        # only a weighted sum or a modulus overflowed: no value, and the run ends unconverged
        return complex(math.nan, math.nan), math.inf, math.inf
    resasc *= h
    resabs *= h
    if resasc != 0.0:
        # the power is taken only below 1: above it, it can overflow
        ratio = 200.0 * err / resasc
        err = resasc * ratio**1.5 if ratio < 1.0 else resasc
    err = max(err, _FLOOR * resabs)
    return resk * h, err, resabs


def _totals(segments: list) -> tuple[complex, float]:
    """Exact value and error sums over the segments.

    ``math.fsum`` is correctly rounded, so the sums do not depend on the
    order of the segments.  It raises where a sum leaves double range, or
    meets inf - inf; the value is then nan and the error infinite, so the
    run ends unconverged.
    """
    fsum = math.fsum
    try:
        value = complex(fsum([s[3].real for s in segments]), fsum([s[3].imag for s in segments]))
        return value, -fsum([s[0] for s in segments])
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan), math.inf


def _contribution(segments: list, left: float) -> float:
    """|Exact value sum| over the segments that start at ``left`` or later;
    nan where the sum leaves double range, inf where only its modulus does."""
    return modulus(_totals([s for s in segments if s[1] >= left])[0])


def _l1_sum(segments: list) -> float:
    """Exact sum of the segments' |f| integrals; inf past double range."""
    try:
        return math.fsum([s[4] for s in segments])
    except OverflowError:
        return math.inf


def _partition(
    f: Integrand, edges: tuple[float, ...], opts: QuadratureOptions, windowed: bool
) -> QuadratureResult:
    """Worst-first bisection of one partition under one global tolerance.

    The segments live in a heap keyed by (-error, left edge), so the worst
    segment is bisected first and ties break the same way on every run.
    A running total gates the stop test and is re-summed exactly whenever
    it falls ``_RESUM_DROP``-fold below the last exact sum; every stop
    decision is taken on the exact value and error.  The partition opens
    with one rule between each pair of neighbouring ``edges``.  With
    ``windowed``, they span the first window, the partition is refined to
    (1 - _TAIL_FRACTION) of the tolerance, and each time it gets there one
    more geometric window, up to _TAIL_REACH past the first, is appended,
    until the newest window contributes at most ``_TAIL_FRACTION`` of the
    tolerance; that contribution is added to the error as the truncation tail.

    A segment whose error sits at its rounding floor is settled: its rule
    resolves f, so its |f| integral stays put under further bisection.
    The settled segments' floors are therefore a lower bound of the error
    of every refinement.  When an exact sum misses the target and that
    bound alone exceeds it, no bisection can help, and the run stops as
    roundoff limited.  The bound is kept as a running sum and never
    re-summed: it only adds and drops non-negative floors, so its rounding
    moves it by ulps.  Unsettled segments do not count: a coarse rule's
    |f| integral can be off by more than the margin a run near the limit
    has to spare.
    """
    segments: list[tuple[float, float, float, complex, float, float]] = []
    push, gk15, floor = heapq.heappush, _gk15, _FLOOR

    def rule(a: float, b: float) -> tuple[complex, float, float]:
        v, e, l1 = gk15(f, a, b)
        settled = l1 if e <= floor * l1 else 0.0
        push(segments, (-e, a, b, v, l1, settled))
        return v, e, settled

    lo, hi, cap = edges[0], edges[-1], edges[-1] + _TAIL_REACH
    value = error = settled_l1 = 0.0
    for a, b in zip(edges, edges[1:]):
        v, e, settled = rule(a, b)
        value += v
        error += e
        settled_l1 += settled
    exact_error = error  # the error total at the last exact summation
    budget = opts.max_subdivisions
    fraction = 1.0 - _TAIL_FRACTION if windowed else 1.0
    window = lo  # left edge of the newest window
    contributions: list[float] = []
    finished = not windowed
    roundoff_limited = False
    while True:
        summed = False  # value and error are the exact sums of the segments as they stand
        running_target = fraction * _target(opts, value)
        if (
            error <= running_target
            or error <= exact_error / _RESUM_DROP
            or floor * settled_l1 > running_target
        ):
            value, error = _totals(segments)
            summed = True
            target = _target(opts, value)
            if not math.isfinite(error) or target == math.inf:
                break  # a sum or |value| left double range: no bisection brings it back
            exact_error = error
            if error <= fraction * target:
                if not windowed:
                    break
                # the first window feeds the divergence test, never the tail stop;
                # it spans every segment, so its contribution is |value|, just summed
                contributions.append(
                    modulus(value) if window == lo else _contribution(segments, window)
                )
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
                if hi >= cap:
                    finished = True
                    break
                window, hi = hi, min(hi * _WINDOW_GROWTH, cap)
                v, e, settled = rule(window, hi)
                value += v
                error += e
                settled_l1 += settled
                continue
            if floor * settled_l1 > fraction * target:
                roundoff_limited = True
                break
        if budget == 0:
            break
        neg_e, a, b, v, _, settled = segments[0]
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # the worst segment is at floating-point resolution
            break
        heapq.heappop(segments)
        v1, e1, settled1 = rule(a, m)
        v2, e2, settled2 = rule(m, b)
        budget -= 1
        value += v1 + v2 - v
        error += e1 + e2 + neg_e
        settled_l1 += settled1 + settled2 - settled

    if not summed:
        value, error = _totals(segments)
    if windowed and window > lo:
        # a finished sweep stopped on the newest window's contribution, just taken
        error += contributions[-1] if finished else _contribution(segments, window)
    # an infinite error or target, from a sum or |value| beyond double range,
    # never converges
    converged = finished and not roundoff_limited and error <= _target(opts, value) < math.inf
    subdivisions = opts.max_subdivisions - budget
    # one rule per segment, and each bisection replaced one rule by two
    return QuadratureResult(
        value,
        error,
        15 * (len(segments) + subdivisions),
        hi if windowed else 0.0,
        converged,
        _l1_sum(segments),
        roundoff_limited,
        subdivisions,
    )


def integrate_finite(
    f: Integrand, lo: float, hi: float, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the finite interval [lo, hi].

    The first rule's 15 nodes are all the integrator sees of ``f`` before it
    decides where to bisect, so a feature narrower than their spacing can
    be missed: a Gaussian bump at 0.77 of width 5e-4 on [0, 1] comes back
    as 0 with ``converged=True`` after 15 evaluations.  No sampling rule
    is immune to this (Lyness, SIAM Review 25, 1983).
    """
    what = "integrate_finite requires real endpoints, finite endpoints and lo < hi"
    lo = real(what, lo)
    hi = real(what, hi, lo=lo)
    return _partition(f, (lo, hi), options(opts), windowed=False)


def integrate_half_line(
    f: Integrand, opts: QuadratureOptions | None = None, peak: float = 0.0
) -> QuadratureResult:
    """Integrate ``f`` over [0, infinity) by geometric window growth.

    The integrator assumes that ``f`` decays like ``exp(-x)`` or faster from
    its first window on: [0, 8], opened as five rules on the edges 0, 0.5,
    1, 2, 4 and 8, or, where the caller's ``peak`` of f is 4 or more, eight
    rules on 0, peak/2, peak - 1, peak, peak + 0.5, peak + 1, peak + 2,
    peak + 4 and peak + 8, as QUADPACK's ``qagp`` takes break points.  A
    ``peak`` that is not a finite real >= 0 raises DomainError.  A window
    is trusted once its rules meet the tolerance, and the sweep stops once
    the newest window contributes next to nothing.  A narrow feature that
    the rules of a window step over, or one beyond the stopping window, is
    lost without warning, and one that rises late is refused; see
    ``integrate_real_line`` for examples.  With ``peak=13`` the bump at 13
    there comes back right.
    """
    what = "peak must be a finite real >= 0"
    if (peak := real(what, peak)) < 0.0:
        raise DomainError(f"{what}, got {peak!r}")
    return _partition(f, _first_window(peak), options(opts), windowed=True)


def integrate_real_line(
    f: Integrand, opts: QuadratureOptions | None = None
) -> QuadratureResult:
    """Integrate ``f`` over the whole real line, folded onto [0, infinity).

    The half-line windows integrate ``f(x) + f(-x)``; ``evaluations``
    counts calls of ``f``, two per folded node.  The fold calls ``f``
    directly, and the rule checks the folded values once, as for any
    integrand.  When that check fails, ``f`` is evaluated again at the
    folded node ``x`` and then at ``-x``, so the IntegrandError names the
    side that failed: ``lambda x: math.nan if x < -3 else math.exp(-abs(x))``
    fails at x = -3.99..., the first node past -3 that the rules evaluate.
    The precondition of ``integrate_half_line`` applies to the folded
    integrand: ``f`` must decay like ``exp(-|x|)`` from the first window
    on.  For instance
    ``integrate_real_line(lambda x: math.exp(-((x - 14) / 0.2) ** 2))``
    returns about 3.1e-46 with ``converged=True`` after 180 evaluations,
    where the true value is 0.354: the sweep stops once the window [8, 12]
    contributes nothing, and never looks past 12.  A bump at 5.3 of width
    0.02 returns 1.1e-14 for 0.0354: the nearest nodes of the rule on
    [4, 8] sit at 5.19 and 5.58.  The same bump at 13 raises
    DivergenceError instead, since the contributions of the windows
    [0, 8], [8, 12] and [12, 18] grow along its rising flank.
    """

    def folded(x: float) -> complex:
        return f(x) + f(-x)

    try:
        result = integrate_half_line(folded, opts)
    except IntegrandError as exc:
        _eval(f, exc.abscissa)
        _eval(f, -exc.abscissa)
        raise  # each side alone is fine: only their sum failed
    return replace(result, evaluations=2 * result.evaluations)
