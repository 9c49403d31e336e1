"""Adaptive quadrature: examples, invariants, error honesty, determinism."""

import cmath
import math
import random

import pytest

from quadcheck import (
    DivergenceError,
    DomainError,
    IntegrandError,
    QuadratureOptions,
    QuadratureResult,
    integrate_finite,
    integrate_half_line,
    integrate_real_line,
)


def test_constant_on_unit_interval():
    r = integrate_finite(lambda x: 1.0, 0.0, 1.0)
    assert abs(r.value - 1.0) < 1e-14
    assert r.converged
    assert r.truncation_used == 0.0


def test_sin_over_half_period():
    r = integrate_finite(math.sin, 0.0, math.pi)
    assert abs(r.value - 2.0) < 1e-13
    assert r.value.imag == 0.0


def test_complex_exponential():
    r = integrate_finite(lambda x: cmath.exp(1j * x), 0.0, 1.0)
    expected = complex(math.sin(1.0), 1.0 - math.cos(1.0))
    assert abs(r.value - expected) < 1e-14


def test_finite_rejects_bad_interval():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite(lambda x: 1.0, 2.0, 1.0)


@pytest.mark.parametrize("hi", [10**400, "sNaN", "NaN"])
def test_finite_rejects_endpoints_beyond_double_range(hi):
    from decimal import Decimal

    hi = Decimal(hi) if isinstance(hi, str) else hi
    with pytest.raises(DomainError, match="finite endpoints"):
        integrate_finite(lambda x: 1.0, 0.0, hi)


@pytest.mark.parametrize("lo, hi", [("0", 1.0), (0.0, "1"), (1j, 2.0), (0.0, 1 + 0j), (None, 1.0)])
def test_finite_rejects_endpoints_that_are_not_real(lo, hi):
    with pytest.raises(DomainError, match="real endpoints"):
        integrate_finite(lambda x: 1.0, lo, hi)


def test_finite_takes_real_endpoints_of_any_type():
    from decimal import Decimal
    from fractions import Fraction

    expected = integrate_finite(math.sin, 0.0, 2.0)
    for lo, hi in ((0, 2), (Decimal(0), Decimal(2)), (Fraction(0), Fraction(2))):
        assert integrate_finite(math.sin, lo, hi) == expected


def test_options_take_real_tolerances_of_any_type():
    from decimal import Decimal
    from fractions import Fraction

    opts = QuadratureOptions(abs_tol=Decimal("1e-12"), rel_tol=Fraction(1, 10**10))
    assert opts == QuadratureOptions()
    assert integrate_half_line(lambda x: math.exp(-x), opts) == integrate_half_line(
        lambda x: math.exp(-x)
    )


def test_half_line_exponential():
    r = integrate_half_line(lambda x: math.exp(-x))
    assert abs(r.value - 1.0) < 1e-11
    assert r.converged
    assert r.truncation_used >= 8.0


def test_half_line_gaussian():
    r = integrate_half_line(lambda x: math.exp(-x * x))
    assert abs(r.value - math.sqrt(math.pi) / 2) < 1e-12


def test_real_line_gaussian():
    r = integrate_real_line(lambda x: math.exp(-x * x))
    assert abs(r.value - math.sqrt(math.pi)) < 1e-12


def test_real_line_sech():
    r = integrate_real_line(lambda x: 1.0 / math.cosh(x))
    assert abs(r.value - math.pi) < 1e-11


def test_real_line_sech_scaled():
    r = integrate_real_line(lambda x: 1.0 / math.cosh(math.pi * x))
    assert abs(r.value - 1.0) < 1e-11


def test_real_line_asymmetric_gaussian_counts_calls_of_f():
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(-(x - 1.0) ** 2)

    r = integrate_real_line(f)
    assert r.converged
    assert abs(r.value - math.sqrt(math.pi)) <= max(r.error_estimate, 1e-13)
    assert r.evaluations == len(calls)
    assert any(x < 0 for x in calls)


def test_integrand_purity_is_observable():
    f = lambda x: math.exp(-x * x) * complex(math.cos(x), math.sin(x))
    assert f(0.37) == f(0.37)


def test_nonfinite_integrand_reports_abscissa():
    def f(x):
        return 1.0 / (x - 0.5) if x != 0.5 else math.nan

    with pytest.raises(IntegrandError) as err:
        integrate_finite(f, 0.0, 1.0, QuadratureOptions(max_subdivisions=50))
    assert 0.0 <= err.value.abscissa <= 1.0


def test_overflowing_integrand_reports_abscissa():
    def f(x):
        return math.exp(x * x)

    with pytest.raises(IntegrandError):
        integrate_finite(f, 0.0, 40.0)


def test_real_line_integrand_whose_folded_sum_overflows_fails_at_its_node():
    # f(x) and f(-x) are finite, and only their sum, the folded value, is
    # not: the error names the first node the rules evaluate, the centre of
    # the first window [0, 0.5]
    with pytest.raises(IntegrandError) as err:
        integrate_real_line(lambda x: 1e308)
    assert err.value.abscissa == 0.25


def _reference_gk15(f, lo, hi):
    # reference rule: every value is made complex and checked for
    # finiteness by _eval before it enters the sums
    from quadcheck.quadrature import _WG, _WGK, _XGK, _eval

    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = _eval(f, c)
    resk, resg, resabs = _WGK[7] * fc, _WG[3] * fc, _WGK[7] * abs(fc)
    for j in range(7):
        f1, f2 = _eval(f, c - h * _XGK[j]), _eval(f, c + h * _XGK[j])
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * h, resabs * h


@pytest.mark.parametrize("f", [
    math.sin,
    lambda x: 1e6 * math.cos(300.0 * x) - 3.0,
    lambda x: cmath.exp(1j * x) / (1.0 + x * x),
    lambda x: 7,
])
def test_rule_sums_match_the_per_node_checked_reference(f):
    from quadcheck.quadrature import _gk15

    for lo, hi in ((0.0, 1.0), (-3.5, 0.25), (1e-3, 2e-3)):
        value, _, l1 = _gk15(f, lo, hi)
        ref_value, ref_l1 = _reference_gk15(f, lo, hi)
        assert complex(value) == ref_value and l1 == ref_l1


def test_integrand_error_names_the_first_bad_node_in_rule_order():
    # the rule evaluates the centre, then c -/+ h x_j from the outermost
    # node in; the first node past 0.9 is c + h x_0
    def f(x):
        return math.nan if x > 0.9 else 1.0

    with pytest.raises(IntegrandError) as err:
        integrate_finite(f, 0.0, 1.0)
    assert err.value.abscissa == 0.5 + 0.5 * 0.991455371120812639206854697526329


def test_integrand_error_names_a_bad_node_of_the_innermost_pair():
    # the only bad nodes are c -/+ h x_6, the pair next to the centre: the
    # walk reaches them last, and names c - h x_6, not the centre
    def f(x):
        return math.nan if 0.1 < abs(x - 0.5) < 0.11 else 1.0

    with pytest.raises(IntegrandError) as err:
        integrate_finite(f, 0.0, 1.0)
    assert err.value.abscissa == 0.5 - 0.5 * 0.2077849550078985


def _flaky(third_call):
    # exp(-x), except on its third call: the rule's first pass sees the bad
    # value, and the walk that re-evaluates the nodes to name it does not
    calls = []

    def f(x):
        calls.append(x)
        return third_call() if len(calls) == 3 else math.exp(-x)

    return f


def _raise_value_error():
    raise ValueError("flaky")


@pytest.mark.parametrize("third_call", [_raise_value_error, lambda: math.nan])
def test_impure_integrand_ends_in_integrand_error_at_the_rule_centre(third_call):
    with pytest.raises(IntegrandError) as err:
        integrate_finite(_flaky(third_call), 0.0, 1.0)
    assert err.value.abscissa == 0.5


def _ends_beyond_double_range(r, evaluations):
    # the one outcome at the edge of double range: no value, an infinite
    # estimate and no convergence, after the rule's own calls of f
    assert cmath.isnan(r.value) and r.error_estimate == math.inf
    assert not r.converged and r.evaluations == evaluations


def test_overflowing_sum_of_finite_values_is_not_an_integrand_error():
    # every value is finite and only the rule's weighted sums overflow: the
    # run ends unconverged with an infinite estimate, not in an IntegrandError
    r = integrate_finite(lambda x: 1.5e308, 0.0, 1e-300, QuadratureOptions(max_subdivisions=1))
    _ends_beyond_double_range(r, 15)
    r = integrate_finite(lambda x: 1.2e308, 0.0, 1.4)
    _ends_beyond_double_range(r, 15)


def test_complex_value_whose_modulus_overflows_is_not_an_integrand_error():
    # both parts are finite, only abs() of the value overflows: the run ends
    # as for an overflowing sum, not in an IntegrandError or a bare OverflowError
    r = integrate_finite(lambda x: complex(1.5e308, 1.5e308), 0.0, 1e-300)
    _ends_beyond_double_range(r, 15)
    r = integrate_finite(lambda x: complex(1.7e308, 1.7e308), 0.0, 1.0)
    _ends_beyond_double_range(r, 15)


def test_rule_that_overflows_does_not_call_the_integrand_again():
    calls = []

    def f(x):
        calls.append(x)
        return 1.2e308

    assert integrate_finite(f, 0.0, 1.4).evaluations == len(calls) == 15


def test_integral_of_finite_values_beyond_double_range_is_not_converged():
    r = integrate_finite(lambda x: 1.7e308, -1.0, 1.0)
    assert not math.isfinite(r.error_estimate)
    assert not r.converged


@pytest.mark.parametrize("integrate, f", [
    (integrate_half_line, lambda x: 1.5e308 * (1 + 1j) * math.exp(-x)),
    (integrate_real_line, lambda x: 0.8e308 * (1 + 1j) * math.exp(-abs(x))),
])
def test_integral_whose_modulus_overflows_ends_unconverged(integrate, f):
    # both parts of every value are finite, and |f| next to 0 is beyond
    # double range: the first window's five rules end the run unconverged,
    # with two calls of f per folded node on the real line
    calls = 2 if integrate is integrate_real_line else 1
    _ends_beyond_double_range(integrate(f), 75 * calls)


def test_integral_whose_modulus_alone_overflows_stops_at_the_first_exact_sum():
    # every rule is in range, and so are both parts of the value, 1.44e308
    # each; only |value| is beyond double range, so the tolerance rel_tol
    # |value| would be infinite, and the run stops unconverged at once
    r = integrate_half_line(lambda x: 0.6e308 * (1 + 1j) * math.exp(-x / 2.5))
    assert cmath.isfinite(r.value) and math.isfinite(r.error_estimate)
    assert not r.converged and r.evaluations == 75


def test_distance_from_the_mean_whose_modulus_overflows_ends_unconverged():
    # every value and the |f| sum are finite; only |f - mean| at the nodes
    # next to 0 overflows, and the run ends as for an overflowing sum
    def f(x):
        if x == 0.5:
            return -1.2e308 * (1 + 1j)
        return 1.2e308 * (1 + 1j) if x < 0.01 else 0j

    _ends_beyond_double_range(integrate_finite(f, 0.0, 1.0), 15)


@pytest.mark.parametrize("scale, converged", [(3.5, True), (3.8, True), (4.0, False)])
def test_window_sweep_stops_at_the_last_window_ending_at_120(scale, converged):
    # the sweep ends on the window [91.125, 120], where exp(-x/3.5)
    # contributes 1.7e-11, below a quarter of its tolerance 3.5e-10, so the
    # tail test stops it; exp(-x/3.8) contributes 1.5e-10, more than a
    # quarter of 3.8e-10, so only the cap at 120 stops it, and the run
    # converges with that tail charged to the error; exp(-x/4) contributes
    # 5.1e-10, more than its tolerance 4e-10
    r = integrate_half_line(lambda x: math.exp(-x / scale))
    assert r.converged is converged
    assert r.truncation_used == 120.0 and r.evaluations == 180
    assert abs(r.value - scale) < 1e-11


def test_divergence_detection_constant():
    with pytest.raises(DivergenceError):
        integrate_half_line(lambda x: 1.0)


def test_divergence_detection_slow_growth():
    with pytest.raises(DivergenceError):
        integrate_half_line(lambda x: math.exp(0.05 * x))


def test_divergence_detection_real_line():
    with pytest.raises(DivergenceError):
        integrate_real_line(lambda x: 1.0 / (1.0 + abs(x)))


def test_budget_exhaustion_sets_converged_false():
    opts = QuadratureOptions(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
    r = integrate_finite(lambda x: math.cos(40.0 * x * x), 0.0, 6.0, opts)
    assert not r.converged
    assert r.error_estimate > 0
    assert r.evaluations == 15 + 3 * 30  # one rule, then two per bisection


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_options_reject_non_finite_tolerances(field, value):
    # with abs_tol = inf, exp(-x) on the half-line "converged" to 0.9999939
    with pytest.raises(DomainError, match="finite"):
        QuadratureOptions(**{field: value})


def test_linearity():
    rng = random.Random(21)

    def make_smooth(seed):
        r = random.Random(seed)
        c = [complex(r.uniform(-1, 1), r.uniform(-1, 1)) for _ in range(4)]

        def f(x):
            return c[0] + c[1] * x + c[2] * math.sin(x) + c[3] * math.exp(-x * x)

        return f

    for trial in range(20):
        f = make_smooth(1000 + trial)
        g = make_smooth(2000 + trial)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        combo = lambda x: alpha * f(x) + beta * g(x)
        rf = integrate_finite(f, -1.0, 2.0)
        rg = integrate_finite(g, -1.0, 2.0)
        rc = integrate_finite(combo, -1.0, 2.0)
        allowed = (
            abs(alpha) * rf.error_estimate
            + abs(beta) * rg.error_estimate
            + rc.error_estimate
            + 1e-13
        )
        assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= allowed


def test_conjugate_even_integrand_has_real_integral():
    # f(-x) = conj(f(x)) makes the full-line integral real up to quadrature
    def f(x):
        return math.exp(-x * x) * complex(math.cos(x), math.sin(x))

    r = integrate_real_line(f)
    assert abs(r.value.imag) <= r.error_estimate


def test_error_honesty_on_known_integrals():
    pi = math.pi
    suite = [
        (lambda x: 1.0, "finite", (0.0, 1.0), 1.0),
        (lambda x: x * x, "finite", (0.0, 1.0), 1.0 / 3.0),
        (lambda x: math.sin(x), "finite", (0.0, pi), 2.0),
        (lambda x: math.exp(x), "finite", (0.0, 1.0), math.e - 1.0),
        (lambda x: 1.0 / (1.0 + x * x), "finite", (-1.0, 1.0), pi / 2),
        (lambda x: math.cos(10.0 * x), "finite", (0.0, 1.0), math.sin(10.0) / 10.0),
        (lambda x: math.sqrt(abs(x)) * x, "finite", (0.0, 1.0), 0.4),
        (lambda x: cmath.exp(1j * x), "finite", (0.0, 1.0),
         complex(math.sin(1.0), 1.0 - math.cos(1.0))),
        (lambda x: math.log(1.0 + x), "finite", (0.0, 1.0), 2.0 * math.log(2.0) - 1.0),
        (lambda x: math.cosh(x), "finite", (-1.0, 1.0), 2.0 * math.sinh(1.0)),
        (lambda x: math.exp(-x), "half", None, 1.0),
        (lambda x: math.exp(-x * x), "half", None, math.sqrt(pi) / 2),
        (lambda x: x * math.exp(-x), "half", None, 1.0),
        (lambda x: math.exp(-2.0 * x) * math.cos(3.0 * x), "half", None, 2.0 / 13.0),
        (lambda x: x * x * math.exp(-x * x), "half", None, math.sqrt(pi) / 4),
        (lambda x: math.exp(-x * x), "real", None, math.sqrt(pi)),
        (lambda x: 1.0 / math.cosh(x), "real", None, pi),
        (lambda x: 1.0 / math.cosh(pi * x), "real", None, 1.0),
        (lambda x: math.exp(-abs(x)) * math.cos(x), "real", None, 1.0),
        (lambda x: x * x / math.cosh(x), "real", None, pi**3 / 4.0),
    ]
    assert len(suite) == 20
    honest = 0
    for f, kind, bounds, truth in suite:
        if kind == "finite":
            r = integrate_finite(f, bounds[0], bounds[1])
        elif kind == "half":
            r = integrate_half_line(f)
        else:
            r = integrate_real_line(f)
        if abs(r.value - truth) <= 10.0 * r.error_estimate:
            honest += 1
    assert honest >= 19


def test_determinism_bit_identical():
    def f(x):
        return math.exp(-x * x) * math.cos(3.0 * x)

    r1 = integrate_real_line(f)
    r2 = integrate_real_line(f)
    assert r1 == r2  # dataclass equality: value, error, counts all identical
    f2 = lambda x: cmath.exp(1j * x) / (1.0 + x * x)
    a = integrate_finite(f2, 0.0, 5.0)
    b = integrate_finite(f2, 0.0, 5.0)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_converged_flag_respects_reported_tolerance():
    opts = QuadratureOptions()
    r = integrate_half_line(lambda x: math.exp(-x), opts)
    assert r.converged
    assert r.error_estimate <= max(opts.abs_tol, opts.rel_tol * abs(r.value))
    for opts in (
        QuadratureOptions(),
        QuadratureOptions(abs_tol=1e-6, rel_tol=1e-4),
        QuadratureOptions(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=40),
    ):
        for r in (
            integrate_finite(lambda x: math.cos(300.0 * x), 0.0, 1.0, opts),
            integrate_finite(lambda x: math.sqrt(x), 0.0, 1.0, opts),
            integrate_half_line(lambda x: math.exp(-x) * math.cos(5.0 * x), opts),
            integrate_half_line(lambda x: 1e6 * math.exp(-x * x), opts),
            integrate_real_line(lambda x: 1.0 / math.cosh(x), opts),
            integrate_real_line(lambda x: cmath.exp(-x * x + 2j * x), opts),
        ):
            if r.converged:
                assert r.error_estimate <= max(opts.abs_tol, opts.rel_tol * abs(r.value))


def test_result_is_a_value_object():
    r = QuadratureResult(1 + 0j, 1e-12, 15, 0.0, True)
    assert r.value == 1 + 0j
    with pytest.raises(AttributeError):
        r.value = 2.0


def test_oscillatory_finite_integral_evaluation_count():
    # one partition under one tolerance costs at most what a separate
    # bisection per window did (2805 evaluations)
    r = integrate_finite(lambda x: math.cos(300.0 * x), 0.0, 1.0)
    assert r.converged
    assert abs(r.value - math.sin(300.0) / 300.0) <= r.error_estimate
    assert r.evaluations <= 2805


def test_half_line_converges_at_every_tolerance():
    # refinement stops short of the tolerance, so the truncation tail
    # always fits in what is left
    def f(x):
        return math.exp(-x) * math.cos(5.0 * x)

    for i in range(60):
        opts = QuadratureOptions(abs_tol=10.0 ** (-3.0 - i / 6.0), rel_tol=1e-15)
        r = integrate_half_line(f, opts)
        assert r.converged, opts.abs_tol
        assert abs(r.value - 1.0 / 26.0) <= r.error_estimate + 1e-15


def test_truncation_tail_is_charged_to_the_error():
    def f(x):
        return 1.0 / math.cosh(x)

    r = integrate_half_line(f)
    last = integrate_finite(f, r.truncation_used / 1.5, r.truncation_used)
    assert r.error_estimate >= abs(last.value)


_BUMPS = [
    (centre, width) for centre in (0.3, 0.77, 1.5, 3.0, 5.3, 7.0) for width in (0.05, 0.1, 0.2)
] + [(centre, 0.02) for centre in (0.77, 1.5, 3.0)]


@pytest.mark.parametrize("centre,width", _BUMPS)
def test_bumps_in_the_first_windows_are_found_or_not_claimed(centre, width):
    # a single rule on [0, 8] stepped over four of these and claimed
    # convergence; bumps past x = 12, and the one at 5.3 of width 0.02,
    # are still lost (see integrate_real_line)
    r = integrate_half_line(lambda x: math.exp(-(((x - centre) / width) ** 2)))
    exact = 0.5 * width * math.sqrt(math.pi) * (1.0 + math.erf(centre / width))
    assert not r.converged or abs(r.value - exact) <= r.error_estimate


def test_the_first_window_never_feeds_the_tail_stop():
    # [0, 8] holds next to nothing of a bump at 10; were its contribution
    # read as the newest window's, the sweep would stop there, converged
    # on 1.1e-21 after 75 evaluations
    r = integrate_half_line(lambda x: math.exp(-(((x - 10.0) / 0.3) ** 2)))
    assert r.converged and abs(r.value - 0.3 * math.sqrt(math.pi)) <= r.error_estimate
    assert r.evaluations == 315 and r.truncation_used == 18.0


def test_a_named_peak_opens_the_first_window_around_it():
    def bump(x):
        return math.exp(-(((x - 13.0) / 0.2) ** 2))

    with pytest.raises(DivergenceError):
        integrate_half_line(bump)
    # the first window is [0, 21], opened at 6.5, 12, 13, 13.5, 14, 15 and 17
    r = integrate_half_line(bump, peak=13.0)
    assert r.converged and abs(r.value - 0.2 * math.sqrt(math.pi)) <= r.error_estimate
    assert r.evaluations == 285 and r.truncation_used == 31.5


def test_a_peak_below_4_keeps_the_window_0_to_8_bit_for_bit():
    def f(x):
        return math.exp(-x) * math.cos(5.0 * x)

    assert integrate_half_line(f, peak=3.99) == integrate_half_line(f)


def test_the_sweep_ends_112_past_the_first_window():
    # peak 50: the first window ends at 58, the cap at 170
    r = integrate_half_line(lambda x: math.exp(-abs(x - 50.0) / 3.5), peak=50.0)
    exact = 3.5 * (2.0 - math.exp(-50.0 / 3.5))
    assert r.converged and abs(r.value - exact) <= r.error_estimate
    assert r.truncation_used == 170.0 and r.evaluations == 255


def test_a_peak_of_any_real_type_opens_the_same_window():
    from decimal import Decimal
    from fractions import Fraction

    def bump(x):
        return math.exp(-(((x - 13.0) / 0.2) ** 2))

    expected = integrate_half_line(bump, peak=13.0)
    for peak in (13, Decimal(13), Fraction(13)):
        assert integrate_half_line(bump, peak=peak) == expected


@pytest.mark.parametrize("peak", [-1.0, -1e-300, math.nan, math.inf, 1j, "13", None])
def test_a_peak_that_is_not_a_finite_real_at_least_0_is_refused(peak):
    with pytest.raises(DomainError, match="^peak must be a finite real >= 0, got "):
        integrate_half_line(math.exp, peak=peak)


def test_budget_stop_before_the_last_window_is_not_converged():
    # five bisections meet the tolerance on the first window, but the
    # windows beyond it were never looked at
    def f(x):
        return math.exp(-x) * math.cos(5.0 * x)

    opts = QuadratureOptions(max_subdivisions=5)
    r = integrate_half_line(f, opts)
    assert r.error_estimate <= max(opts.abs_tol, opts.rel_tol * abs(r.value))
    assert r.truncation_used == 8.0
    assert r.truncation_used < integrate_half_line(f).truncation_used
    assert not r.converged


def test_large_cancelling_integrand_stops_on_its_rounding_floor():
    # 2 eps * integral of |f| = 1.8e-9 is far above abs_tol = 1e-12: no
    # partition can meet the tolerance, so the run stops instead of
    # spending 60015 evaluations
    r = integrate_finite(lambda x: 1e6 * math.sin(x), 0.0, 2.0 * math.pi)
    assert r.roundoff_limited
    assert not r.converged
    assert r.l1_norm == pytest.approx(4e6, rel=0.05)
    assert r.error_estimate >= r.rounding_floor > 1e-12
    assert abs(r.value) <= r.error_estimate
    assert r.evaluations < 100


def test_rounding_floor_is_a_lower_bound_of_the_error():
    for f, lo, hi in (
        (math.sin, 0.0, math.pi),
        (lambda x: 1e6 * math.sin(x), 0.0, 2.0 * math.pi),
        (lambda x: math.cos(300.0 * x), 0.0, 1.0),
        (lambda x: cmath.exp(1j * x), 0.0, 1.0),
    ):
        r = integrate_finite(f, lo, hi)
        assert 0.0 < r.rounding_floor <= r.error_estimate


def test_converged_runs_report_the_integral_of_abs_f():
    # one rule converges here; its estimate of the integral of |sin| is rough
    r = integrate_finite(math.sin, 0.0, 2.0 * math.pi)
    assert r.converged and not r.roundoff_limited
    assert r.l1_norm == pytest.approx(4.0, rel=0.05)
    r = integrate_finite(math.sin, 0.0, math.pi)
    assert r.l1_norm == pytest.approx(2.0, rel=1e-12)
    r = integrate_half_line(lambda x: math.exp(-x) * math.cos(x))
    assert r.converged and not r.roundoff_limited
    assert r.l1_norm > abs(r.value)


def test_budget_stops_are_not_roundoff_limited():
    opts = QuadratureOptions(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=3)
    r = integrate_finite(lambda x: math.cos(40.0 * x * x), 0.0, 6.0, opts)
    assert r.evaluations == 105
    assert not r.converged and not r.roundoff_limited
    r = integrate_half_line(
        lambda x: math.exp(-x) * math.cos(5.0 * x), QuadratureOptions(max_subdivisions=9)
    )
    assert not r.converged and not r.roundoff_limited


def test_worst_segment_at_floating_point_resolution_stops_the_run():
    # |x - 1|^-0.9 has its integrable singularity at the left edge: the
    # worst segment is halved towards 1 until its midpoint rounds onto an
    # edge.  The guard keeps f finite at x = 1; without it the rule's nodes
    # collapse onto x = 1 there and the run ends in an IntegrandError.
    r = integrate_finite(lambda x: abs(x - 1.0) ** -0.9 if x != 1.0 else 0.0, 1.0, 2.0)
    assert not r.converged and not r.roundoff_limited
    assert r.subdivisions == 52
    assert r.evaluations == 1575 == 15 * (1 + 2 * r.subdivisions)
    assert r.value.real == pytest.approx(9.7361, abs=5e-5)  # the true value is 10
    # an understatement: the true error, 0.264, is 7.2 times this estimate
    assert r.error_estimate == pytest.approx(0.0368, abs=5e-5)


_ONE_PLUS_ULP = 1.0 + 2.0**-52


@pytest.mark.xfail(strict=True, reason="the stop at floating-point resolution fires only "
                   "where the singular point is a power of two: these runs spend their whole "
                   "budget, and their estimates fall 1e6 to 8e6 times below the true error")
@pytest.mark.parametrize("c, lo, hi, exact", [
    # the mirror of the pin above: 9.7435 with an estimate of 3.1e-8
    (1.0, 0.0, 1.0, 10.0),
    # at the left edge, where the singular point is not a power of two:
    # 9.70531 with an estimate of 3.6e-8, and 9.76187 with 3.3e-8
    (3.0, 3.0, 4.0, 10.0),
    (_ONE_PLUS_ULP, _ONE_PLUS_ULP, _ONE_PLUS_ULP + 1.0, 10.0),
    # inside the interval: 18.10068 for 18.51529, with an estimate of 3.3e-7
    (0.3, 0.0, 1.0, 10.0 * (0.3**0.1 + 0.7**0.1)),
], ids=["right-edge-1", "left-edge-3", "left-edge-1+ulp", "interior-0.3"])
def test_singularity_at_the_right_edge_stops_as_its_mirror_does(c, lo, hi, exact):
    # |x - c|^-0.9 with f(c) = 0: today each run makes all 2000 bisections
    # and 60015 evaluations, and ends unconverged with an estimate far below
    # its true error
    r = integrate_finite(lambda x: abs(x - c) ** -0.9 if x != c else 0.0, lo, hi)
    assert not r.converged
    assert r.subdivisions < 2000
    assert r.error_estimate >= abs(exact - r.value) / 10.0


def test_a_worst_segment_whose_midpoint_rounds_up_stops_the_run():
    # the stop above from the other side: the midpoint of the one-ulp
    # segment [1 - 2^-53, 1] rounds up onto 1, so every node of its rule is
    # 1 and the rule sits at its rounding floor.  With a height at 1 that
    # makes this floor twice the error of a step on [1, 2], the segment is
    # the worst while the two errors together miss the tolerance; the run
    # stops on it at once, where bisecting it would give itself back
    from quadcheck.quadrature import _FLOOR, _gk15, _partition

    lo = 1.0 - 2.0**-53
    assert 0.5 * (lo + 1.0) == 1.0

    def step(x):
        return 1.0 if x >= 1.3 else 0.0

    _, step_error, step_l1 = _gk15(step, 1.0, 2.0)
    assert step_error > _FLOOR * step_l1  # unsettled
    height = 2.0 * step_error / (_FLOOR * (1.0 - lo))

    def f(x):
        return height if x == 1.0 else step(x)

    _, error, l1 = _gk15(f, lo, 1.0)
    assert error == _FLOOR * l1 > step_error  # settled, and the worst
    opts = QuadratureOptions(abs_tol=1.25 * error, rel_tol=1e-300)
    r = _partition(f, (lo, 1.0, 2.0), opts, windowed=False)
    assert r.subdivisions == 0 and r.evaluations == 30
    assert not r.converged and not r.roundoff_limited
    assert r.error_estimate == error + step_error


def test_positional_construction_defaults_the_roundoff_diagnostics():
    r = QuadratureResult(1 + 0j, 1e-12, 15, 0.0, True)
    assert r.l1_norm == 0.0 and not r.roundoff_limited
