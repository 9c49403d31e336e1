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
    with pytest.raises(DomainError):
        integrate_finite(lambda x: 1.0, 0.0, math.inf)


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


def test_options_validation():
    with pytest.raises(DomainError):
        QuadratureOptions(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureOptions(rel_tol=-1.0)
    with pytest.raises(DomainError):
        QuadratureOptions(max_subdivisions=0)


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


def test_budget_stop_before_the_last_window_is_not_converged():
    # nine bisections meet the tolerance on the first window, but the
    # windows beyond it were never looked at
    def f(x):
        return math.exp(-x) * math.cos(5.0 * x)

    opts = QuadratureOptions(max_subdivisions=9)
    r = integrate_half_line(f, opts)
    assert r.error_estimate <= max(opts.abs_tol, opts.rel_tol * abs(r.value))
    assert r.truncation_used < integrate_half_line(f).truncation_used
    assert not r.converged
