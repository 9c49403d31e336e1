"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import cmath
import math
import random

import pytest

from quadcheck import (
    DivergenceError,
    KernelParams,
    TransformFunction,
    cpow,
    gamma,
    master_lhs,
    run_case,
    verify_master,
    verify_seed,
)
from quadcheck.cli import main
from quadcheck.numerics import _zeta_euler_maclaurin


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_rational_reproduction():
    rep = run_case("rational", {"a": 0.7, "b": 2.0}, tolerance=1e-9)
    ok = (
        abs(rep.lhs - 0.163891) < 5e-7
        and abs(rep.rhs - 0.163891) < 5e-7
        and rep.rel_diff < 1e-9
    )
    _criterion(1, ok, f"rational a=0.7 b=2: both sides 0.163891, rel {rep.rel_diff:.2e}")


def test_criterion_02_gaussian_reproduction():
    rep = run_case("gaussian", {"a": 0.3, "b": 0.3}, tolerance=1e-9)
    ok = (
        abs(rep.lhs - 0.0240764) < 5e-8
        and abs(rep.rhs - 0.0240764) < 5e-8
        and rep.rel_diff < 1e-9
    )
    _criterion(2, ok, f"gaussian a=b=0.3: both sides 0.0240764, rel {rep.rel_diff:.2e}")


def test_criterion_03_cosine_complex_a_reproduction():
    rep = run_case("cosine", {"alpha": 0.1, "a": 1 + 2j})
    expected = complex(-0.0783703, 0.00264214)
    ok = rep.passed
    for side in (rep.lhs, rep.rhs):
        ok = ok and abs(side.real - expected.real) < 5e-8
        ok = ok and abs(side.imag - expected.imag) < 5e-8
    _criterion(3, ok, f"cosine alpha=0.1 a=1+2i: both sides {expected}")


def test_criterion_04_bessel_value_recovery():
    rep = run_case("bessel", {"a": 7.0})
    ok = (
        abs(rep.lhs - 0.000708622) < 5e-9
        and abs(rep.rhs - 0.000708622) < 5e-9
    )
    # the notes must document that a=0.7 gives roughly 0.54
    ok = ok and "0.5416" in rep.notes
    at_printed = run_case("bessel", {"a": 0.7})
    ok = ok and abs(at_printed.rhs - 0.5416121939977559) < 1e-9
    _criterion(4, ok, "bessel a=7: 0.000708622 on both sides; a=0.7 -> 0.5416 documented")


def test_criterion_05_seed_identity_grid():
    worst = 0.0
    ok = True
    for i in range(5):
        a = 0.3 + i * (3.0 - 0.3) / 4.0
        for j in range(5):
            t = 0.2 + j * (2.0 - 0.2) / 4.0
            rep = verify_seed(a, t, tolerance=1e-9)
            worst = max(worst, rep.rel_diff)
            ok = ok and rep.passed
    _criterion(5, ok and worst < 1e-9,
               f"seed identity on 25-point grid, worst rel diff {worst:.2e}")


def test_criterion_06_gamma_identity():
    ok = True
    details = []
    for a, b in ((0.5, 1.0), (1.0, 1.0), (0.25, 2.0)):
        rep = run_case("gamma", {"a": a, "b": b})
        real_ok = abs(rep.lhs.imag) <= rep.diagnostics.error_estimate
        # oracle: the gamma operation, itself validated by the
        # recurrence/reflection property suites
        target = 1.0 / gamma(complex(a + b))
        close = abs(rep.lhs - target) <= 1e-8 * abs(target)
        ok = ok and real_ok and close
        details.append(f"(a={a},b={b}) rel {abs(rep.lhs - target) / abs(target):.1e}")
    _criterion(6, ok, "gamma identity vs 1/gamma(a+b): " + ", ".join(details))


def test_criterion_07_zeta_contour_integral():
    ok = True
    worst = 0.0
    n0_values = {}
    for n in (0, 1, 2):
        for x in (0.3, 0.5, 0.8):
            for a in (0.5, 1.0, 2.0):
                rep = run_case("zeta", {"n": n, "x": x, "a": a}, tolerance=1e-7)
                ok = ok and rep.passed
                if rep.rhs != 0:
                    worst = max(worst, rep.rel_diff)
                if n == 0:
                    n0_values.setdefault(x, []).append(rep.lhs)
    # n=0 results must not depend on a
    for x, values in n0_values.items():
        spread = max(abs(v - values[0]) for v in values)
        ok = ok and spread < 1e-10
    extra = run_case("zeta", {"n": 0, "x": 0.5, "a": 5.0})
    ok = ok and abs(extra.lhs - n0_values[0.5][0]) < 1e-10
    _criterion(7, ok, f"zeta contour, 27 combinations, worst rel {worst:.2e}; "
                      "n=0 independent of a")


def test_criterion_08_master_property_suite():
    ok = True
    worst = 0.0
    for b in (0.5, 1.0, 2.0, 5.0):
        F = TransformFunction(lambda k, b=b: 1.0 / (k + b), schwarz_symmetric=True)
        for a in (0.3, 0.7, 1.0, 2.0, 5.0):
            rep = verify_master(F, KernelParams(a), tolerance=1e-8)
            ok = ok and rep.passed
            worst = max(worst, rep.rel_diff)
    # a -> 1/a covariance of the integral side
    F = TransformFunction(lambda k: 1.0 / (k + 1.0), schwarz_symmetric=True)
    for a in (0.3, 0.7, 1.0, 2.0, 5.0):
        lhs_inv = master_lhs(F, KernelParams(1.0 / a)).value
        lhs = master_lhs(F, KernelParams(a)).value
        rel = abs(lhs_inv - a**4 * lhs) / abs(lhs_inv)
        ok = ok and rel < 1e-8
        worst = max(worst, rel)
    _criterion(8, ok, f"master suite, 20 transforms + covariance, worst {worst:.2e}")


def test_criterion_09_rejection_behavior():
    alpha = 1.25 / math.pi  # alpha * pi = 1.25
    library_ok = False
    try:
        run_case("cosine", {"alpha": alpha, "a": 1.0})
    except DivergenceError:
        library_ok = True
    growing_ok = False
    try:
        F = TransformFunction(lambda k: cmath.exp(k), schwarz_symmetric=True)
        verify_master(F, KernelParams(1.0))
    except DivergenceError:
        growing_ok = True
    rc_cosine = main(["verify", "cosine", "--param", f"alpha={alpha!r}",
                      "--param", "a=1"])
    rc_custom = main(["custom", "--F", "exp(k)", "--a", "1"])
    ok = library_ok and growing_ok and rc_cosine == 3 and rc_custom == 3
    _criterion(9, ok, "alpha*pi=1.25 and F=e^k end in divergence errors, exit 3")


def test_criterion_10_numerics_property_suites():
    rng = random.Random(20240801)
    rec_worst = 0.0
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        n = round(z.real)
        if n <= 0 and abs(z - n) < 0.05:
            continue
        n1 = round(z.real + 1)
        if n1 <= 0 and abs(z + 1 - n1) < 0.05:
            continue
        g1 = gamma(z + 1)
        rec_worst = max(rec_worst, abs(g1 - z * gamma(z)) / abs(g1))
        checked += 1

    refl_worst = 0.0
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z - round(z.real)) <= 0.1:
            continue
        product = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        refl_worst = max(refl_worst, abs(product - 1.0))
        checked += 1

    fe_worst = 0.0
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(0.2, 0.8), rng.uniform(-30, 30))
        if abs(z - 1) < 0.1:
            continue
        direct = _zeta_euler_maclaurin(z)
        if abs(direct) < 1e-3:
            continue
        chi = (
            cpow(2.0, z)
            * cpow(math.pi, z - 1.0)
            * cmath.sin(0.5 * math.pi * z)
            * gamma(1.0 - z)
        )
        fe_worst = max(fe_worst, abs(direct - chi * _zeta_euler_maclaurin(1.0 - z)) / abs(direct))
        checked += 1

    ok = rec_worst < 1e-11 and refl_worst < 1e-10 and fe_worst < 1e-9
    _criterion(10, ok,
               f"gamma recurrence {rec_worst:.1e} (<1e-11), reflection "
               f"{refl_worst:.1e} (<1e-10), zeta functional equation "
               f"{fe_worst:.1e} (<1e-9), 1000 samples each")
