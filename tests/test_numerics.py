"""Special-function layer: examples, property suites, independent oracles.

Reference values in this file were computed with mpmath at 40 decimal
digits; the property suites double as the acceptance checks for the
numerics layer.
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from quadcheck import (
    AccuracyWarning,
    DomainError,
    PoleError,
    cpow,
    gamma,
    reciprocal_gamma,
    zeta,
)
from quadcheck.numerics import _zeta_alternating

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# cpow
# ---------------------------------------------------------------------------

def test_cpow_anything_to_zero_is_one():
    assert cpow(0.5, 0) == 1
    assert cpow(2 + 3j, 0) == 1


def test_cpow_real_example():
    # oracle: exp(0.25 ln 0.5), i.e. 0.5**0.25
    expected = 0.84089641525371454303
    assert abs(cpow(0.5, 0.25) - expected) < 1e-15


def test_cpow_imaginary_exponent():
    # oracle: cos(ln 0.9) + i sin(ln 0.9)
    ln = math.log(0.9)
    expected = complex(math.cos(ln), math.sin(ln))
    assert abs(cpow(0.9, 1j) - expected) < 1e-15
    assert abs(expected - (0.99445471349603665333 - 0.10516569215060420692j)) < 1e-16


def test_cpow_zero_base():
    assert cpow(0.0, 2.0) == 0
    assert cpow(0.0, 1 + 5j) == 0
    for exponent in (0.0, -1.0, 1j, -2 + 1j):
        with pytest.raises(DomainError):
            cpow(0.0, exponent)


def test_cpow_additivity():
    rng = random.Random(42)
    for _ in range(1000):
        x = rng.uniform(0.01, 0.99)
        u = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = cpow(x, u + v)
        rhs = cpow(x, u) * cpow(x, v)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_principal_branch_conventions():
    rng = random.Random(7)
    for _ in range(500):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-3:
            continue
        assert -math.pi < cmath.log(z).imag <= math.pi
        assert abs(cmath.sqrt(z) - cmath.exp(cmath.log(z) / 2)) <= 1e-14 * abs(z) ** 0.5
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(cpow(z, w) - cmath.exp(w * cmath.log(z))) == 0.0


def test_complex_field_axioms():
    rng = random.Random(99)
    for _ in range(500):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assoc = abs((a + b) + c - (a + (b + c)))
        assert assoc <= 1e-12 * max(1.0, abs(a) + abs(b) + abs(c))
        dist = abs(a * (b + c) - (a * b + a * c))
        assert dist <= 1e-12 * max(1.0, abs(a) * (abs(b) + abs(c)))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_known_values():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    # mpmath reference at 30 digits
    expected = 0.49801566811835604271 - 0.15494982830181068512j
    assert abs(gamma(1 + 1j) - expected) < 5e-14


def test_gamma_against_independent_implementation():
    rng = random.Random(2024)
    for _ in range(200):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        n = round(z.real)
        if n <= 0 and abs(z - n) < 0.05:
            continue
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        assert abs(gamma(z) - ref) <= 1e-12 * abs(ref), z


def test_gamma_recurrence_1000_samples():
    rng = random.Random(11)
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
        g0 = gamma(z)
        assert abs(g1 - z * g0) / abs(g1) < 1e-11, z
        checked += 1


def test_gamma_reflection_1000_samples():
    rng = random.Random(12)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z - round(z.real)) <= 0.1 or abs(z.imag) > 50:
            continue
        product = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(product - 1.0) < 1e-10, z
        checked += 1


def test_gamma_pole_guard():
    for z in (0.0, -1.0, -7.0, complex(-2.0, 5e-9), -3.0 + 1e-9j):
        with pytest.raises(PoleError):
            gamma(z)
    # just outside the guard the value is finite (and huge)
    v = gamma(-3.0 + 1e-6j)
    assert math.isfinite(abs(v))


def test_gamma_rejects_nonfinite():
    with pytest.raises(DomainError):
        gamma(complex(math.inf, 0.0))


def test_reciprocal_gamma_matches_gamma():
    rng = random.Random(5)
    for _ in range(300):
        z = complex(rng.uniform(-8, 10), rng.uniform(-8, 8))
        n = round(z.real)
        if n <= 0 and abs(z - n) < 0.05:
            continue
        g = gamma(z)
        assert abs(reciprocal_gamma(z) * g - 1.0) < 1e-11, z


def test_reciprocal_gamma_entire():
    # zero at the poles of gamma
    for n in (0, -1, -2, -5):
        assert abs(reciprocal_gamma(complex(n))) < 1e-13
    # underflows cleanly where gamma overflows double precision
    assert reciprocal_gamma(complex(300.0)) == 0
    v = reciprocal_gamma(complex(1000.0, 40.0))
    assert abs(v) == 0.0


def test_reciprocal_gamma_is_exactly_zero_at_the_poles():
    for n in range(21):
        assert reciprocal_gamma(complex(-n)) == 0, n


@pytest.mark.parametrize("n", range(21))
@pytest.mark.parametrize("offset", [1e-6, -1e-6])
def test_gamma_and_reciprocal_near_the_poles_match_mpmath(n, offset):
    # sin(pi z) is reduced by the nearest integer, so no digits are lost
    # to the rounding of pi z next to a pole
    z = complex(-n + offset)
    g = complex(mp.gamma(mp.mpc(z)))
    assert abs(gamma(z) - g) <= 1e-12 * abs(g)
    assert abs(reciprocal_gamma(z) - 1.0 / g) <= 1e-12 / abs(g)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_known_values():
    assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-13
    assert abs(zeta(0.0) - (-0.5)) < 1e-12


def test_zeta_dirichlet_partial_sum_oracle():
    # direct truncated Dirichlet sum with a rigorous tail bound,
    # valid since Re z > 1
    s = 3 + 4j
    n_terms = 200_000
    partial = sum(cmath.exp(-s * math.log(n)) for n in range(1, n_terms + 1))
    tail_bound = n_terms ** (1 - s.real) / (s.real - 1)
    value = zeta(s)
    assert abs(value - partial) <= tail_bound + 1e-11 * abs(value)
    # mpmath reference for the same point
    assert abs(value - (0.89055490696507325814 - 0.0080759454243272598468j)) < 1e-12


def test_zeta_truncated_series_where_tail_is_tiny():
    # plain truncation is rigorous and meaningful for Re z >= 4
    rng = random.Random(31)
    for _ in range(10):
        s = complex(rng.uniform(4.0, 9.0), rng.uniform(-50, 50))
        n_terms = 12_000
        partial = sum(cmath.exp(-s * math.log(n)) for n in range(1, n_terms + 1))
        tail_bound = n_terms ** (1 - s.real) / (s.real - 1)
        assert tail_bound < 1e-11
        value = zeta(s)
        assert abs(value - partial) <= tail_bound + 1e-10 * abs(value), s


def test_zeta_against_independent_implementation():
    rng = random.Random(77)
    for _ in range(150):
        s = complex(rng.uniform(0.0, 12.0), rng.uniform(-50, 50))
        if abs(s - 1) < 0.05:
            continue
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        got = zeta(s)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-6), s


def test_zeta_functional_equation_1000_samples():
    # two genuinely different routes: the alternating series at z, and the
    # reflection factor chi(z) times the alternating series at 1-z
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(0.2, 0.8), rng.uniform(-30, 30))
        if abs(z - 1) < 0.1:
            continue
        direct = _zeta_alternating(z)
        if abs(direct) < 1e-3:
            # relative comparison is meaningless right next to a zeta zero
            continue
        chi = (
            cpow(2.0, z)
            * cpow(math.pi, z - 1.0)
            * cmath.sin(0.5 * math.pi * z)
            * gamma(1.0 - z)
        )
        reflected = chi * _zeta_alternating(1.0 - z)
        assert abs(direct - reflected) / abs(direct) < 1e-9, z
        checked += 1


def test_zeta_pole_guard():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta(1.0 + 2e-9j)
    assert math.isfinite(abs(zeta(1.0 + 1e-6j)))


def test_zeta_accuracy_warning_outside_validated_region():
    with pytest.warns(AccuracyWarning):
        zeta(0.5 + 60j)
    with pytest.warns(AccuracyWarning):
        zeta(-1.5)


def test_zeta_no_warning_inside_validated_region(recwarn):
    zeta(0.5 + 30j)
    zeta(2.0 - 49j)
    zeta(300.0 + 200j)  # plain-sum region is Im-independent
    assert not [w for w in recwarn if issubclass(w.category, AccuracyWarning)]


def test_operations_return_finite_values():
    rng = random.Random(3)
    for _ in range(200):
        z = complex(rng.uniform(0.2, 9), rng.uniform(-40, 40))
        for v in (gamma(z), zeta(z), cpow(z, 0.3 + 0.2j), reciprocal_gamma(z)):
            assert math.isfinite(v.real) and math.isfinite(v.imag)
