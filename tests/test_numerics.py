"""Special-function layer: examples, property suites, independent oracles.

Reference values in this file were computed with mpmath at 40 decimal
digits; the property suites double as the acceptance checks for the
numerics layer.
"""

import cmath
import math
import random
import sys
import warnings

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
from quadcheck import numerics
from quadcheck.numerics import _zeta_dirichlet, _zeta_euler_maclaurin

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


def test_gamma_beyond_double_range_is_a_domain_error():
    with pytest.raises(DomainError):
        gamma(172.0)
    with pytest.raises(DomainError):
        gamma(500.0 + 1j)
    # cmath.exp returns inf here without raising
    with pytest.raises(DomainError):
        gamma(1e308)


def test_gamma_that_underflows_is_zero():
    assert gamma(-200.5) == 0


def test_reciprocal_gamma_beyond_double_range_is_a_domain_error():
    # the reflection branch; the right branch maps overflow the same way
    with pytest.raises(DomainError):
        reciprocal_gamma(-200.5)
    with pytest.raises(DomainError):
        reciprocal_gamma(complex(-1000.0, 1e-3))
    # cmath.exp returns inf+nanj here without raising
    with pytest.raises(DomainError):
        reciprocal_gamma(1e308j)
    # at a pole the value is exactly 0, however large gamma(1 - z) is
    assert reciprocal_gamma(-200.0) == 0


def test_zeta_beyond_double_range_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        with pytest.raises(DomainError):
            zeta(-300 + 1j)


def test_zeta_where_the_modulus_of_z_overflows():
    # both parts of z are finite, |z| and |z - 1| are not
    assert zeta(complex(1.5e308, 1.5e308)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        with pytest.raises(DomainError):
            zeta(complex(-1.5e308, 1.5e308))


#: Just inside the Euler-Maclaurin table, |s| < 255 with s = z, or 1 - z
#: left of Re z = -1; and just past it.
_ZETA_TABLE_INSIDE = (0.5 + 250j, 0.5 + 254.9j, 0.5 - 254.9j, 5 + 254.9j, 9.99 + 254.7j,
                      -1 + 254.9j, -100 + 229j, -253.9 + 0j, -253 + 1j)
_ZETA_TABLE_PAST = (0.5 + 255j, 0.5 + 1000j, 5 + 1e5j, 9.99 - 300j, -254.5 + 1j, -1.5 + 300j)


def test_zeta_just_inside_its_table_against_mpmath():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for s in _ZETA_TABLE_INSIDE:
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta(s) - ref) <= 1e-12 * abs(ref), s


@pytest.mark.parametrize("s", _ZETA_TABLE_PAST)
def test_zeta_past_its_table_is_a_domain_error(s):
    # a capped sum returned 0.30 off at 0.5 + 1000i and 2.7e26 off at 5 + 1e5i
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        with pytest.raises(DomainError, match="past its table of 160"):
            zeta(s)


def test_zeta_far_left_in_double_range_against_mpmath():
    # gamma(1 - s) is about 1e375 here, but chi(s) and zeta(s) are in range
    s = -200 + 1j
    ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        got = zeta(s)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("step", range(9))
def test_gamma_near_the_overflow_threshold_is_finite_or_a_domain_error(step):
    # from 171.6 to 172 by 0.05, across the overflow threshold near 171.62
    x = 171.6 + 0.05 * step
    ref = mp.gamma(x)
    if ref > 1.7976931348623157e308:
        with pytest.raises(DomainError):
            gamma(x)
    else:
        assert abs(gamma(x) - float(ref)) <= 1e-12 * float(ref)


@pytest.mark.parametrize("x", [-170.65, -170.7, -170.8, -171.3, -171.5])
def test_gamma_below_double_range_on_the_left_is_subnormal(x):
    # gamma(1 - x) is beyond double range, but the reflection is taken in
    # logs, so the subnormal value comes out, to the precision it has
    ref = mp.gamma(x)
    assert abs(ref) < 2.3e-308
    assert abs(gamma(x) - complex(ref)) <= 1e-12 * abs(ref) + 5e-324


def _sweep_points():
    """Seeded points: Re z < 0.5 past |Im z| = 226, where sin(pi z) leaves
    double range; the left overflow edge near Re z = -160; the rest of the
    left half plane off the axis; the right half plane."""
    rng = random.Random(4000)
    regions = [
        ((-20.0, 0.5), (226.0, 480.0)),
        ((-185.0, -150.0), (0.0, 25.0)),
        ((-10.0, 0.5), (20.0, 226.0)),
        ((0.5, 180.0), (0.0, 480.0)),
    ]
    for (re_lo, re_hi), (im_lo, im_hi) in regions:
        for _ in range(80):
            sign = rng.choice((-1.0, 1.0))
            yield complex(rng.uniform(re_lo, re_hi), sign * rng.uniform(im_lo, im_hi))


@pytest.mark.parametrize("fn, power", [(gamma, 1), (reciprocal_gamma, -1)])
def test_gamma_and_reciprocal_sweep_against_mpmath(fn, power):
    # each value is within 1e-12 relative of mpmath (to the precision of a
    # subnormal), or a DomainError where mpmath's value is beyond double
    # range; never a bare exception or a non-finite number
    biggest = mp.mpf(sys.float_info.max)
    for z in _sweep_points():
        ref = mp.gamma(mp.mpc(z.real, z.imag)) ** power
        if abs(ref) > biggest:
            with pytest.raises(DomainError):
                fn(z)
        else:
            got = fn(z)
            assert abs(mp.mpc(got) - ref) <= 1e-12 * abs(ref) + mp.mpf(5e-324), z


@pytest.mark.parametrize("x", [-0.5, -1.5, -2.5, -0.3, -7.25, -170.65, 0.3, 4.5])
def test_gamma_and_reciprocal_are_real_on_the_real_axis(x):
    # the sign of sin(pi z) is kept out of the log, so no rounding of
    # exp(i pi) leaves an imaginary part
    assert gamma(x).imag == 0
    assert reciprocal_gamma(x).imag == 0


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


def _dirichlet_with_a_log_per_term(s):
    sigma = s.real
    n_terms = max(2, math.ceil(math.exp((32.2 - math.log(sigma - 1.0)) / (sigma - 1.0))))
    acc = 1.0 + 0j
    for k in range(2, n_terms + 1):
        acc += cmath.exp(-s * math.log(k))
    return acc


def _euler_maclaurin_terms(s):
    """N of the Euler-Maclaurin sum at s."""
    return int(0.6 * abs(s)) + 8


def _euler_maclaurin_with_a_log_per_term(s):
    n = _euler_maclaurin_terms(s)
    acc = 0j
    for k in range(1, n):
        acc += cmath.exp(-s * math.log(k))
    h = 0j
    for j in range(10, 0, -1):
        h = numerics._EM_WEIGHTS[j - 1] + h * (s + (2 * j - 1)) * (s + 2 * j) * (1.0 / (n * n))
    return acc + cmath.exp(-s * math.log(n)) * (n / (s - 1.0) + 0.5 + s * h / n)


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_both_zeta_sums_read_the_log_table_bit_for_bit():
    # the table holds the same logarithms, summed in the same order
    rng = random.Random(25)
    for _ in range(300):
        s = complex(rng.uniform(10.0, 60.0), rng.uniform(-200.0, 200.0))
        assert _bits(_zeta_dirichlet(s)) == _bits(_dirichlet_with_a_log_per_term(s)), s
    strip = [complex(rng.uniform(0.0, 10.0), rng.uniform(-50.0, 50.0)) for _ in range(300)]
    # from |s| of about 253.3 to 255 the sum ends at the table's last term, N = 160
    strip += [-1.0 + 50j, 0.5 + 254j, 3.0 - 254.9j]
    assert _euler_maclaurin_terms(strip[-2]) == len(numerics._LOGS) == 160
    for s in strip:
        assert _bits(_zeta_euler_maclaurin(s)) == _bits(_euler_maclaurin_with_a_log_per_term(s)), s


def test_zeta_euler_maclaurin_remainder_is_bounded_below_1e_13():
    # Cohen and Olivier's bound on the remainder after M corrections,
    # |s (s+1) ... (s+2M+1) B_2M+2 N^(-sigma-2M-1) / ((2M+2)! (sigma+2M+1))|,
    # valid for sigma > -2M-1, at the sum's (N, M = 10): with it the digits
    # are proved at each point, not sampled.  The worst point of a 0.1 x 1
    # grid is -1 - 48i, at 0.21 of the target.
    rng = random.Random(31)
    points = [complex(rng.uniform(-1.0, 10.0), rng.uniform(-50.0, 50.0)) for _ in range(400)]
    points += [complex(-1.0, 48.0), complex(-1.0, -50.0), complex(0.5, 50.0), complex(9.99, 50.0)]
    weight = abs(mp.bernoulli(22)) / mp.factorial(22)
    for s in points:
        n = _euler_maclaurin_terms(s)
        s_mp = mp.mpc(s.real, s.imag)
        rising = mp.fprod(abs(s_mp + j) for j in range(22))
        bound = rising * weight * mp.mpf(n) ** (-s.real - 21) / (s.real + 21)
        assert bound < 1e-13 * max(1, abs(mp.zeta(s_mp))), s


def test_zeta_against_independent_implementation():
    rng = random.Random(77)
    worst = 0.0
    for _ in range(150):
        s = complex(rng.uniform(0.0, 12.0), rng.uniform(-50, 50))
        if abs(s - 1) < 0.05:
            continue
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        got = zeta(s)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-6), s
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12


def test_zeta_in_the_strip_below_one_half_against_mpmath():
    # 0 <= Re s < 0.5 is taken by the Euler-Maclaurin sum directly, not by
    # the functional equation
    rng = random.Random(78)
    for _ in range(300):
        s = complex(rng.uniform(0.0, 0.5), rng.uniform(-50, 50))
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(zeta(s) - ref) <= 1e-12 * abs(ref), s


def test_zeta_functional_equation_1000_samples():
    # two genuinely different routes: the Euler-Maclaurin sum at z, and the
    # reflection factor chi(z) times the Euler-Maclaurin sum at 1-z
    rng = random.Random(13)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(0.2, 0.8), rng.uniform(-30, 30))
        if abs(z - 1) < 0.1:
            continue
        direct = _zeta_euler_maclaurin(z)
        if abs(direct) < 1e-3:
            # relative comparison is meaningless right next to a zeta zero
            continue
        chi = (
            cpow(2.0, z)
            * cpow(math.pi, z - 1.0)
            * cmath.sin(0.5 * math.pi * z)
            * gamma(1.0 - z)
        )
        reflected = chi * _zeta_euler_maclaurin(1.0 - z)
        assert abs(direct - reflected) / abs(direct) < 1e-9, z
        checked += 1


def test_zeta_left_of_the_strip_against_mpmath():
    # Re s < -1 goes through the functional equation, -1 <= Re s < 0 through
    # the Euler-Maclaurin sum; so do both sides of that edge, and both sides
    # of z = 0, where reflecting would form (1 - s) - 1
    rng = random.Random(79)
    points = [complex(rng.uniform(-10.0, -0.05), rng.uniform(-50, 50)) for _ in range(100)]
    points += [complex(rng.uniform(-1.05, -0.95), rng.uniform(-50, 50)) for _ in range(100)]
    points += [r * cmath.exp(2j * math.pi * (j + 0.25) / 16)
               for r in (1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.1) for j in range(16)]
    for s in points:
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            got = zeta(s)
        assert abs(got - ref) <= 1e-12 * abs(ref), s


def test_zeta_pole_guard():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta(1.0 + 2e-9j)
    assert math.isfinite(abs(zeta(1.0 + 1e-6j)))


def test_zeta_next_to_its_pole_against_mpmath():
    # the pole is the sum's term N^(1-s)/(s-1), which keeps every digit as
    # s nears 1
    for r in (1e-7, 1e-5, 1e-3, 0.01, 0.03, 0.05, 0.1):
        for j in range(16):
            s = 1 + r * cmath.exp(2j * math.pi * (j + 0.25) / 16)
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta(s) - ref) <= 1e-15 * abs(ref), s


#: eta(s) and 1 - 2^(1-s) both vanish at s = 1 + i k _ETA_STEP, k != 0, so
#: zeta from their quotient is 0/0 there; the Euler-Maclaurin sum has no
#: special point on that line, nor on its mirror Re s = 0
_ETA_STEP = 2 * math.pi / math.log(2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
def test_zeta_on_the_line_re_1_at_steps_of_2_pi_over_ln_2_against_mpmath(k):
    # a reference at mpmath's default 53 bits is itself 4.7e-7 off at k = 1
    centre = complex(1.0, k * _ETA_STEP)
    points = [centre + d for d in (0.0, 1e-12, 1e-6, 1e-3)]
    points += [centre + r * cmath.exp(2j * math.pi * j / 8)
               for r in (0.001, 0.005, 0.01, 0.025, 0.05, 0.1) for j in range(8)]
    for s in points:
        ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
        assert abs(zeta(s) - ref) <= 5e-13 * abs(ref), s


@pytest.mark.parametrize("k", [1, 2, 5, -1, -5])
def test_zeta_left_of_the_imaginary_axis_at_steps_of_2_pi_over_ln_2_against_mpmath(k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for d in (1e-12, 1e-6, 1e-3, 0.02):
            s = complex(-d, k * _ETA_STEP)
            ref = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta(s) - ref) <= 1e-12 * abs(ref), s


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
