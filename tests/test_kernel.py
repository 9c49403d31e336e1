"""Kernel weight and the seed/master identities.

Frozen reference numbers were computed with mpmath at 40 decimal digits
from the closed forms; identity checks compare the quadrature side against
the closed-form side directly.
"""

import cmath
import math
import pickle
import random
import re

import pytest

from quadcheck import (
    DivergenceError,
    DomainError,
    KernelParams,
    NonConvergenceError,
    ParameterError,
    QuadratureOptions,
    QuadratureResult,
    RoundoffError,
    TransformFunction,
    detect_schwarz_symmetry,
    integrate_half_line,
    kernel_weight,
    master_lhs,
    master_rhs,
    run_case,
    verify_master,
    verify_seed,
)
from quadcheck import kernel
from quadcheck.catalog import _LINE_SHIFT, list_cases
from quadcheck.kernel import (
    _COMPLEX_TERMS,
    _COMPLEX_TERMS_CAP,
    REL_DIFF_FLOOR,
    VerificationReport,
    _route,
    master_integral,
    require_converged,
)


# the values tests/test_inputs.py's corpus lacks, or refused there by a
# wider class
@pytest.mark.parametrize("call, error", [
    (lambda: run_case("rational", {"a": "x"}), ParameterError),
    (lambda: run_case("rational", {"a": None}), ParameterError),
    (lambda: verify_seed(1.0, 1j), DomainError),
], ids=["case-str", "case-none", "seed-t-complex"])
def test_non_numeric_inputs_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def _direct_kernel(a: complex, x: float) -> complex:
    # textbook form, safe only for moderate |x|
    return math.cosh(x) / (1.0 + 2.0 * a * a * math.cosh(2.0 * x) + a**4)


def test_kernel_params_is_real_positive():
    assert KernelParams(0.7).is_real_positive
    assert not KernelParams(-1.0).is_real_positive
    assert not KernelParams(1 + 2j).is_real_positive


@pytest.mark.parametrize("a", [complex(1.5e308, 1.5e308), 1e300 + 1e-300j, 1e300, -1e300,
                               1.2e77, 8.6e-78, 1e-100j, 5e-324])
def test_kernel_params_refuse_a_whose_fourth_power_leaves_double_range(a):
    # the fault is the parameter, so it is named before any quadrature
    message = "kernel parameter a must have |ln|a|| <= 177.45, got a = "
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        KernelParams(a)


def test_kernel_params_accept_a_whose_fourth_power_is_in_double_range():
    assert KernelParams(1.15e77)._a2 == 1.15e77 * 1.15e77
    assert KernelParams(8.7e-78)._a2 == 8.7e-78 * 8.7e-78
    assert KernelParams(-1.15e77 + 1j)._a2 == (-1.15e77 + 1j) ** 2


def test_kernel_weight_at_origin():
    assert abs(kernel_weight(KernelParams(1.0), 0.0) - 0.25) < 1e-15


def test_kernel_weight_collapses_to_sech_at_a_one():
    kp = KernelParams(1.0)
    rng = random.Random(1)
    for _ in range(200):
        x = rng.uniform(-30.0, 30.0)
        expected = 1.0 / (4.0 * math.cosh(x))
        got = kernel_weight(kp, x)
        assert abs(got - expected) <= 1e-14 * abs(expected)


def test_kernel_weight_spot_value():
    # high-precision evaluation of the closed form at a=0.7, x=1
    expected = 0.31318539048776919315
    assert abs(kernel_weight(KernelParams(0.7), 1.0) - expected) < 1e-14


def test_kernel_factorization_identity():
    rng = random.Random(2)
    for _ in range(500):
        a = rng.uniform(0.1, 10.0)
        x = rng.uniform(-20.0, 20.0)
        direct = 1.0 + 2.0 * a * a * math.cosh(2.0 * x) + a**4
        factored = (a * a + math.exp(2.0 * x)) * (a * a + math.exp(-2.0 * x))
        assert factored > 0  # denominator never vanishes for real a > 0
        assert abs(direct - factored) <= 1e-12 * abs(factored)
        # and the weight built on it matches the textbook form
        got = kernel_weight(KernelParams(a), x)
        assert abs(got - _direct_kernel(a, x)) <= 1e-12 * abs(got)


def test_kernel_weight_even_exactly():
    rng = random.Random(3)
    for _ in range(200):
        a = complex(rng.uniform(0.2, 5.0), rng.uniform(-1.0, 1.0))
        x = rng.uniform(0.0, 50.0)
        kp = KernelParams(a)
        assert kernel_weight(kp, -x) == kernel_weight(kp, x)


def test_kernel_weight_no_overflow_far_out():
    kp = KernelParams(0.5)
    v = kernel_weight(kp, 300.0)
    assert abs(v) < 1e-120
    assert math.isfinite(v.real)


def _complex_kernel(a: complex, x: float) -> complex:
    # kernel_weight's formula, kept in complex arithmetic throughout
    u = complex(math.exp(-abs(x)))
    a = complex(a)
    a2 = a * a
    u2 = u * u
    return 0.5 * (u + u * u2) / ((1.0 + a2 * u2) * (a2 + u2))


_NODES = [120.0 * (i / 600.0) ** 2 for i in range(601)] + [0.3, 4.0, 30.0]


@pytest.mark.parametrize("a", [0.7, 1.0, 2.5, 1e-3, 40.0, -0.7, -3.0, 2j, -0.4j])
def test_kernel_weight_is_a_float_bit_for_bit_when_a_squared_is_real(a):
    kp = KernelParams(a)
    for x in _NODES:
        got = kernel_weight(kp, x)
        reference = _complex_kernel(a, x)
        assert type(got) is float
        assert reference.imag == 0.0
        assert got.hex() == reference.real.hex(), x


@pytest.mark.parametrize("a", [1 + 1j, 0.5 - 2j, -3 + 0.1j])
def test_kernel_weight_for_complex_a_is_unchanged(a):
    kp = KernelParams(a)
    for x in _NODES:
        got = kernel_weight(kp, x)
        assert type(got) is complex
        assert got == _complex_kernel(a, x)


@pytest.mark.parametrize("a", [0.7, 1.0, 2.5, 1e-3, 40.0, -0.7, 1 + 1j, 0.5 - 2j])
def test_kernel_weight_at_real_and_complex_x_agree(a):
    # one formula: a real x and the same x as a complex give one value,
    # bit for bit when a^2 is real
    kp = KernelParams(a)
    for x in _NODES + [-x for x in _NODES]:
        got = kernel_weight(kp, x)
        at_complex = kernel_weight(kp, complex(x, 0.0))
        if type(got) is float:
            assert at_complex.imag == 0.0
            assert at_complex.real.hex() == got.hex(), x
        else:
            assert at_complex == got, x


def test_kernel_weight_at_complex_x_matches_the_textbook_form():
    # the form the shifted line and the rays take, at u = e^{-x}
    rng = random.Random(5)
    for _ in range(300):
        a = complex(rng.uniform(0.2, 5.0), rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
        x = complex(rng.uniform(-15.0, 15.0), rng.uniform(-0.8, 0.8))
        kp = KernelParams(a)
        a2 = a * a
        direct = cmath.cosh(x) / (1.0 + 2.0 * a2 * cmath.cosh(2.0 * x) + a2 * a2)
        got = kernel_weight(kp, x)
        assert abs(got - direct) <= 1e-12 * abs(direct)
        assert kernel_weight(kp, -x) == got  # even, exactly
        if a.imag == 0.0:
            assert kernel_weight(kp, x.conjugate()) == got.conjugate()


@pytest.mark.parametrize("x", [0.0, 0j])
def test_kernel_weight_on_a_pole_raises_domain_error(x):
    # a = i puts a pole at x = 0, on the real axis and at complex x alike
    with pytest.raises(DomainError, match="kernel denominator vanishes"):
        kernel_weight(KernelParams(1j), x)


def test_cached_a_squared_is_not_a_field():
    kp = KernelParams(2.0)
    assert KernelParams._fields == ("a",)
    assert kp == KernelParams(2 + 0j) and hash(kp) == hash(KernelParams(2 + 0j))
    assert repr(kp) == "KernelParams(a=(2+0j))"
    copy = pickle.loads(pickle.dumps(kp))
    assert copy == kp and kernel_weight(copy, 1.5) == kernel_weight(kp, 1.5)


def test_kernel_inversion_covariance():
    rng = random.Random(4)
    for _ in range(200):
        a = rng.uniform(0.1, 10.0)
        x = rng.uniform(-15.0, 15.0)
        w_inv = kernel_weight(KernelParams(1.0 / a), x)
        w = kernel_weight(KernelParams(a), x)
        assert abs(w_inv - a**4 * w) <= 1e-12 * abs(w_inv)


# ---------------------------------------------------------------------------
# seed identity
# ---------------------------------------------------------------------------

def test_seed_rhs_values():
    # pi exp(-pi^2/4)/8, computed at 40 digits
    assert abs(verify_seed(1.0, 1.0).rhs - 0.033302834812891962106) < 1e-16
    # a = e makes ln a = 1
    assert abs(verify_seed(math.e, 1.0).rhs - 0.0010745067213364733351) < 1e-16
    assert abs(verify_seed(0.7, 2.0).rhs - 0.0041990293686598214479) < 1e-16


def test_seed_rhs_inversion_ratio():
    # RHS(1/a) = a^4 RHS(a) for real a, so RHS(2,t)/RHS(0.5,t) = 1/16
    for t in (0.3, 1.0, 1.7):
        ratio = verify_seed(2.0, t).rhs / verify_seed(0.5, t).rhs
        assert abs(ratio - 1.0 / 16.0) < 1e-14


def test_seed_rhs_rejects_bad_arguments():
    with pytest.raises(DomainError):
        verify_seed(1.0, 0.0)
    with pytest.raises(DomainError):
        verify_seed(1.0, -1.0)
    with pytest.raises(DomainError):
        verify_seed(1j, 1.0)  # a(1+a^2) = 0


def test_seed_lhs_matches_rhs():
    for a, t in ((1.0, 1.0), (0.7, 2.0), (3.0, 0.5)):
        rep = run_case("kernel", {"a": a, "t": t})
        assert rep.diagnostics.converged
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * abs(rep.rhs), (a, t)


def test_seed_lhs_requires_real_positive_a():
    with pytest.raises(DomainError):
        verify_seed(1 + 2j, 1.0)
    with pytest.raises(DomainError):
        verify_seed(1.0, -2.0)


@pytest.mark.parametrize("a,t", [
    (0.3, 0.2), (0.3, 2.0), (3.0, 0.2), (3.0, 2.0), (1.0, 1.0), (0.7, 2.0), (1.65, 1.1),
])
def test_seed_lhs_matches_the_direct_seed_integrand(a, t):
    # the seed integrand as printed, integrated on its own half-line run
    kp = KernelParams(a)

    def f(x):
        return math.exp(-t * x * x) * math.cos(t * math.pi * x) * kernel_weight(kp, x)

    oracle = integrate_half_line(f)
    assert oracle.converged
    lhs = verify_seed(a, t).diagnostics
    combined = lhs.error_estimate + oracle.error_estimate + 1e-14
    assert abs(lhs.value - oracle.value) <= combined


def test_verify_seed_report():
    rep = verify_seed(1.0, 1.0, tolerance=1e-9)
    assert rep.passed
    assert rep.case_name == "kernel"
    assert rep.abs_diff == abs(rep.lhs - rep.rhs)
    assert rep.rel_diff == rep.abs_diff / max(abs(rep.rhs), REL_DIFF_FLOOR)
    assert not rep.experimental


# ---------------------------------------------------------------------------
# master identity
# ---------------------------------------------------------------------------

def test_master_rhs_constant_transform():
    F = TransformFunction(lambda k: 1.0, schwarz_symmetric=True)
    assert abs(master_rhs(F, KernelParams(1.0)) - math.pi / 4.0) < 1e-15


def test_master_rhs_rational_transform():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    # twice the half-line value 0.16389139518185587498
    assert abs(master_rhs(F, KernelParams(0.7)) - 0.32778279036371174996) < 1e-15


def test_master_rhs_cosine_transform_complex_a():
    # full-line normalization: twice the half-line closed form at the same
    # parameters, mpmath value at 40 digits
    F = TransformFunction(lambda k: cmath.cos(0.1 * k), schwarz_symmetric=True)
    expected = -0.15674068050524915783 + 0.0052842858141707488243j
    assert abs(master_rhs(F, KernelParams(1 + 2j)) - expected) < 1e-15


def test_master_rhs_past_double_range_in_pi_F_alone_is_a_domain_error():
    # pi F(k0) overflows, though the closed form, about 1.178e308 (1+i),
    # would not: the closed form is refused, not rescued
    F = TransformFunction(lambda k: complex(1.5e308, 1.5e308))
    with pytest.raises(DomainError, match="must be a finite number"):
        master_rhs(F, KernelParams(1.0))
    # wherever pi F(k0) / (2 a (1 + a^2)) is finite, its bits stand
    forms = [(TransformFunction(lambda k: cmath.exp(-k)), KernelParams(1.0))]
    for case in list_cases():
        clean = {name: rule(name, default) for name, (default, rule) in case.params.items()}
        kp = KernelParams(clean["a"] if case.kernel_a is None else case.kernel_a)
        forms.append((TransformFunction(case.transform(clean)), kp))
    for F, kp in forms:
        a = kp.a
        ln_a = cmath.log(a)
        k0 = math.pi * math.pi / 4.0 + ln_a * ln_a
        expected = math.pi * F(k0) / (2.0 * (a * (1.0 + a * a)))
        value = master_rhs(F, kp)
        assert (value.real.hex(), value.imag.hex()) == (
            expected.real.hex(), expected.imag.hex()), kp


def test_master_lhs_rational():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    r = master_lhs(F, KernelParams(0.7))
    assert r.converged
    assert abs(r.value - 0.32778279036371174996) < 1e-10


def test_master_lhs_gaussian_transform():
    F = TransformFunction(lambda k: cmath.exp(-0.3 * k * k), schwarz_symmetric=True)
    r = master_lhs(F, KernelParams(0.3))
    # twice the half-line value 0.024076419758804602045
    assert abs(r.value - 0.04815283951760920409) < 5e-11


def test_master_lhs_schwarz_implies_real():
    F = TransformFunction(lambda k: 1.0 / (k + 1.5), schwarz_symmetric=True)
    r = master_lhs(F, KernelParams(0.9))
    assert abs(r.value.imag) <= r.error_estimate


def test_master_lhs_divergence_for_growing_transform():
    F = TransformFunction(lambda k: cmath.exp(k), schwarz_symmetric=True)
    with pytest.raises(DivergenceError):
        master_lhs(F, KernelParams(1.0))


def test_master_lhs_nonconvergence_raises():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    opts = QuadratureOptions(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
    with pytest.raises(NonConvergenceError) as err:
        master_lhs(F, KernelParams(0.7), opts)
    assert err.value.result is not None


def test_verify_master_simple_pole_at_a_one():
    # F(k) = 1/(k+1) at a=1: both sides equal pi/(4 + pi^2)
    F = TransformFunction(lambda k: 1.0 / (k + 1.0), schwarz_symmetric=True)
    rep = verify_master(F, KernelParams(1.0))
    expected = math.pi / (4.0 + math.pi * math.pi)
    assert rep.passed
    assert abs(rep.rhs - expected) < 1e-15
    assert abs(rep.lhs - expected) <= 1e-10
    assert not rep.experimental


def test_verify_master_rational_family():
    for b in (0.5, 1.0, 2.0, 5.0):
        for a in (0.3, 0.7, 1.0, 2.0, 5.0):
            F = TransformFunction(lambda k, b=b: 1.0 / (k + b), schwarz_symmetric=True)
            rep = verify_master(F, KernelParams(a), tolerance=1e-8)
            assert rep.passed, (a, b, rep.rel_diff)


def test_verify_master_divergence_means_no_report():
    F = TransformFunction(lambda k: cmath.exp(k), schwarz_symmetric=True)
    with pytest.raises(DivergenceError):
        verify_master(F, KernelParams(1.0))


def test_verify_master_experimental_flags():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    assert not verify_master(F, KernelParams(0.7)).experimental
    assert verify_master(F, KernelParams(1 + 2j)).experimental
    F2 = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=False)
    assert verify_master(F2, KernelParams(0.7)).experimental


def test_verify_master_at_a_plus_minus_i_is_a_domain_error():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    for a in (1j, -1j):
        with pytest.raises(DomainError):
            verify_master(F, KernelParams(a))


def test_verify_master_at_imaginary_a_is_a_domain_error_before_any_call():
    # Re a = 0 puts a kernel pole on the real axis, at x = +/- ln|a|
    def fn(k):
        raise AssertionError(f"F called at {k!r}")

    with pytest.raises(DomainError, match="Re a = 0"):
        verify_master(TransformFunction(fn, schwarz_symmetric=True), KernelParams(0.5j))


def test_false_schwarz_flag_fails_the_verification():
    # the flag selects the 2 Re F(k) fold, which is wrong for this F
    fn = lambda k: 1.0 / (k + 2.0 + 1j)  # noqa: E731
    assert not detect_schwarz_symmetry(fn)
    wrong = verify_master(TransformFunction(fn, schwarz_symmetric=True), KernelParams(0.7))
    assert not wrong.passed
    assert wrong.lhs.imag == 0.0
    right = verify_master(TransformFunction(fn, schwarz_symmetric=False), KernelParams(0.7))
    assert right.passed
    assert right.experimental


def test_master_lhs_inversion_covariance():
    # K_{1/a} = a^4 K_a, so the integral side moves with it
    F = TransformFunction(lambda k: 1.0 / (k + 1.0), schwarz_symmetric=True)
    for a in (0.3, 0.7, 1.0, 2.0, 5.0):
        lhs_inv = master_lhs(F, KernelParams(1.0 / a)).value
        lhs = master_lhs(F, KernelParams(a)).value
        assert abs(lhs_inv - a**4 * lhs) < 1e-8 * abs(lhs_inv), a


def test_master_rhs_inversion_covariance():
    F = TransformFunction(lambda k: 1.0 / (k + 3.0), schwarz_symmetric=True)
    for a in (0.3, 0.8, 2.5):
        lhs = master_rhs(F, KernelParams(1.0 / a))
        rhs = a**4 * master_rhs(F, KernelParams(a))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_detect_schwarz_symmetry():
    assert detect_schwarz_symmetry(lambda k: 1.0 / (k + 2.0))
    assert detect_schwarz_symmetry(lambda k: cmath.exp(-0.3 * k * k))
    assert not detect_schwarz_symmetry(lambda k: k + 1j)
    assert not detect_schwarz_symmetry(lambda k: cmath.exp(1j * k))

    def broken(k):
        raise ValueError("nope")

    assert not detect_schwarz_symmetry(broken)


def test_symmetry_probe_sees_an_asymmetry_of_2e_10():
    # F(conj k) - conj F(k) = 2e-10i at every sample, above the probe's
    # relative tolerance of 1e-12
    assert not detect_schwarz_symmetry(lambda k: k + 1e-10j)


def test_symmetry_probe_reaches_past_its_first_eight_samples():
    # F is asymmetric only where Re k > 2.9: samples 8 and 21 get there,
    # none of samples 0 to 7 does
    assert not detect_schwarz_symmetry(lambda k: 1.0 / (k + 2.0) + (1e-3j if k.real > 2.9 else 0))


def test_sample_whose_modulus_overflows_is_skipped_by_the_symmetry_probe():
    # both parts of F are finite and |F| is not: no sample is usable
    assert not detect_schwarz_symmetry(lambda k: complex(1.5e308, 1.5e308))


def test_closed_form_whose_modulus_overflows_is_a_domain_error():
    # the false flag gets the real part right and misses the imaginary one,
    # and the left side converges; |rhs| is about 2.2e308, beyond double
    # range, so the run is refused, not compared as |lhs - rhs| / inf = 0
    F = TransformFunction(lambda k: 1e307 * (1 + 1j), schwarz_symmetric=True)
    with pytest.raises(DomainError, match="modulus is beyond double range"):
        verify_master(F, KernelParams(0.1))


def test_closed_form_with_finite_parts_and_an_infinite_modulus_is_a_domain_error():
    # pi F(k0) / (2a(1 + a^2)) is about 1.555e308 (1+i): both parts are
    # finite and its modulus is not
    F = TransformFunction(lambda k: 1e307 * (1 + 1j))
    with pytest.raises(DomainError, match="modulus is beyond double range"):
        master_rhs(F, KernelParams(0.1))
    # in range at a = 0.2, where 2a(1 + a^2) is twice as large
    assert cmath.isfinite(master_rhs(F, KernelParams(0.2)))


def test_scaled_closed_form_whose_modulus_overflows_is_a_domain_error():
    # |rhs| is about 1.76e308, in range; 4/pi times it is not.  The false
    # flag drops the imaginary part, so the left side converges, and a
    # report would pass on |lhs - rhs| / inf = 0
    F = TransformFunction(lambda k: 0.8e307 * (1 + 1j), schwarz_symmetric=True)
    params = KernelParams(0.1)
    assert kernel.modulus(master_rhs(F, params)) < math.inf
    with pytest.raises(DomainError, match="modulus is beyond double range"):
        kernel._verify("scaled", {}, F, params, None, 1e-8, scale=4.0 / math.pi)


def test_master_rhs_takes_the_scale_that_master_integral_takes():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    params = KernelParams(0.7)
    for scale in (0.5, 4.0 / math.pi, -3.0):
        assert master_rhs(F, params, scale) == scale * master_rhs(F, params)
    for scale in (math.nan, math.inf, "2", 1j):
        with pytest.raises(DomainError, match="scale must be a finite number"):
            master_rhs(F, params, scale)


def test_closed_form_beyond_range_unscaled_and_in_range_scaled_is_accepted():
    # the range is checked once, on the scaled value: |rhs| is about
    # 2.1e308 at scale 1 and half that at scale 1/2
    F = TransformFunction(lambda k: 1.5e308 * 0.202 / math.pi * (1 + 1j))
    params = KernelParams(0.1)
    with pytest.raises(DomainError, match="modulus is beyond double range"):
        master_rhs(F, params)
    assert kernel.modulus(master_rhs(F, params, 0.5)) < math.inf


def test_roundoff_message_of_a_value_whose_modulus_overflows():
    result = QuadratureResult(
        complex(1.5e308, 1.5e308), 1e300, 15, 0.0, False, 1e308, roundoff_limited=True
    )
    with pytest.raises(RoundoffError, match="limited by roundoff"):
        require_converged(result, "integral")


def test_transform_function_schwarz_invariant_holds_when_flagged():
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    rng = random.Random(8)
    for _ in range(100):
        k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = F(k.conjugate())
        rhs = F(k).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _report(lhs, rhs, tolerance=1e-8):
    """A report whose left side is the value of a synthetic quadrature result."""
    diag = QuadratureResult(lhs, 1e-15, 15, 10.0, True)
    return VerificationReport("synthetic", {}, rhs, tolerance, diag)


def test_report_pass_uses_or_of_relative_and_absolute():
    # rhs exactly zero: relative diff saturates, absolute criterion decides
    rep = _report(1e-12 + 0j, 0j)
    assert rep.lhs == 1e-12 + 0j
    assert rep.passed
    assert rep.rel_diff > 1.0
    assert rep.abs_diff == 1e-12
    rep2 = _report(1.0 + 0j, 0j)
    assert not rep2.passed
    assert (rep2.abs_diff, rep2.rel_diff) == (1.0, 1.0 / REL_DIFF_FLOOR)


def test_report_past_double_range_is_refused_at_the_closed_form():
    # a closed form of 1.5e308 (1+i), whose modulus is beyond double range,
    # never reaches a report, where rel_diff would divide by inf: it is
    # refused at the closed form.  At a = 0.1, 2a(1 + a^2) = 0.202.
    F = TransformFunction(lambda k: 1.5e308 * 0.202 / math.pi * (1 + 1j))
    with pytest.raises(DomainError, match="modulus is beyond double range"):
        master_rhs(F, KernelParams(0.1))
    # rel_diff is one formula, abs_diff / max(|rhs|, REL_DIFF_FLOOR)
    for lhs, rhs in ((1.5e8 * (1 + 1e-10) + 1.5e8j, 1.5e8 * (1 + 1j)), (1.0 + 0j, 1e-310 + 0j)):
        rep = _report(lhs, rhs)
        assert rep.rel_diff == rep.abs_diff / max(abs(rhs), REL_DIFF_FLOOR)


@pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1.0, math.inf, "x", "1e-8", None, 1e-8j])
def test_meaningless_verification_tolerance_is_a_domain_error(tolerance):
    # nan, 0 and -1 would fail every comparison, inf would pass it
    # unchecked, and a value that is not a real number cannot be compared
    F = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
    with pytest.raises(DomainError, match="tolerance"):
        verify_master(F, KernelParams(0.7), tolerance=tolerance)
    with pytest.raises(DomainError, match="tolerance"):
        verify_seed(1.0, 1.0, tolerance=tolerance)
    with pytest.raises(DomainError, match="tolerance"):
        run_case("rational", tolerance=tolerance)



def test_pole_of_F_at_the_closed_form_point_is_a_domain_error():
    # F has its pole at k0 = pi^2/4, the closed form's point at a = 1; the
    # contour never reaches it, so only the closed form divides by zero
    F = TransformFunction(lambda k: 1 / (k - math.pi**2 / 4), schwarz_symmetric=True)
    with pytest.raises(DomainError, match="closed form"):
        verify_master(F, KernelParams(1.0))


# --- the node table ---------------------------------------------------------

_I_PI = complex(0.0, math.pi)
_RATIONAL = TransformFunction(lambda k: 1.0 / (k + 2.0), schwarz_symmetric=True)
_COSINE_PAIR = (0.5, 0.2)

_NON_SCHWARZ = TransformFunction(lambda k: 1.0 / (k + 2.0 + 0.5j))

#: One run per contour master_integral takes: (F, a, scale, contour).
#: The lines and the rays read kernel_weight's terms from the node table;
#: the axis, the line at depth 0, computes them.
_CONTOURS = {
    "real-a-line": (_RATIONAL, 0.7, 1.0, _LINE_SHIFT),
    "complex-a-line": (_RATIONAL, 1 + 0.1j, 1.0, _LINE_SHIFT),
    "capped-complex-a-line": (_RATIONAL, 1 + 2j, 1.0, _LINE_SHIFT),
    "schwarz-axis": (_RATIONAL, 0.7, 0.5, 0.0),
    # the scale is applied after the product with the kernel
    "scaled-schwarz-axis": (_RATIONAL, 0.7, 4.0 / math.pi, 0.0),
    # cosine below the ray band at the row's a: F K(x) + conj F K(conj x)
    "complex-a-axis": (TransformFunction(lambda k: cmath.cos(0.04 * k), schwarz_symmetric=True),
                       1 + 2j, 0.5, (0.5, 0.04)),
    # F without the Schwarz flag: F(k) K(x) + F(conj k) K(conj x), on the
    # axis at depth 0 and on the line at a positive depth
    "non-schwarz-axis": (_NON_SCHWARZ, 0.7, 1.0, 0.0),
    "non-schwarz-line": (_NON_SCHWARZ, 0.7, 1.0, _LINE_SHIFT),
    "rays": (TransformFunction(lambda k: cmath.cos(0.2 * k), schwarz_symmetric=True), 1.0, 1.0,
             _COSINE_PAIR),
}


def _contour_run(name):
    F, a, scale, contour = _CONTOURS[name]
    return master_integral(F, KernelParams(a), None, scale, contour)


def _bisection_heavy_runs():
    """Runs that spend the whole subdivision budget, each on more distinct
    nodes than the table's cap: a sawtooth F on the real axis and the line."""
    saw = TransformFunction(lambda k: (7.0 * k.real) % 1.0, schwarz_symmetric=True)
    return [master_integral(saw, KernelParams(0.7), None, 1.0, depth) for depth in (0.0, 0.8)]


def _top_up_to_the_cap():
    """Fresh nodes past every contour's end until the table holds its cap:
    the next new node clears it."""
    kp = KernelParams(0.7)
    for node in range(1000, 1000 + _COMPLEX_TERMS_CAP - len(_COMPLEX_TERMS)):
        kernel_weight(kp, complex(node, 1.0))


def _clear_the_table():
    _COMPLEX_TERMS.clear()


def _bits(result):
    return (result.value.real.hex(), result.value.imag.hex(), result.error_estimate.hex(),
            result.evaluations, result.subdivisions, result.converged)


@pytest.mark.parametrize("name", sorted(_CONTOURS))
def test_a_run_does_not_depend_on_what_the_node_tables_hold(name):
    _clear_the_table()
    cold = _bits(_contour_run(name))
    warm = _bits(_contour_run(name))
    _bisection_heavy_runs()
    _top_up_to_the_cap()
    assert len(_COMPLEX_TERMS) == _COMPLEX_TERMS_CAP
    full = _bits(_contour_run(name))
    assert cold == warm == full


def _kernel_form(kp, x):
    """kernel_weight's formula written out at x, with no table."""
    u = cmath.exp(x if x.real < 0.0 else -x) if isinstance(x, complex) else math.exp(-abs(x))
    a2, u2 = kp._a2, u * u
    return 0.5 * (u + u * u2) / ((1.0 + a2 * u2) * (a2 + u2))


def _written_out_form(name):
    """Each contour's integrand written out at every node, with no table."""
    F, a, scale, contour = _CONTOURS[name]
    kp, fn, schwarz = KernelParams(a), F.fn, F.schwarz_symmetric
    pair = contour if isinstance(contour, tuple) else None
    c = 0.0 if pair else min(contour, 0.75 * (0.5 * math.pi - abs(cmath.phase(kp.a))))

    def line(y):
        x = complex(y, -c) if c else y
        k = x * (x + _I_PI)
        g = fn(k)
        if schwarz and isinstance(kp._a2, float):
            return 2.0 * scale * (g * _kernel_form(kp, x)).real
        h = g.conjugate() if schwarz else fn(k.conjugate())
        return scale * (g * _kernel_form(kp, x) + h * _kernel_form(kp, x.conjugate()))

    if not (pair and schwarz and 0.05 <= pair[1] < 1 / math.pi):
        return line
    coeff, beta = pair

    def rays(s):
        if s < 8.0:
            return line(s)
        x = complex(8.0, s - 8.0)
        k, k_neg = x * (x + _I_PI), x * (x - _I_PI)
        t = scale * coeff * (cmath.exp(1j * beta * k) + cmath.exp(1j * beta * k_neg))
        return 1j * (t * _kernel_form(kp, x) - t.conjugate() * _kernel_form(kp, x.conjugate()))

    return rays


def _spy_nodes(monkeypatch):
    """Record each node the next master_integral evaluates, with its value."""
    seen = []

    def spy(f, opts=None, peak=0.0):
        def record(x):
            value = f(x)
            seen.append((x, value))
            return value

        return integrate_half_line(record, opts, peak)

    monkeypatch.setattr(kernel, "integrate_half_line", spy)
    return seen


def _spy_weight(monkeypatch):
    """Record the x of every kernel_weight call the next run makes."""
    calls = []
    weight = kernel.kernel_weight
    monkeypatch.setattr(kernel, "kernel_weight", lambda kp, x: calls.append(x) or weight(kp, x))
    return calls


@pytest.mark.parametrize("name", sorted(_CONTOURS))
def test_the_tabled_integrand_is_the_written_out_form_bit_for_bit(name, monkeypatch):
    seen = _spy_nodes(monkeypatch)
    result = _contour_run(name)
    assert len(seen) == result.evaluations
    reference = _written_out_form(name)
    for x, value in seen:
        expected = reference(x)
        assert (value.real.hex(), value.imag.hex()) == (
            complex(expected).real.hex(), complex(expected).imag.hex()), x


@pytest.mark.parametrize("name", sorted(_CONTOURS))
def test_a_wrapper_on_kernel_weight_sees_every_node(name, monkeypatch):
    calls = _spy_weight(monkeypatch)
    seen = _spy_nodes(monkeypatch)
    _contour_run(name)
    # one kernel factor per node, two where the fold is not 2 Re F(k) K(x)
    # off the axis: on it x is conj x
    twice = name in ("complex-a-line", "capped-complex-a-line", "non-schwarz-line")
    factors = [2 if twice or name == "rays" and s >= 8.0 else 1 for s, _ in seen]
    assert len(calls) == sum(factors)


def test_kernel_weight_does_not_depend_on_what_its_tables_hold():
    rng = random.Random(9)
    xs = [rng.uniform(-40.0, 40.0) for _ in range(200)] + [0.0, -0.0, 800.0]
    xs += [complex(rng.uniform(-40.0, 40.0), rng.uniform(-1.0, 1.0)) for _ in range(200)]
    # a complex node on the real axis keeps the sign of its zero imaginary part
    xs += [complex(1.5, 0.0), complex(1.5, -0.0), complex(-1.5, -0.0), complex(-1.5, 0.0)]
    params = [KernelParams(a) for a in (0.7, 3.0, 1 + 1j, 0.5j)]

    def key(value):
        return type(value), complex(value).real.hex(), complex(value).imag.hex()

    def bits():
        return [key(kernel_weight(kp, x)) for kp in params for x in xs]

    expected = [key(_kernel_form(kp, x)) for kp in params for x in xs]
    _clear_the_table()
    assert bits() == expected  # cold
    assert bits() == expected  # warm
    _top_up_to_the_cap()
    assert bits() == expected  # the table cleared once on the way


def test_kernel_weight_at_float_x_leaves_the_table_untouched():
    _clear_the_table()
    for a in (0.7, 3.0, 1 + 1j, 0.5j):
        for x in (0.0, -0.0, 0.3, -4.0, 30.0, 800.0):
            kernel_weight(KernelParams(a), x)
    for name in ("schwarz-axis", "scaled-schwarz-axis", "complex-a-axis", "non-schwarz-axis"):
        _contour_run(name)
    assert _COMPLEX_TERMS == {}


def _opening_nodes():
    """The nodes of the half-line's opening partition, as the rule computes them."""
    from quadcheck.quadrature import _XGK, _first_window
    edges = _first_window(0.0)
    nodes = []
    for lo, hi in zip(edges, edges[1:]):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes += [c] + [c - h * x for x in _XGK[:7]] + [c + h * x for x in _XGK[:7]]
    return nodes


def test_the_node_table_stays_within_its_cap_and_takes_new_runs():
    _clear_the_table()
    for result in _bisection_heavy_runs():
        assert result.subdivisions == 2000 and result.evaluations > 10 * _COMPLEX_TERMS_CAP
    assert len(_COMPLEX_TERMS) <= _COMPLEX_TERMS_CAP
    _top_up_to_the_cap()
    run_case("gaussian")  # on its own line, at depth 1.0
    assert {complex(y, -1.0) for y in _opening_nodes()} <= set(_COMPLEX_TERMS)
    kept = dict(_COMPLEX_TERMS)
    run_case("gaussian")
    assert _COMPLEX_TERMS == kept  # the repeat finds the terms of every node it meets


# --- each row's contour: the ray band and the line depth --------------------

@pytest.mark.parametrize("alpha,on_rays", [
    (0.05, True), (-0.05, True), (0.1, True), (0.049, False), (-0.049, False),
])
def test_cosine_takes_the_rays_from_the_lower_edge_of_the_band(alpha, on_rays, monkeypatch):
    calls = _spy_weight(monkeypatch)
    rep = run_case("cosine", {"alpha": alpha, "a": 1.0})
    assert rep.passed
    evaluations = rep.diagnostics.evaluations
    # a ray node takes K at x and at conj x; an axis node takes K once
    if on_rays:
        assert len(calls) > evaluations
        assert any(isinstance(x, complex) and x.real == 8.0 for x in calls)
    else:
        assert len(calls) == evaluations
        assert all(isinstance(x, float) for x in calls)


@pytest.mark.parametrize("name,depth", [
    ("gaussian", 1.0), ("gamma", 1.0), ("zeta", 1.0),
    ("rational", 0.8), ("bessel", 0.8), ("seed", 0.8),
])
def test_each_row_takes_its_line_at_its_depth(name, depth, monkeypatch):
    calls = _spy_weight(monkeypatch)
    rep = verify_seed(1.0, 1.0) if name == "seed" else run_case(name)
    assert rep.passed
    assert len(calls) == rep.diagnostics.evaluations
    assert {x.imag for x in calls} == {-depth}


def test_the_row_depth_keeps_its_cap_below_the_kernel_poles(monkeypatch):
    calls = _spy_weight(monkeypatch)
    a = 1 + 2j
    cap = 0.75 * (0.5 * math.pi - cmath.phase(a))
    assert cap == pytest.approx(0.348, abs=5e-4)
    rep = run_case("gaussian", {"a": a})
    assert rep.passed
    # complex a^2: K is taken at x and at conj x
    assert len(calls) == 2 * rep.diagnostics.evaluations
    assert {x.imag for x in calls} == {-cap, cap}


def test_a_terms_contour_never_takes_the_line():
    # past the ray band F's pair keeps the axis, where cos(0.35 k) grows
    # like exp((0.35 pi - 1) x); no depth can come with it
    F = TransformFunction(lambda k: cmath.cos(0.35 * k), schwarz_symmetric=True)
    with pytest.raises(DivergenceError):
        master_integral(F, KernelParams(1.0), contour=(0.5, 0.35))


@pytest.mark.parametrize("a", [1.0, 0.7, 1 + 2j])
def test_an_unflagged_F_with_a_pair_takes_the_axis_bit_for_bit(a):
    # 0.5 e^{0.2ik} is not the Schwarz sum of the pair (0.5, 0.2), and F
    # vouches for no symmetry, so the pair cannot stand for F on the rays
    F = TransformFunction(lambda k: 0.5 * cmath.exp(0.2j * k))
    kp = KernelParams(a)
    assert _bits(master_integral(F, kp, contour=(0.5, 0.2))) == _bits(
        master_integral(F, kp, contour=0.0))


# --- _route: the one decision of a run's contour ----------------------------

_FLAGGED = TransformFunction(lambda k: cmath.cos(0.1 * k), schwarz_symmetric=True)
_UNFLAGGED = TransformFunction(lambda k: cmath.cos(0.1 * k))


_L_07 = -math.log(0.7)  # the kernel's peak |ln|a|| at a = 0.7 and -0.7
_L_12I = 0.8047189562170503  # and at a = 1 + 2i: ln sqrt 5


@pytest.mark.parametrize("F, a, contour, route", [
    (_FLAGGED, 0.7, 0.8, (0.8, None, _L_07)),
    # the cap, 3/4 of the way to the pole at Im x = arg a - pi/2, about 0.34774
    (_FLAGGED, 1 + 2j, 1.0, (0.75 * (0.5 * math.pi - cmath.phase(1 + 2j)), None, _L_12I)),
    # the cap reads -a: at a = -0.7 the pole is as far as at 0.7
    (_FLAGGED, -0.7, 0.8, (0.8, None, _L_07)),
    # every a takes the same rules: far out in a only the peak moves
    (_FLAGGED, 1e-3, 0.8, (0.8, None, -math.log(1e-3))),
    (_FLAGGED, 1e77, 0.8, (0.8, None, math.log(1e77))),
    (_FLAGGED, 1 + 2j, (0.5, 0.1), (0.0, (0.5, 0.1), _L_12I)),
    # the ray band [0.05, 1/pi) is closed below and open above
    (_FLAGGED, 1 + 2j, (0.5, 0.05), (0.0, (0.5, 0.05), _L_12I)),
    (_FLAGGED, 1 + 2j, (0.5, 0.049), (0.0, None, _L_12I)),
    (_FLAGGED, 1 + 2j, (0.5, 1.0 / math.pi), (0.0, None, _L_12I)),
    # only a Schwarz F takes the rays
    (_UNFLAGGED, 1 + 2j, (0.5, 0.1), (0.0, None, _L_12I)),
    (_FLAGGED, 0.7, -0.0, (0.0, None, _L_07)),
    # the argument of a underflows: cmath.phase would raise OverflowError
    (_FLAGGED, 2 + 5e-324j, 0.8, (0.8, None, math.log(2.0))),
    (_FLAGGED, -2 - 5e-324j, 0.8, (0.8, None, math.log(2.0))),
    # the ray bound: at beta = 0.3, beta pi ln(1/|a|) reaches 52 ln 2 at a = 2.46e-17
    (_FLAGGED, 1e-16, (0.5, 0.3), (0.0, (0.5, 0.3), -math.log(1e-16))),
    (_FLAGGED, 1e-65, (0.5, 0.049), (0.0, None, -math.log(1e-65))),
    (_FLAGGED, 1e65, (0.5, 0.3), (0.0, (0.5, 0.3), math.log(1e65))),
], ids=["line", "capped", "negative-a", "small-a-line", "large-a-line", "rays",
        "band-low-edge", "below-band", "band-high-edge", "unflagged-pair", "negative-zero-axis",
        "subnormal-arg", "subnormal-arg-negative", "rays-within-bound", "axis-past-bound",
        "large-a-rays"])
def test_route_decides_the_contour(F, a, contour, route):
    got = _route(F, KernelParams(a), contour)
    assert got == route
    assert math.copysign(1.0, got[0]) == 1.0  # -0.0 comes back as the axis, 0.0


_CONTOUR_MESSAGE = "contour must be a finite depth >= 0 or one pair (c, real beta >= 0), got "


@pytest.mark.parametrize("a, contour, message", [
    (0.7, -0.1, _CONTOUR_MESSAGE + "-0.1"),
    (0.7, math.nan, _CONTOUR_MESSAGE + "nan"),
    (0.7, "0.8", _CONTOUR_MESSAGE + "'0.8'"),
    (0.7, (0.5,), _CONTOUR_MESSAGE + "(0.5,)"),
    (0.7, (0.5, 0.1, 1), _CONTOUR_MESSAGE + "(0.5, 0.1, 1)"),
    (0.7, (0.5, -0.1), _CONTOUR_MESSAGE + "(0.5, -0.1)"),
    (1j, 0.8, "a (1 + a^2) vanishes; identity undefined at a = +/- i"),
    (2j, 0.8, "Re a = 0 puts a kernel pole on the real axis: a = 2j"),
    (1e-39, (0.5, 0.3), "the rays' head cancels past double precision at (0.5, 0.3), "
                        "a = (1e-39+0j): beta pi ln(1/|a|) > 52 ln 2"),
], ids=["negative", "nan", "text", "short-tuple", "long-tuple", "negative-beta", "a-is-i",
        "imaginary-a", "ray-cancellation"])
def test_route_refuses_with_its_message(a, contour, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _route(_FLAGGED, KernelParams(a), contour)
