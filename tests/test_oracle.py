"""Every catalog case against an independent oracle: ``mpmath.quad`` of the
same folded half-line integrand, with F built from mpmath's own special
functions, so neither the package's quadrature nor its gamma and zeta
enter the reference value.
"""

import cmath
import math

import mpmath as mp
import pytest

from quadcheck import (
    KernelParams, RoundoffError, TransformFunction, run_case, verify_master, verify_seed,
)
from quadcheck.catalog import get_case
from quadcheck.kernel import master_integral

_DPS = 20
_REL = 1e-9
# mpmath.quad's sub-intervals: geometric towards 0, where the rational case
# with small b has a peak of width about b / pi, and out to 128, where the
# slowest decay here (cosine at alpha = 0.2, like exp(-0.37 y)) leaves a
# tail below 1e-20.  Past alpha of about 0.25 the cosine integrand decays
# too slowly for a real-axis oracle to converge; those points are checked
# on the steepest-descent rays instead (``_ray_oracle``).
_BREAKS = [0, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2, 4, 8, 16, 32, 64, 128]


def _rational(p):
    return lambda k: 1 / (k + p["b"])


def _bessel(p):
    return lambda k: 1 / mp.sqrt(1 + k * k)


def _gaussian(p):
    return lambda k: mp.exp(-p["b"] * k * k)


def _cosine(p):
    return lambda k: mp.cos(p["alpha"] * k)


def _gamma(p):
    c = 4 * mp.mpf(p["a"]) / mp.pi**2
    return lambda k: mp.rgamma(c * k + p["b"])


def _zeta(p):
    n, x, a = p["n"], mp.mpf(p["x"]), mp.mpf(p["a"])

    def F(k):
        u = k / mp.pi**2
        return mp.power(x, u) / (2 * mp.pi * mp.zeta(4 * a * u) ** n)

    return F


def _seed(p):
    return lambda k: mp.exp(-p["t"] * k)


_TRANSFORMS = {
    "rational": _rational,
    "bessel": _bessel,
    "gaussian": _gaussian,
    "cosine": _cosine,
    "gamma": _gamma,
    "zeta": _zeta,
    "seed": _seed,
}


def _oracle(case_id, params):
    """scale * integral over [0, inf) of 2 Re F(y^2 + i pi y) K(y), K the kernel."""
    if case_id == "seed":
        scale, kernel_a = 0.5, params["a"]
    else:
        case = get_case(case_id)
        scale = case.scale
        kernel_a = params["a"] if case.kernel_a is None else case.kernel_a
    with mp.workdps(_DPS):
        F = _TRANSFORMS[case_id](params)
        a2 = mp.mpc(kernel_a) ** 2

        def f(y):
            K = mp.cosh(y) / (1 + 2 * a2 * mp.cosh(2 * y) + a2 * a2)
            return 2 * scale * mp.re(F(mp.mpc(y * y, mp.pi * y))) * K

        return complex(mp.quad(f, _BREAKS))


_GRID = [
    ("rational", {"a": 0.7, "b": 2.0}),
    ("rational", {"a": 0.2, "b": 1e-3}),
    ("rational", {"a": 5.0, "b": 10.0}),
    ("bessel", {"a": 0.2}),
    ("bessel", {"a": 0.7}),
    ("bessel", {"a": 10.0}),
    ("gaussian", {"a": 0.3, "b": 0.05}),
    ("gaussian", {"a": 1.0, "b": 0.3}),
    ("gaussian", {"a": 2.5, "b": 0.2}),
    ("cosine", {"alpha": 0.0, "a": 0.5}),
    ("cosine", {"alpha": 0.1, "a": 1 + 2j}),
    ("cosine", {"alpha": 0.2, "a": 3.0}),
    ("gamma", {"a": 0.5, "b": 1.0}),
    ("gamma", {"a": 2.0, "b": 0.5}),
    ("gamma", {"a": 5.0, "b": -1.5}),
    ("zeta", {"n": 1, "x": 0.5, "a": 2.0}),
    ("zeta", {"n": 4, "x": 0.9, "a": 0.3}),
    ("zeta", {"n": 2, "x": 0.1, "a": 50.0}),
    ("seed", {"a": 0.3, "t": 2.0}),
    ("seed", {"a": 3.0, "t": 0.2}),
]


@pytest.mark.parametrize("case_id,params", _GRID)
def test_lhs_matches_mpmath_quad_of_the_folded_integrand(case_id, params):
    if case_id == "seed":
        rep = verify_seed(params["a"], params["t"])
    else:
        rep = run_case(case_id, params)
    expected = _oracle(case_id, params)
    assert abs(rep.lhs - expected) <= _REL * abs(expected), (rep.lhs, expected)


# --- the general fold, for F without the Schwarz symmetry -------------------
#
# The catalog's rows are all Schwarz-symmetric.  An F that is not folds as
# F(k) K(x) + F(conj k) K(conj x) on the axis and on the line at depth 0.8,
# so the oracle here is the unfolded full-line integral of
# F(x^2 + i pi x) K(x) on the real axis.


@pytest.mark.parametrize("a", [0.7, 1 + 0.5j, 3 - 1j])
def test_the_general_fold_matches_mpmath_quad_of_the_full_line(a):
    F = TransformFunction(lambda k: 1 / (k + 2) + 0.5j * cmath.exp(-k))
    rep = verify_master(F, KernelParams(a))
    assert rep.passed and rep.experimental
    line = master_integral(F, KernelParams(a), contour=0.8)
    assert line.converged
    with mp.workdps(_DPS):
        a2 = mp.mpc(a) ** 2

        def f(x):
            k = mp.mpc(x * x, mp.pi * x)
            K = mp.cosh(x) / (1 + 2 * a2 * mp.cosh(2 * x) + a2 * a2)
            return (1 / (k + 2) + 0.5j * mp.exp(-k)) * K

        expected = complex(mp.quad(f, [-b for b in reversed(_BREAKS)] + _BREAKS[1:]))
    miss = abs(rep.lhs - expected)
    assert miss <= rep.diagnostics.error_estimate, (rep.lhs, expected)
    assert miss <= _REL * abs(expected), (rep.lhs, expected)
    miss = abs(line.value - expected)
    assert miss <= line.error_estimate, (line.value, expected)
    assert miss <= _REL * abs(expected), (line.value, expected)


# --- cosine up to alpha pi < 1, on the steepest-descent rays ----------------


def _cosine_closed_form(alpha, a):
    with mp.workdps(_DPS):
        a = mp.mpc(a)
        s = mp.pi**2 / 4 + mp.log(a) ** 2
        return complex(mp.pi * mp.cos(alpha * s) / (4 * a * (1 + a * a)))


def _ray_oracle(alpha, a):
    """Half the master integral of cos(alpha k): 2 Re F K on [0, 8], then
    each term e^{+/-i alpha k} / 2 of F, folded over x and -x, on the ray
    8 + iy or 8 - iy along which it decays."""
    with mp.workdps(_DPS):
        alpha, a2 = mp.mpf(alpha), mp.mpc(a) ** 2

        def K(x):
            return mp.cosh(x) / (1 + 2 * a2 * mp.cosh(2 * x) + a2 * a2)

        def k(x):
            return x * x + 1j * mp.pi * x

        head = mp.quad(lambda x: 2 * mp.re(mp.cos(alpha * k(x))) * K(x), _BREAKS[:10])
        tail = 0
        for sign in (1, -1):
            up = sign * mp.sign(alpha)  # e^{i sign alpha k} decays towards i up inf

            def g(y):
                x = mp.mpc(8, up * y)
                e = mp.exp(1j * sign * alpha * k(x)) + mp.exp(1j * sign * alpha * k(-x))
                return e / 2 * K(x)

            tail += up * 1j * mp.quad(g, [0, 0.5, 1, 2, 4, 8, 16])
        return complex((head + tail) / 2)


@pytest.mark.parametrize("alpha", [0.25, 0.28, 0.3, 0.31, 0.318])
@pytest.mark.parametrize("a", [0.7, 1.0, 1 + 2j])
def test_cosine_up_to_alpha_pi_below_one_matches_the_closed_form_and_the_rays(alpha, a):
    rep = run_case("cosine", {"alpha": alpha, "a": a})
    assert rep.passed
    for expected in (_cosine_closed_form(alpha, a), _ray_oracle(alpha, a)):
        assert abs(rep.lhs - expected) <= _REL * abs(expected), (rep.lhs, expected)


@pytest.mark.parametrize("a", [math.exp(-6), 0.01, 0.5, 3.0, 400.0, math.exp(6), 1 + 2j,
                               3 - 1j, 0.02 - 0.02j])
def test_rotated_cosine_runs_meet_their_error_estimates(a):
    # every alpha that takes the rays, across the pole rule |ln|a|| <= 6
    for i in range(12):
        alpha = 0.1 + (1 / math.pi - 0.1) * (i + 0.5) / 12
        rep = run_case("cosine", {"alpha": alpha, "a": a})
        miss = abs(rep.lhs - _cosine_closed_form(alpha, a))
        assert miss <= rep.diagnostics.error_estimate + 1e-14, (alpha, rep.lhs)


@pytest.mark.parametrize("a", [math.exp(-10), 1e-12, math.exp(10), 1e12])
def test_rotated_cosine_far_out_in_a_meets_its_estimate_or_stops_on_roundoff(a):
    # from |ln|a|| = 4 on the rays start at |ln|a|| + 8; at small a their
    # axis head cancels by up to e^{|alpha| pi |ln a|}, and a run that
    # rounding limits says so
    for i in range(12):
        alpha = 0.1 + (1 / math.pi - 0.1) * (i + 0.5) / 12
        try:
            rep = run_case("cosine", {"alpha": alpha, "a": a})
        except RoundoffError:
            assert a < 1.0
            continue
        miss = abs(rep.lhs - _cosine_closed_form(alpha, a))
        assert miss <= rep.diagnostics.error_estimate, (alpha, rep.lhs)


def test_first_zeta_zero_ordinate_matches_mpmath():
    # the zeta case refuses n >= 1 at a >= gamma_1^2/2, where this zero is a pole of F
    from quadcheck.catalog import _ZETA_FIRST_ZERO

    with mp.workdps(30):
        gamma_1 = mp.zetazero(1).imag
        assert abs(_ZETA_FIRST_ZERO - gamma_1) <= 1e-15 * gamma_1


# --- the shifted line Im x = -0.8, against closed forms ---------------------
#
# Past b of about 0.35 the gaussian integrand on the real axis cancels from
# about exp(pi^4 b / 4) down to its value, beyond what a 20-digit mpmath.quad
# resolves, so these runs are checked against the closed form instead.


def _gaussian_closed_form(b, a):
    with mp.workdps(_DPS):
        a = mp.mpf(a)
        s = mp.pi**2 / 4 + mp.log(a) ** 2
        return float(mp.pi * mp.exp(-b * s * s) / (4 * a * (1 + a * a)))


@pytest.mark.parametrize("b", [0.4, 0.5, 1.0])
def test_gaussian_on_the_line_matches_the_closed_form(b):
    rep = run_case("gaussian", {"b": b})
    exact = _gaussian_closed_form(b, 0.3)
    miss = abs(rep.lhs - exact)
    assert miss <= rep.diagnostics.error_estimate, (rep.lhs, exact)
    # the quadrature's default tolerance, max(1e-12, 1e-10 |value|)
    assert miss <= max(1e-12, 1e-10 * abs(exact)), (rep.lhs, exact)


@pytest.mark.parametrize("a,b", [(6.413969496065889, -1.440766098346324),
                                 (6.58509217990289, -1.576585367260786)])
def test_gamma_on_the_line_meets_its_estimate_against_mpmath(a, b):
    # on the real axis the estimates were 10 and 3 times below the true error
    rep = run_case("gamma", {"a": a, "b": b})
    with mp.workdps(_DPS):
        exact = float(mp.rgamma(mp.mpf(a) + mp.mpf(b)))
    assert abs(rep.lhs - exact) <= rep.diagnostics.error_estimate, (rep.lhs, exact)


# --- the rows' own depth, against the default line -------------------------
#
# Gaussian, gamma and zeta take their line at depth 1.0.  Moving the line
# inside the strip where F and the kernel are analytic does not change the
# integral, so each run must pass and agree with the same integral on the
# line Im x = -0.8 within the two runs' estimates, and it is never dearer.

_DEPTH_POINTS = (
    [("gaussian", {"b": b}) for b in (0.05, 0.5, 2.0)]
    + [("gamma", {"a": a, "b": b}) for a, b in ((0.0, 0.5), (2.0, 3.0), (3.0, -2.0), (7.0, -0.5))]
    + [("zeta", {"n": n, "a": a}) for n in range(1, 5) for a in (0.3, 8.0, 90.0)]
)


@pytest.mark.parametrize("case_id,params", _DEPTH_POINTS)
def test_the_row_depth_agrees_with_the_default_line(case_id, params):
    case = get_case(case_id)
    assert case.contour == 1.0
    rep = run_case(case_id, params)
    assert rep.passed
    F = TransformFunction(case.transform(rep.params), schwarz_symmetric=True)
    kp = KernelParams(rep.params["a"] if case.kernel_a is None else case.kernel_a)
    default = master_integral(F, kp, None, case.scale, 0.8)
    assert default.converged
    estimates = rep.diagnostics.error_estimate + default.error_estimate
    assert abs(rep.lhs - default.value) <= estimates, (rep.lhs, default.value)
    assert rep.diagnostics.evaluations <= default.evaluations
