"""The master identity as its own oracle, on generated transforms.

A Laplace image ``F(k) = integral of e^{-kt} f(t) dt`` is analytic for Re k
above its abscissa, and sums and products of images are images (Widder,
*The Laplace Transform*, 1941).  Every term below is analytic for
Re k > -b, with b > 0, and grows at most like log|k|, so any sum or product
of them is an admissible F, and its closed form is an exact oracle:

* ``c*exp(-t*k)``, ``c/(k+b)^n``, ``c/sqrt(k+b)``, ``c*log(k+b)`` (analytic
  and of logarithmic growth, though not an image) and constants.

Each draw is an expression of the language ``custom`` reads, run as
``custom`` runs it: parsed, probed for Schwarz symmetry and passed to
``verify_master``.  The generator is seeded, so the run is deterministic.
"""

import cmath
import math
import random

import pytest

from quadcheck import (
    KernelParams,
    RoundoffError,
    TransformFunction,
    detect_schwarz_symmetry,
    verify_master,
)
from quadcheck import expr

_SEED = 20
_DRAWS = 200


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _number(x):
    text = f"{x:.3g}"
    return f"({text})" if x < 0 else text


def _term(rng):
    """One term: a coefficient in [-2, 2], b in [1e-4, 50], t in [1e-3, 5], n <= 4."""
    c = _number(rng.uniform(-2.0, 2.0))
    b = _number(_log_uniform(rng, 1e-4, 50.0))
    kind = rng.randrange(5)
    if kind == 0:
        return f"{c}*exp(-{_number(_log_uniform(rng, 1e-3, 5.0))}*k)"
    if kind == 1:
        return f"{c}/(k+{b})^{rng.randint(1, 4)}"
    if kind == 2:
        return f"{c}/sqrt(k+{b})"
    if kind == 3:
        return f"{c}*log(k+{b})"
    return c


def _draw(rng):
    """(expression, a): one to four summands, each with probability 0.4 a
    product of two terms; a log-uniform on [0.01, 100] in modulus, real in
    every other draw and else of argument in [-1.2, 1.2]."""
    summands = []
    for _ in range(rng.randint(1, 4)):
        term = _term(rng)
        if rng.random() < 0.4:
            term = f"({term})*({_term(rng)})"
        summands.append(term)
    a = _log_uniform(rng, 0.01, 100.0)
    if rng.random() < 0.5:
        a = a * cmath.exp(1j * rng.uniform(-1.2, 1.2))
    return " + ".join(summands), a


def _draws():
    rng = random.Random(_SEED)
    return [_draw(rng) for _ in range(_DRAWS)]


def _verify(source, a):
    """``verify_master`` on the expression, as the ``custom`` command builds it."""
    ast = expr.parse(source)

    def fn(k):
        return expr.evaluate(ast, {"k": k})

    F = TransformFunction(fn, schwarz_symmetric=detect_schwarz_symmetry(fn), name=source)
    return verify_master(F, KernelParams(a))


#: The draws that end in RoundoffError today, by expression text: each
#: has a pole of F at k = -b next to the contour's start, b small.
_ROUNDOFF_DRAWS = frozenset({
    "((-0.463)*exp(-0.185*k))*((-1.13)/(k+0.000167)^2)",
    "(-0.316)/(k+0.00568)^1 + 0.308/(k+0.00225)^4 + (-0.346)/sqrt(k+0.00484)",
    "((-1.23))*((-1.28)/(k+0.0319)^4)",
    "1.75/(k+0.000225)^3 + (-0.106)*log(k+1.28) + (1.46)*((-1.53)*log(k+14.2))",
})


def test_generated_draws_pass_or_stop_on_roundoff():
    roundoff = set()
    for source, a in _draws():
        try:
            report = _verify(source, a)
        except RoundoffError:
            roundoff.add(source)
            continue
        assert report.passed, (source, a, report.abs_diff, report.rel_diff)
        # the estimate covers the true error, up to the closed form's rounding
        bound = report.diagnostics.error_estimate + 4e-16 * abs(report.rhs)
        assert report.abs_diff <= bound, (source, a, report.abs_diff, bound)
    assert roundoff == _ROUNDOFF_DRAWS


def test_generator_writes_every_kind_of_term():
    draws = _draws()
    text = " ".join(source for source, _ in draws)
    for piece in ("exp(-", ")^", "sqrt(", "log(", ")*("):
        assert piece in text, piece
    assert {type(a) for _, a in draws} == {float, complex}


@pytest.mark.xfail(strict=True, reason="the estimate is 0.69 of the true error")
def test_draw_whose_estimate_is_below_its_true_error():
    # the 16th draw at seed 3: branch points of both logarithms at k of
    # about -1e-4, next to the contour's start; the run converges and
    # passes, with |lhs - rhs| 5.6e-11 against an estimate of 3.9e-11
    source = "(-1.37)*log(k+0.000256) + 0.346/(k+0.0114)^3 + (-1.49)*log(k+0.000105)"
    report = _verify(source, complex(1.8408293846333361, -0.17361844600709947))
    assert report.passed
    assert report.abs_diff <= report.diagnostics.error_estimate + 4e-16 * abs(report.rhs)
