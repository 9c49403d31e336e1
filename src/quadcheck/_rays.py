"""The master integral of a sum of exponentials on steepest-descent rays.

For ``F(k) = sum of c e^{i beta k}`` the folded integrand is a chirp on the
real axis, decaying only like ``e^{(|beta| pi - 1) x}``.  Past X, the end
of the first half-line window, ``e^{i beta k(x)}`` and ``e^{i beta k(-x)}``
decay like ``e^{-2 |beta| X y}`` on the ray ``X + iy`` for beta > 0 and on
``X - iy`` for beta < 0, and Cauchy's theorem moves the tail there while
no kernel pole lies right of ``Re x = |ln a|`` (Huybrechs and Vandewalle,
SIAM J. Numer. Anal. 44, 2006).  ``kernel.master_integral`` decides when;
this module is imported only then, so other runs do not compile it.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from . import quadrature
from ._frozen import replace
from .quadrature import _EPS, _FIRST_WINDOW_EDGES, QuadratureOptions, QuadratureResult


def head_and_rays(
    head_f: Callable[[float], complex], exponentials: tuple, a2: complex,
    opts: QuadratureOptions, scale: float,
) -> QuadratureResult:
    """The head [0, X] of ``head_f`` on the real axis plus the tail on the rays.

    The terms of a Schwarz-symmetric F pair up, so the downward ones at
    ``X - iy`` are the conjugates of the upward ones at ``X + iy``: both
    rays are one half-line integral in y, and for real ``a2`` (a^2) it is
    ``2 Re`` of the upward ray, and real.  The pieces share the subdivision
    budget, each at a third of the tolerances; the sum is converged when
    both are and its error meets the whole tolerance.  ``truncation_used``
    is the height y the rays reached.
    """
    x0 = _FIRST_WINDOW_EDGES[-1]
    i_pi = complex(0.0, math.pi)
    up = [(scale * c, complex(0.0, beta)) for c, beta in exponentials if beta > 0]
    exp = cmath.exp
    real = isinstance(a2, float)

    def ray(y: float) -> complex:
        x = complex(x0, y)
        k, k_neg = x * (x + i_pi), x * (x - i_pi)
        s = 0j
        for c, i_beta in up:
            s += c * (exp(i_beta * k) + exp(i_beta * k_neg))
        u = exp(-x)  # kernel_weight's factored form at complex x
        u2 = u * u
        g = s * (0.5 * (u + u * u2) / ((1.0 + a2 * u2) * (a2 + u2)))
        if real:
            return -2.0 * g.imag  # 2 Re (i g)
        u = u.conjugate()
        u2 = u * u
        return 1j * (g - s.conjugate() * (0.5 * (u + u * u2) / ((1.0 + a2 * u2) * (a2 + u2))))

    left = opts.max_subdivisions
    evaluations = 0
    shrink = 1.0
    for _ in range(2):
        tol = replace(opts, abs_tol=opts.abs_tol / 3.0, rel_tol=shrink * opts.rel_tol / 3.0,
                      max_subdivisions=left)
        # looked up at the call: a wrapper put on the module still sees the ray
        tail = quadrature.integrate_half_line(ray, tol)
        head = quadrature._partition(
            head_f, _FIRST_WINDOW_EDGES, tol, False, left - tail.subdivisions
        )
        left -= tail.subdivisions + head.subdivisions
        evaluations += tail.evaluations + head.evaluations
        value = head.value + tail.value
        error = head.error_estimate + tail.error_estimate
        pieces = head.converged and tail.converged
        converged = pieces and error <= max(opts.abs_tol, opts.rel_tol * abs(value))
        if converged or not pieces or not left:
            break
        # the pieces cancel: take both again, rel_tol shrunk by the cancellation
        shrink = max(abs(value) / (abs(head.value) + abs(tail.value)), _EPS)
    return QuadratureResult(
        value, error, evaluations, tail.truncation_used, converged, head.l1_norm + tail.l1_norm,
        head.roundoff_limited or tail.roundoff_limited, opts.max_subdivisions - left,
    )
