"""The master integrand of a sum of exponentials on steepest-descent rays.

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

from .kernel import _kernel_u
from .quadrature import _FIRST_WINDOW_EDGES


def head_and_rays(
    head_f: Callable[[float], complex], exponentials: tuple, a2: complex, scale: float,
) -> Callable[[float], complex]:
    """The contour [0, X] then both rays, as one integrand in the parameter s.

    Below X it is ``head_f(s)`` on the real axis; from X on it is the rays'
    integrand at height ``y = s - X``.  X is an edge of every half-line
    window, so no rule straddles it, and the one partition of the half-line
    takes head and tail under one tolerance.  The terms of a
    Schwarz-symmetric F pair up, so the downward ones at ``X - iy`` are the
    conjugates of the upward ones at ``X + iy``; for real ``a2`` (a^2) the
    kernel is conjugate too, and the value is real.
    """
    x0 = _FIRST_WINDOW_EDGES[-1]
    i_pi = complex(0.0, math.pi)
    up = [(scale * c, complex(0.0, beta)) for c, beta in exponentials if beta > 0]
    exp, kernel = cmath.exp, _kernel_u

    def f(s: float) -> complex:
        if s < x0:
            return head_f(s)
        x = complex(x0, s - x0)
        k, k_neg = x * (x + i_pi), x * (x - i_pi)
        t = 0j
        for c, i_beta in up:
            t += c * (exp(i_beta * k) + exp(i_beta * k_neg))
        u = exp(-x)
        return 1j * (t * kernel(a2, u) - t.conjugate() * kernel(a2, u.conjugate()))

    return f
