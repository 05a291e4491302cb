"""Exact exit distribution of the symmetric stable process from (-1, 1).

Blumenthal, Getoor and Ray (1961), "On the distribution of first hits for
the symmetric stable processes": started at x in (-1, 1), the symmetric
sigma-stable process first leaves the interval at y, |y| > 1, with density

    sin(pi sigma / 2) / pi * ((1 - x^2) / (y^2 - 1))^{sigma/2} / |x - y|.

The law does not depend on the process's time scale, so it is exact for any
positive multiple of the fractional Laplacian, the lam = Lam operator of the
isotropic quadratic potential included.
"""

from __future__ import annotations

import math

from scipy import integrate


def exit_right_probability(x: float, sigma: float) -> float:
    """P_x(X_tau > 1): the exit density integrated over y > 1."""
    if not -1.0 < x < 1.0:
        raise ValueError(f"x={x} outside (-1, 1)")
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"sigma={sigma} outside (0, 2)")
    s = sigma / 2.0
    # (y - 1)^{-s} is integrable but singular at y = 1: quad's algebraic
    # weight takes it exactly; the tail decays like y^{-1-sigma}.
    near, _ = integrate.quad(lambda y: (y + 1.0) ** (-s) / (y - x), 1.0, 2.0,
                             weight="alg", wvar=(-s, 0.0), epsabs=1e-13)
    far, _ = integrate.quad(lambda y: (y * y - 1.0) ** (-s) / (y - x), 2.0,
                            math.inf, epsabs=1e-13)
    return math.sin(math.pi * s) / math.pi * (1.0 - x * x) ** s * (near + far)
