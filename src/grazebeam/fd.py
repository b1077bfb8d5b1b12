"""Finite-difference derivative helpers for the verification oracles.

Centered stencils are generated by solving the local Vandermonde system on
nine equispaced nodes, which yields all derivatives through order 4 at
once; Richardson extrapolation over (h, h/2) removes the leading
truncation term.  Fourth derivatives in double precision need the step
balanced against cancellation, so callers pass a characteristic scale.
The function is evaluated once per stencil, on the array of its nodes, so
it must act elementwise on a float array.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["stencil_derivatives", "richardson_derivatives"]

#: the stencil's nodes are x0 + j*h for |j| <= _HALF_WIDTH
_HALF_WIDTH = 4


def stencil_derivatives(f: Callable[[np.ndarray], np.ndarray], x0: float,
                        h: float):
    """Derivatives f(x0), f'(x0), ..., f^(4)(x0) from one stencil.

    Uses the nine equispaced nodes x0 + j*h, |j| <= 4, and solves the
    Vandermonde system for the Taylor coefficients.  ``f`` is called once,
    on the array of the nine nodes, and must return its values there
    elementwise.
    """
    js = np.arange(-_HALF_WIDTH, _HALF_WIDTH + 1)
    nodes = x0 + js*h
    vals = np.asarray(f(nodes), dtype=complex)
    powers = np.vander(js*h, len(js), increasing=True)
    coeffs = np.linalg.solve(powers, vals)
    return np.array([coeffs[n]*math.factorial(n) for n in range(5)])


def richardson_derivatives(f: Callable[[np.ndarray], np.ndarray],
                           x0: float, h: float):
    """Derivatives through order 4, Richardson-extrapolated over h and h/2.

    The nine-point stencil's error is O(h^6) (even powers only); the
    extrapolation cancels the leading term.
    """
    d1 = stencil_derivatives(f, x0, h)
    d2 = stencil_derivatives(f, x0, h/2.0)
    w = 2.0**6
    return (w*d2 - d1)/(w - 1.0)
