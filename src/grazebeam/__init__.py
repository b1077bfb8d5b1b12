"""Numerical laboratory for a Gaussian beam grazing the boundary x = 0.

The model wave equation (1 + x) u_tt = u_xx + u_yy on the half-plane x > 0
admits an exact Airy-quotient solution operator, which makes the grazing
configuration (a beam tangent to the boundary at the origin) fully
computable.  The package builds the beam, its boundary trace, the
spectral representation of the reflected wave, the stationary-phase and
steepest-descent reductions, and the closed-form amplitude on the central
ray, with every closed-form identity backed by an independent numerical
route.

Modules
-------
airy        complex Airy kernel Ai, Ai'/Ai, the constant Wronskian
raybeam     bicharacteristics, the central ray, beam matrices and field
spectral    Airy-quotient representation and the direct (oracle) evaluation
stationary  stationary-phase data, steepest descent, Taylor ladders
grazing     the one-dimensional amplitude integrals and closed forms
quadrature  damped-oscillatory adaptive quadrature and contour rotation
verification  named check suites behind the ``grazebeam verify`` command
fd          finite-difference stencils and Richardson extrapolation
errors      DomainError, the one refusal type (outside the domain, at a
            degenerate point, or a contour along which the integrand grows)
cli         the ``grazebeam`` command line (``ray``, ``beam``, ``graze``,
            ``verify``)
"""

from . import (airy, grazing, quadrature, raybeam, spectral, stationary,
               verification)

__all__ = ["airy", "grazing", "quadrature", "raybeam", "spectral",
           "stationary", "verification"]
__version__ = "1.0.0"
