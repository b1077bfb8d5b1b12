"""The grazing amplitude on the central ray: integrals, limit, closed forms.

After the stationary-phase and steepest-descent reductions, the reflected
wave on the central ray (x, 2 sqrt(x), 2 sqrt(x) + (2/3) x^{3/2}) collapses
to a single u-integral (z = k^{-1/4} u)

    w ~ (c / x^{1/4}) int (i u/2
          - k^{-1/12} omega Ai'/Ai(e^{-i pi/3} (u^2/4) k^{1/6}))
          e^{i a(x) u^4} du,        c = (4 pi)^{-3/2} e^{i pi/12} / W(0),

whose k -> infinity limit evaluates in closed form through the quartic
moment int_0^inf u e^{-b u^4} du = Gamma(1/2) b^{-1/2} / 4:

    w -> (1/2) (1 - x + 2 i sqrt(x))^{-1/2},

with modulus exactly (1/2)(1 + x)^{-1/2}.  The incident beam on the same
ray is (1 + 4x + 2 i x^{3/2})^{-1/2}, so the emerging amplitude v - w tends
to half the incident amplitude as x -> 0+.

Measured convergence of the u-integral to the closed form is ~k^{-1/6}
(about 25% at k = 1e3 falling to ~9% at k = 1e6); the integral and the
one-dimensional z-route agree far more tightly (sub-2% at k = 1e5) since
they share the slowly converging Airy-ratio factor.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import airy
from .errors import DomainError
from .quadrature import (DampingProfile, IntegrandSpec, QuadratureResult,
                         integrate_1d, truncation_radius)
from .raybeam import beam_on_ray, central_ray
from .spectral import exact_solution
from .stationary import quartic_coefficient, reduced_integrand

__all__ = [
    "closed_form_identity_check",
    "constant_c",
    "limit_integral",
    "quartic_moment",
    "reflected_amplitude",
    "spectral_on_ray",
    "u_integral",
    "w_on_ray_closed",
    "z_integral",
]

#: least X = k^{2/3} x of a converged z-route result; below it the route
#: misses the oracle by 5.9% (X = 3) to 61% (X = 0.3) at k = 1e3
_Z_LAYER_X0 = 10.0

#: window of the u-integral's damping e^{-u^4/32}, tail below 1e-14
_U_WINDOW = truncation_radius(1.0/32.0, 4, 1e-14)


def constant_c() -> complex:
    """c = (4 pi)^{-3/2} e^{i pi/12} / W(0), |c| = (4 pi)^{-3/2} * 2 pi."""
    return (4.0*math.pi)**-1.5*np.exp(1j*np.pi/12.0)/airy.WRONSKIAN_ZERO


def quartic_moment(b: complex) -> complex:
    """int_0^inf u e^{-b u^4} du = Gamma(1/2) b^{-1/2} / 4 for Re b > 0.

    Principal branch of b^{-1/2}; the identity extends off the positive
    axis by analyticity.
    """
    b = complex(b)
    if b.real <= 0:
        raise DomainError("quartic moment requires Re b > 0")
    return 0.25*math.sqrt(math.pi)*b**-0.5


def u_integral(x: float, k: float, tol: float = 1e-9) -> QuadratureResult:
    """The u-integral route at finite k (damping e^{-u^4/32}).

    Like every finite-k route here it returns its w in w units with the
    quadrature's error, window radius and panel count; on a spent panel
    budget the best estimate comes back flagged ``converged=False``.
    The limit needs k x^{3/2} >> 1 at small x and k >> x^{3/2} at large x:
    the relative error is about 0.54 where k = x^{3/2} and 1.32 where
    k = 1e-3 x^{3/2}, both marked converged.
    """
    if not (math.isfinite(x) and math.isfinite(k)):
        raise DomainError("x and k must be finite")
    if x <= 0:
        raise DomainError("x must be positive")
    if k < 10:
        raise DomainError("u-integral route expects k >= 10")
    a = quartic_coefficient(x)
    k16 = k**(1.0/6.0)
    k112 = k**(-1.0/12.0)

    def f(u):
        bracket = 0.5j*u - k112*airy.OMEGA*airy.ratio_on_ray((u*u/4.0)*k16)
        return bracket*np.exp(1j*a*((u*u)*(u*u)))

    osc = 4.0*abs(a)*_U_WINDOW**3 + 1.0
    spec = IntegrandSpec(
        f, DampingProfile(1.0/32.0, 4, scale=4.0*_U_WINDOW*k112*k16), osc)
    res = integrate_1d(spec, tol)
    c = constant_c()
    return replace(res, value=complex(c/x**0.25*res.value),
                   error_estimate=abs(c)/x**0.25*res.error_estimate)


def _z_route(x: float, y: float, t: float, k: float, tol: float):
    """Integrate the reduced integrand over z at (x, y, t): the z-route.

    The integrand is extended by zero outside the admissible z-range: the
    one-dimensional reduction is valid for y - z inside (0, 2 sqrt(1+x));
    beyond the turning point the stationary root leaves the real axis.  The
    quartic damping makes the clipped tail negligible relative to the
    route's own O(k^{-1/2}) accuracy whenever the window reaches that far
    (only at moderate k).
    """
    z_lo = y - 2.0*math.sqrt(1.0 + x)*(1.0 - 1e-9)
    z_hi = y - 1e-9

    def f(z):
        z = np.asarray(z, dtype=float)
        ok = (z > z_lo) & (z < z_hi)
        out = np.zeros(z.shape, dtype=complex)
        if ok.any():
            out[ok] = reduced_integrand(x, y, t, k, z[ok])
        return out

    damping = DampingProfile(0.8*k/32.0, 4, scale=k**0.25)
    radius = truncation_radius(damping.coefficient, 4, tol/10.0)
    osc = k*(abs(quartic_coefficient(x))*4.0*radius**3 + radius) + 1.0
    return integrate_1d(IntegrandSpec(f, damping, osc), tol)


def z_integral(x: float, k: float, tol: float = 1e-9) -> QuadratureResult:
    """The one-dimensional z-route on the ray (reduced integrand integrated).

    Inside the Airy layer, X = k^{2/3} x below ``_Z_LAYER_X0``, the result
    comes back flagged ``converged=False`` whatever the quadrature did.
    """
    if not (math.isfinite(x) and math.isfinite(k)):
        raise DomainError("x and k must be finite")
    if x <= 0:
        raise DomainError("x must be positive")
    ray = central_ray(2.0*math.sqrt(x))
    res = _z_route(x, ray.y, ray.t, k, tol)
    inside = k**(2.0/3.0)*x < _Z_LAYER_X0
    return replace(res, converged=False) if inside else res


def spectral_on_ray(x: float, k: float, tol: float = 0.02) -> QuadratureResult:
    """The three-fold Airy-quotient oracle at the ray point over x."""
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x <= 0:
        raise DomainError("x must be positive")
    ray = central_ray(2.0*math.sqrt(x))
    return exact_solution(x, ray.y, ray.t, k, tol)


def limit_integral(x: float) -> complex:
    """The k -> infinity limit, via the quartic moment: equals the closed form.

    (c / (2 x^{1/4})) int (i u + i |u|) e^{i a(x) u^4} du
        = (c / x^{1/4}) * 2 i * quartic_moment(-i a(x)).
    """
    if not 0 < x < math.inf:
        raise DomainError("x must be finite and positive")
    b = -1j*quartic_coefficient(x)   # Re b = Im a = 1/32 > 0
    return complex(constant_c()/(2.0*x**0.25)*2j*quartic_moment(b))


def w_on_ray_closed(x: float) -> complex:
    """Closed-form grazing amplitude (1/2)(1 - x + 2 i sqrt(x))^{-1/2}.

    Principal branch; the argument has modulus 1 + x and positive
    imaginary part for x > 0, so the branch is continuous from the value
    1/2 at x = 0.  |w| = (1/2)(1 + x)^{-1/2} exactly.
    """
    if not 0 <= x < math.inf:
        raise DomainError("x must be finite and nonnegative")
    return complex(0.5*(1.0 - x + 2j*math.sqrt(x))**-0.5)


def closed_form_identity_check(x: float) -> float:
    """|first display - simplified display| of the closed form.

    The un-simplified evaluation of the limit integral reads
    (3 / (2 sqrt(-3 + 3x - 6 i sqrt(x)) (omega - 1))) e^{i pi/3}; its
    square root is taken on the principal branch, which is continuous on
    x > 0 (the argument stays in the lower half-plane) and matches the
    simplified form at the reference point x = 1.
    """
    if not 0 < x < math.inf:
        raise DomainError("x must be finite and positive")
    root = np.sqrt(-3.0 + 3.0*x - 6j*math.sqrt(x))
    first = 3.0/(2.0*root*(airy.OMEGA - 1.0))*np.exp(1j*np.pi/3.0)
    return float(abs(first - w_on_ray_closed(x)))


def reflected_amplitude(x: float) -> complex:
    """Amplitude of the emerging beam on the ray: v(x) - w(x), closed forms."""
    return beam_on_ray(x) - w_on_ray_closed(x)
