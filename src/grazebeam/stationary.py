"""Stationary-phase reduction of the reflected-wave integral.

In the variables (s, T) = (mu + nu, T) the stretched phase is stationary on
a set parametrized by the direction ratio r = eta/tau of the underlying
null rays.  The admissible root of the resulting quartic is, writing
yz = y - z,

    r = -[ (x/2 + 1 + sqrt(1 + x - yz^2/4)) / (2 (x^2 + yz^2)) ]^{1/2} yz,

with r = -1 on the grazing set 4x = yz^2.  The stationary point
is s* = nu (1 + r), T* = sign |nu|^{1/3} sqrt(1 - r^2); the phase there is
Phi^sp = nu C + B + i (nu + 1)^2/2.  The Hessian determinant J, B, C, the
steepest-descent step in nu, and the reduced one-dimensional z-integrand
that assembles them are all implemented from their closed forms; the
Taylor ladders of r and of the reduced phase at the grazing set provide
the fourth-order coefficient that controls the grazing amplitude.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .spectral import amplitude_Z, neg_power

__all__ = [
    "B_of_z",
    "C_of",
    "hessian_J",
    "nu_descent",
    "phi_reduced",
    "quartic_coefficient",
    "reduced_integrand",
    "root_r",
    "series_phi",
    "series_r",
]


def _check_region(x: float, yz) -> None:
    if np.any(4.0 + 4.0*x < np.asarray(yz)**2):
        raise DomainError("(y - z)^2 exceeds 4 + 4x: r^2 not real")


def root_r(x: float, y: float, z):
    """The admissible root of the stationary quartic (array-safe in z).

    Negative for y > z, in [-1, 1], equal to -1 to one rounding on the
    grazing set 4x = (y - z)^2, and satisfying the signed stationarity
    equation y - z + 2r [sqrt(x + 1 - r^2) -/+ sqrt(1 - r^2)] = 0 with the
    minus sign for 4x >= (y - z)^2.
    """
    z = np.asarray(z, dtype=float)
    yz = y - z
    _check_region(x, yz)
    if np.any((yz == 0.0) & (x == 0.0)):
        raise DomainError("root undefined at x = 0, y = z")
    disc = np.sqrt(1.0 + x - yz*yz/4.0)
    # |r| <= 1, with equality only on the grazing set, where the closed
    # form rounds up to 2.2e-16 past it
    return np.clip(-np.sqrt((x/2.0 + 1.0 + disc)/(2.0*(x*x + yz*yz)))*yz,
                   -1.0, 1.0)


def _t_star(x: float, y: float, z, nu):
    """T* = sign |nu|^{1/3} sqrt(1 - r^2), complex.

    sign = +1 for 4x > (y - z)^2 and -1 otherwise, which makes T*
    continuous with a simple zero across the grazing set; |nu|^{1/3}
    continues through :func:`neg_power`, so nu may be complex.  Formed
    without r, which would cancel near the set: with w = y - z,
    1 - r^2 = (4x - w^2)^2 / (4D), D = 4x^2 + w^2 (2 - x + sqrt(4 + 4x - w^2)),
    so sign sqrt(1 - r^2) = (4x - w^2) / (2 sqrt(D)), exactly 0 where
    w^2 == 4x.
    """
    w = y - z
    w2 = w*w
    d = 4.0*x*x + w2*(2.0 - x + np.sqrt(4.0 + 4.0*x - w2))
    return neg_power(nu, 1.0/3.0)*((4.0*x - w2)/(2.0*np.sqrt(d)))


def hessian_J(x: float, nu, r) -> complex:
    """Hessian determinant of the phase in (s, T) at the stationary point.

    J = 4 |nu|^{-2/3} [ (x + 1 - r^2)^{-1/2} r^2 (1 - r^2)^{1/2}
        - (x + 1 - r^2)^{1/2} (1 - r^2)^{1/2} + (1 - r^2) - r^2 ];
    J = -4 |nu|^{-2/3} at the grazing value r = -1, and J < 0 nearby.
    Complex: r and nu may be continued off the real axis; a real r in
    [-1, 1], where every :func:`root_r` root lies, takes real arithmetic.
    """
    real = np.isrealobj(r) and np.all(np.abs(r) <= 1.0)
    r = np.asarray(r, dtype=float if real else complex)
    r2 = r*r
    rad = x + 1.0 - r2
    if np.any(np.real(rad) <= 0):
        raise DomainError("x + 1 - r^2 must be positive")
    one, root = np.sqrt(1.0 - r2), np.sqrt(rad)
    bracket = r2*one/root - root*one + (1.0 - r2) - r2
    return 4.0*neg_power(nu, -2.0/3.0)*bracket


def B_of_z(z):
    """B(z) = -z^3/8 + i z^4/32."""
    z = np.asarray(z, dtype=float)
    return -z*z*z/8.0 + 1j*((z*z)*(z*z))/32.0


def _stationary_sum(x: float, y: float, z: np.ndarray, r=None):
    """r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z) at the admissible root r.

    The y-dependent part of C and of phi; undefined at y = z.  ``r`` is
    :func:`root_r` at z, solved here unless the caller already has it.
    """
    yz = y - z
    if np.any(yz == 0.0):
        raise DomainError("stationary phase undefined at y = z")
    if r is None:
        r = root_r(x, y, z)
    return r*yz + yz*yz*yz/(48.0*r*r*r) + r*x*x/yz


def C_of(x: float, y: float, z, t: float, r=None):
    """C(x, y, z, t) = t - z - z^3/12 + r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z).

    Real; together with B it decomposes the stationary phase as
    Phi^sp = nu C + B + i (nu + 1)^2/2.  ``r`` is :func:`root_r` at z when
    the caller has already solved for it.
    """
    z = np.asarray(z, dtype=float)
    return t - z - z*z*z/12.0 + _stationary_sum(x, y, z, r)


def nu_descent(x: float, y: float, z, t: float, k: float,
               amp: Callable[[complex], complex], r=None):
    """Steepest descent of the nu-integral through the saddle nu = -1 + iC.

    int amp(nu) e^{ik(B + nu C + i(nu+1)^2/2)} dnu
        ~ (2 pi / k)^{1/2} amp(-1 + iC) e^{ik(B - C) - k C^2/2},

    leading order only (the Gaussian is exact for constant amp).
    Elementwise over an array of z, with ``amp`` taking the array of
    saddles; ``r`` is :func:`root_r` at z when the caller has it.
    """
    if k <= 0:
        raise DomainError("k must be positive")
    B = B_of_z(z)
    C = C_of(x, y, z, t, r)
    return (math.sqrt(2.0*math.pi/k)*amp(-1.0 + 1j*C)
            * np.exp(1j*k*(B - C) - k*C*C/2.0))


def reduced_integrand(x: float, y: float, t: float, k: float, z):
    """The one-dimensional z-integrand of the reflected wave (array-safe).

    :func:`nu_descent` of (2 pi/k) Z(k, x, nu r, nu, T*) (-J)^{-1/2}, the
    (s, T) stationary-phase amplitude, with T* and J continued to the
    complex saddle nu = -1 + iC.  Decays like e^{-k z^4/32} off the
    grazing point; finite and continuous across the sign switch at
    z = y - 2 sqrt(x).
    """
    # x + 1 - r^2 at the grazing root r = -1, its least value on the z-range
    if x + 1.0 - 1.0 <= 0.0:
        raise DomainError("x = %g is below the z-route's resolution: 1 + x "
                          "does not exceed 1 in double precision" % x)
    z = np.asarray(z, dtype=float)
    r = root_r(x, y, z)

    def amp(nu):
        T = _t_star(x, y, z, nu)
        return ((2.0*math.pi/k)*amplitude_Z(k, x, nu*r, nu, T)
                / np.sqrt(-hessian_J(x, nu, r)))

    return nu_descent(x, y, z, t, k, amp, r)


# ---------------------------------------------------------------------------
# Taylor data at the grazing set
# ---------------------------------------------------------------------------

def series_r(x: float) -> np.ndarray:
    """Raw z-derivatives of r of orders 0-4 at the grazing set.

    (r, r_z, r_zz) = (-1, 0, 1/4) universally;
    r_zzz = (3/8)(1 - x)/sqrt(x) and r_zzzz = (15/16)(x - 1 + 1/x).
    """
    if x <= 0:
        raise DomainError("series defined for x > 0")
    sx = math.sqrt(x)
    return np.array([-1.0, 0.0, 0.25, (3.0/8.0)*(1.0 - x)/sx,
                     (15.0/16.0)*(x - 1.0 + 1.0/x)])


def phi_reduced(x: float, y: float, z):
    """phi = -z + r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z) (array-safe)."""
    z = np.asarray(z, dtype=float)
    return -z + _stationary_sum(x, y, z)


def series_phi(x: float) -> np.ndarray:
    """Raw z-derivatives of the reduced phase phi of orders 0-4.

    Base point (x, y, z) = (x, 2 sqrt(x), 0); the z-derivatives depend only
    on y - z, so this normalization loses no generality:
    (phi, phi_z, phi_zz, phi_zzz, phi_zzzz) =
    (-y - (y-z)^3/12, 0, 0, -1/4, -(3/8)(1 - x)/sqrt(x)).
    """
    if x <= 0:
        raise DomainError("series defined for x > 0")
    sx = math.sqrt(x)
    return np.array([-2.0*sx - (2.0/3.0)*x*sx, 0.0, 0.0, -0.25,
                     -(3.0/8.0)*(1.0 - x)/sx])


def quartic_coefficient(x: float) -> complex:
    """a(x) with d^4/dz^4 [B - C] = 24 a(x) on the ray at the grazing point.

    a(x) = (B_zzzz - phi_zzzz)/24 = [(3/8)(1 - x)/sqrt(x) + 3i/4]/24;
    its imaginary part is 1/32 for every x, which is the universal quartic
    damping rate of the grazing amplitude integral.  (Named to avoid
    colliding with the beam amplitude a(y).)
    """
    return complex(-series_phi(x)[4], 0.75)/24.0
