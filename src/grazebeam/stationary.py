"""Stationary-phase reduction of the reflected-wave integral.

In the variables (s, T) = (mu + nu, T) the stretched phase is stationary on
a set parametrized by the direction ratio r = eta/tau of the underlying
null rays.  The admissible root of the resulting quartic is, writing
yz = y - z,

    r = -[ (x/2 + 1 + sqrt(1 + x - yz^2/4)) / (2 (x^2 + yz^2)) ]^{1/2} yz,

with r = -1 exactly on the grazing set 4x = yz^2.  The phase at the
stationary point, the Hessian determinant J, the decomposition
Phi^sp = nu C + B + i (nu + 1)^2/2, the steepest-descent step in nu, and
the reduced one-dimensional z-integrand are all implemented from their
closed forms; the Taylor ladders of r and of the reduced phase at the
grazing set provide the fourth-order coefficient that controls the
grazing amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegeneracyError, DomainError
from .spectral import amplitude_Z, neg_power

__all__ = [
    "B_of_z",
    "C_of",
    "SeriesCoefficients",
    "StationaryData",
    "hessian_J",
    "nu_descent",
    "phi_reduced",
    "phi_sp",
    "quartic_coefficient",
    "reduced_integrand",
    "root_r",
    "series_phi",
    "series_r",
    "stationary_point",
]


@dataclass(frozen=True)
class StationaryData:
    """Stationary-point data at fixed (x, y, z, nu)."""

    r: float
    s: float
    T: float
    sign_branch: str      # '+' for 4x > (y-z)^2, '-' for 4x < (y-z)^2
    phi_sp: complex
    J: float
    B: complex
    C: float


@dataclass(frozen=True)
class SeriesCoefficients:
    """Taylor data at the grazing set, offset w from z = y - 2 sqrt(x).

    For the root: r = c0 + c2 w^2 + c3 w^3/6 + c4 w^4/24 + O(w^5) with
    c0 = -1, c1 = 0, c2 = 1/8 and c3, c4 the raw third and fourth
    derivatives.  For the reduced phase the entries are the raw
    derivatives (value, 0, 0, phi_zzz, phi_zzzz).
    """

    c0: complex
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    base_x: float


def _check_region(x: float, yz) -> None:
    if np.any(4.0 + 4.0*x < np.asarray(yz)**2):
        raise DomainError("(y - z)^2 exceeds 4 + 4x: r^2 not real")


def root_r(x: float, y: float, z):
    """The admissible root of the stationary quartic (array-safe in z).

    Negative for y > z, equal to -1 exactly on the grazing set
    4x = (y - z)^2, and satisfying the signed stationarity equation
    y - z + 2r [sqrt(x + 1 - r^2) -/+ sqrt(1 - r^2)] = 0 with the minus
    sign for 4x >= (y - z)^2.
    """
    z = np.asarray(z, dtype=float)
    yz = y - z
    _check_region(x, yz)
    if np.any((yz == 0.0) & (x == 0.0)):
        raise DegeneracyError("root undefined at x = 0, y = z")
    disc = np.sqrt(1.0 + x - yz*yz/4.0)
    r = -np.sqrt((x/2.0 + 1.0 + disc)/(2.0*(x*x + yz*yz)))*yz
    return float(r) if np.ndim(z) == 0 else r


def stationary_point(x: float, y: float, z: float, nu: float,
                     t: float = 0.0) -> StationaryData:
    """Assemble the stationary data at (x, y, z) for real nu < 0.

    s = nu (1 + r) and T = sign * |nu|^{1/3} sqrt(1 - r^2) where the sign
    is + for 4x > (y - z)^2 and - for 4x < (y - z)^2, making T continuous
    with a simple zero across the grazing set.  The phase fields are
    evaluated at time ``t`` (they are affine in t); the remaining fields do
    not depend on t.
    """
    if nu >= 0:
        raise DomainError("stationary point defined for nu < 0")
    r = root_r(x, y, z)
    B, C = B_of_z(z), C_of(x, y, z, t, r)
    sign, T = _t_star(x, y, z, nu, r)
    return StationaryData(
        r=r, s=nu*(1.0 + r), T=float(T.real),
        sign_branch=("+" if sign > 0 else "-"), phi_sp=_phi(nu, B, C),
        J=float(hessian_J(x, nu, r).real), B=B, C=C)


def _t_star(x: float, y: float, z, nu, r):
    """(sign, T*) with T* = sign |nu|^{1/3} sqrt(1 - r^2), complex.

    sign = +1 for 4x > (y - z)^2 and -1 otherwise; |nu|^{1/3} continues
    through :func:`neg_power`, so nu may be complex.
    """
    sign = np.where(4.0*x > (y - z)**2, 1.0, -1.0)
    return sign, sign*neg_power(nu, 1.0/3.0)*np.sqrt((1.0 - r*r) + 0j)


def phi_sp(t: float, x: float, y: float, nu, z: float) -> complex:
    """Phase at the stationary point, Phi^sp = nu C + B + i (nu + 1)^2/2."""
    return _phi(nu, B_of_z(z), C_of(x, y, z, t))


def _phi(nu, B, C):
    return nu*C + B + 0.5j*(nu + 1.0)**2


def hessian_J(x: float, nu, r) -> complex:
    """Hessian determinant of the phase in (s, T) at the stationary point.

    J = 4 |nu|^{-2/3} [ (x + 1 - r^2)^{-1/2} r^2 (1 - r^2)^{1/2}
        - (x + 1 - r^2)^{1/2} (1 - r^2)^{1/2} + (1 - r^2) - r^2 ];
    J = -4 |nu|^{-2/3} at the grazing value r = -1, and J < 0 nearby.
    Complex: r and nu may be continued off the real axis.
    """
    r = np.asarray(r, dtype=complex)
    rad = x + 1.0 - r**2
    if np.any(np.real(rad) <= 0):
        raise DomainError("x + 1 - r^2 must be positive")
    one = np.sqrt(1.0 - r**2)
    bracket = rad**-0.5*r**2*one - np.sqrt(rad)*one + (1.0 - r**2) - r**2
    return 4.0*neg_power(nu, -2.0/3.0)*bracket


def B_of_z(z):
    """B(z) = -z^3/8 + i z^4/32."""
    z = np.asarray(z, dtype=float)
    out = -z**3/8.0 + 1j*z**4/32.0
    return complex(out) if np.ndim(z) == 0 else out


def _stationary_sum(x: float, y: float, z: np.ndarray, r=None):
    """r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z) at the admissible root r.

    The y-dependent part of C and of phi; undefined at y = z.  ``r`` is
    :func:`root_r` at z, solved here unless the caller already has it.
    """
    yz = y - z
    if np.any(yz == 0.0):
        raise DegeneracyError("stationary phase undefined at y = z")
    if r is None:
        r = root_r(x, y, z)
    return r*yz + yz**3/(48.0*r**3) + r*x*x/yz


def C_of(x: float, y: float, z, t: float, r=None):
    """C(x, y, z, t) = t - z - z^3/12 + r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z).

    Real; together with B it decomposes the stationary phase as
    Phi^sp = nu C + B + i (nu + 1)^2/2.  ``r`` is :func:`root_r` at z when
    the caller has already solved for it.
    """
    z = np.asarray(z, dtype=float)
    out = t - z - z**3/12.0 + _stationary_sum(x, y, z, r)
    return float(out) if np.ndim(z) == 0 else out


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
        raise ValueError("k must be positive")
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
        raise DomainError("x + 1 - r^2 must be positive")
    z = np.asarray(z, dtype=float)
    r = root_r(x, y, z)

    def amp(nu):
        T = _t_star(x, y, z, nu, r)[1]
        return ((2.0*math.pi/k)*amplitude_Z(k, x, nu*r, nu, T)
                * (-hessian_J(x, nu, r))**-0.5)

    return nu_descent(x, y, z, t, k, amp, r)


# ---------------------------------------------------------------------------
# Taylor data at the grazing set
# ---------------------------------------------------------------------------

def series_r(x: float) -> SeriesCoefficients:
    """Closed-form Taylor data of r at the grazing set.

    (c0, c1, c2) = (-1, 0, 1/8) universally; the raw derivatives are
    c3 = r_zzz = (3/8)(x^{-1/2} - x^{1/2}) and
    c4 = r_zzzz = (15/16)(x - 1 + 1/x).
    """
    if x <= 0:
        raise DomainError("series defined for x > 0")
    sx = math.sqrt(x)
    return SeriesCoefficients(-1.0, 0.0, 0.125,
                              (3.0/8.0)*(1.0/sx - sx),
                              (15.0/16.0)*(x - 1.0 + 1.0/x), x)


def phi_reduced(x: float, y: float, z):
    """phi = -z + r(y-z) + (y-z)^3/(48 r^3) + r x^2/(y-z) (array-safe)."""
    z = np.asarray(z, dtype=float)
    out = -z + _stationary_sum(x, y, z)
    return float(out) if np.ndim(z) == 0 else out


def series_phi(x: float) -> SeriesCoefficients:
    """Taylor data of the reduced phase phi about the grazing point.

    Base point (x, y, z) = (x, 2 sqrt(x), 0); the z-derivatives depend only
    on y - z, so this normalization loses no generality.  Entries are raw
    derivatives: (phi, phi_z, phi_zz, phi_zzz, phi_zzzz) =
    (-y - (y-z)^3/12, 0, 0, -1/4, (3/8)(sqrt(x) - 1/sqrt(x))).
    """
    if x <= 0:
        raise DomainError("series defined for x > 0")
    sx = math.sqrt(x)
    base = -2.0*sx - (2.0/3.0)*x*sx
    return SeriesCoefficients(base, 0.0, 0.0, -0.25,
                              (3.0/8.0)*(sx - 1.0/sx), x)


def quartic_coefficient(x: float) -> complex:
    """a(x) with d^4/dz^4 [B - C] = 24 a(x) on the ray at the grazing point.

    a(x) = [-(3/8)(sqrt(x) - 1/sqrt(x)) + 3i/4] / 24; its imaginary part is
    1/32 for every x, which is the universal quartic damping rate of the
    grazing amplitude integral.  (Named to avoid colliding with the beam
    amplitude a(y).)
    """
    if x <= 0:
        raise DomainError("quartic coefficient defined for x > 0")
    sx = math.sqrt(x)
    return complex(-(3.0/8.0)*(sx - 1.0/sx), 0.75)/24.0
