"""Complex Airy function kernel: Ai, the Wronskian with Ai(omega*z), Ai'/Ai.

Everything downstream (the spectral quotient, the reciprocal Wronskian
factor, the grazing-amplitude integrals) reduces to four ingredients, each
elementwise on arrays (a scalar argument gives a scalar):

* Ai and Ai' on a bounded disk |z| <= R_MAX, evaluated by the AMOS library
  (Amos 1986, ACM TOMS 12:265) through scipy (relative accuracy ~1e-13
  there, including the sector near the positive real axis where Ai is
  maximally subdominant and series summation in double precision cannot
  reach 1e-10);
* the large-|z| asymptotic form with its correction series, valid in the
  sector |arg z| < pi - 0.01;
* the exponentially scaled Ai(z) exp(2 z^{3/2}/3) on the ray
  z = e^{-i pi/3} q, q real, which carries every Airy argument of the
  spectral oracle.  :func:`ai_scaled_on_ray` has two branches:

  - |q| >= RATIO_CROSSOVER (= 8): the DLMF 9.7.5 series in t = -1/zeta, in
    real arithmetic: with r = (2/3)|q|^{3/2}, t = -i/r (q >= 0) or 1/r
    (q < 0), so t^2 is real.  A call stops after the least order n whose
    first neglected term u_{n+1}/r_min^{n+1} (DLMF 9.7(iv)) is below
    2^-56 over its far points, at most 24: n = 24 at |q| = 8, 10 at 20,
    5 at 100.  On the Stokes line (q < 0) the neglected exponential adds
    exp(-4|q|^{3/2}/3) ~ 8e-14 at |q| = 8.  Measured against mpmath on
    q in [-60, 60]: 5.8e-14 relative for q <= -8 and 7.7e-15 for q >= 8;
  - |q| < RATIO_CROSSOVER: with w = -q real, z = omega w and the connection
    formula Ai(omega w) = e^{i pi/3}(Ai(w) - i Bi(w))/2 (DLMF 9.2.11)
    reduces Ai to the real-argument Cephes routines.  Ai(w) and Bi(w) are
    O(1) for w < 0 and Bi dominates for w > 0, so nothing cancels; the
    branch includes q = 0, where it gives Ai(0).  Measured: 4.3e-15
    relative, against 2.6e-14 for AMOS on the same points.

  A far point costs a square root, a division and n + 1 real
  multiply-adds, 0.04-0.06 us; a near one 0.3 us, against 3-10 us for
  ``sp.airye`` (AMOS), which computes Ai, Ai', Bi and Bi' at once;
* the logarithmic derivative Ai'/Ai, from one quotient of series for
  |z| >= 8: -sqrt(z) sum v_n s^n / sum u_n s^n with s = -1/zeta and
  v_n = -(6n+1)/(6n-1) u_n (DLMF 9.7.5, 9.7.6), cut at the order
  :func:`_series_order` gives for the call's least |zeta|.  Two entry
  points:

  - :func:`ratio_on_ray` (the u-integral, z = e^{-i pi/3} q, q real):
    the series for |q| >= RATIO_CROSSOVER; inside, from the connection formula
    above, omega-bar (Ai'(w) - i Bi'(w)) / (Ai(w) - i Bi(w)) with w = -q.
    The split is at 8 because scipy's real ``airy`` hands |w| > 10 to
    AMOS (2.5 us a point on [-16, -8], against 0.1 us on [-8, 0]).
    Measured against mpmath: 1.6e-14 relative for q in [0, 100], 1.1e-15
    for -8 < q < 0 and 1.2e-13 for q <= -8 (the Stokes line again).
    0.13-0.19 us a point for q >= 0, where the AMOS ratio cost 1.2-9 us;
  - :func:`airy_ratio` (general complex z, the z-route): the series for
    |z| >= RATIO_CROSSOVER (= 8) in the sector |arg z| <= 2 pi/3.
    Towards the negative real axis the series fails (|arg z| < pi is its
    limit), so no point off the sector is summed.  Measured against
    mpmath for |z| in [8, 40]: 2.8e-14 relative for |arg z| <= 1.6,
    1.2e-13 towards arg z = +-2 pi/3, and 5e-16 from |z| = 10 on;
    0.2 us a point.  Inside |z| < 8, a point within |Im q| <= 0.25 of
    the ray (q = e^{i pi/3} z) is continued from :func:`ratio_on_ray` at
    Re q by a Taylor series of Ai of order 16 (Ai'' = z Ai, DLMF 9.2.1):
    2e-15 relative against mpmath over the band, 0.4 us a point.  On
    x in [0.25, 4] at k = 1e3-1e5 every z-route point with |z| < 8 lies
    in the band; at k <= 1e3 and x outside that range some do not.  The
    rest is the quotient of the two ``sp.airye`` values while
    |z| <= R_MAX, 5-9 us a point.

:func:`wronskian` evaluates the constant W(z) = A(z)Ai'(z) - A'(z)Ai(z) of
A(z) = Ai(omega*z), omega = exp(2*pi*i/3), with A'(z) = omega*Ai'(omega*z);
it implements the reciprocal trick used to invert Ai on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as sp

from .errors import DomainError

__all__ = [
    "AiryValue",
    "OMEGA",
    "R_MAX",
    "RATIO_CROSSOVER",
    "RAY",
    "WRONSKIAN_ZERO",
    "ai_scaled_on_ray",
    "airy_ai",
    "airy_asymptotic",
    "airy_ratio",
    "ratio_on_ray",
    "ray_exponent",
    "wronskian",
]

#: rotation to the second Stokes sector
OMEGA = complex(np.exp(2j*np.pi/3))

#: e^{-i pi/3}: the ray z = e^{-i pi/3} q that carries every Airy argument
RAY = np.exp(-1j*np.pi/3.0)

#: supported evaluation radius for the direct Ai evaluation
R_MAX = 40.0

#: |z| (|q| on the ray) from which Ai'/Ai and scaled Ai sum their series
RATIO_CROSSOVER = 8.0

#: exact value of the constant Wronskian, (omega - 1) / (2*pi*sqrt(3))
WRONSKIAN_ZERO = (OMEGA - 1.0)/(2.0*np.pi*np.sqrt(3.0))

# correction coefficients u_n of the asymptotic series, u_0 = 1,
# u_{n+1} = u_n (6n+1)(6n+5) / (72 (n+1))
_U_COEFFS = [1.0]
for _n in range(24):
    _U_COEFFS.append(_U_COEFFS[-1]*(6*_n + 1)*(6*_n + 5)/(72.0*(_n + 1)))
MAX_ASYMPTOTIC_ORDER = len(_U_COEFFS) - 1

# 1/(2 sqrt(pi)) over the phase of z^{1/4} on the ray, for q > 0 and q < 0
_QUARTER_POS = np.exp(1j*np.pi/12.0)/(2.0*np.sqrt(np.pi))
_QUARTER_NEG = np.exp(-1j*np.pi/6.0)/(2.0*np.sqrt(np.pi))

# the coefficients v_n = -(6n+1)/(6n-1) u_n of the series of Ai' (DLMF 9.7.6)
_V_COEFFS = [-(6*n + 1)/(6*n - 1)*u for n, u in enumerate(_U_COEFFS)]

# |arg z| up to which airy_ratio sums the series; the slack admits points
# put on arg z = 2 pi/3 by a rounded e^{-i pi/3} q with q < 0
_SECTOR = 2.0*np.pi/3.0 + 1e-9

# |scaled Ai| below this flags proximity to a zero of Ai
_ZERO_PROXIMITY = 1e-12

# |Im q| of q = e^{i pi/3} z up to which airy_ratio continues Ai'/Ai from
# the ray by a Taylor series of Ai, and the order of that series
_RAY_BAND = 0.25
_RAY_TAYLOR_ORDER = 16


@dataclass(frozen=True)
class AiryValue:
    """Ai together with its derivative, each of the argument's shape."""

    value: Union[complex, np.ndarray]
    derivative: Union[complex, np.ndarray]


def _check_radius(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError("argument must be finite")
    if np.abs(z).max(initial=0.0) > R_MAX:
        raise DomainError(
            "|z| = %.3g outside the supported evaluation radius R_MAX = %.3g"
            % (np.abs(z).max(), R_MAX))
    return z


def airy_ai(z) -> AiryValue:
    """Ai(z) and Ai'(z) for complex z with |z| <= R_MAX, elementwise."""
    ai, aip, _, _ = sp.airy(_check_radius(z))
    return AiryValue(ai[()], aip[()])


def wronskian(z):
    """A(z)Ai'(z) - A'(z)Ai(z), elementwise; constant (equals WRONSKIAN_ZERO).

    W = Ai(omega p) Ai'(p) - omega Ai'(omega p) Ai(p) with p = z, except
    for arg z in (pi/3, pi], where Ai(z) and Ai(omega z) are both dominant
    and the products cancel to exp(-4|z|^{3/2}/3) of their size (no digits
    left beyond |z| ~ 6).  There p = omega z: by the connection formula
    Ai(z) + omega Ai(omega z) + omega^2 Ai(omega^2 z) = 0 the pair
    (omega z, omega^2 z), whose second member is recessive, has the same W.
    """
    z = np.asarray(z, dtype=complex)
    p = np.where(np.angle(z) > np.pi/3.0, OMEGA*z, z)
    ai, ro = airy_ai(p), airy_ai(OMEGA*p)
    return (ro.value*ai.derivative - OMEGA*ro.derivative*ai.value)[()]


def airy_asymptotic(z, order: int = 0):
    """Large-|z| form of Ai with the correction series through ``order``.

    Returns (2 sqrt(pi) z^{1/4})^{-1} exp(-2 z^{3/2}/3) * sum_{n<=order}
    u_n (-1/zeta)^n with zeta = 2 z^{3/2}/3, on principal branches, with
    z^{3/2} = z sqrt(z) and z^{1/4} = sqrt(sqrt(z)), elementwise.  Valid in
    the sector |arg z| < pi - 0.01 and for |z| >= 2.
    """
    z = np.asarray(z, dtype=complex)
    if order < 0 or order > MAX_ASYMPTOTIC_ORDER:
        raise DomainError("order must be in [0, %d]" % MAX_ASYMPTOTIC_ORDER)
    if not (np.isfinite(z) & (np.abs(z) >= 2.0)).all():
        raise DomainError("asymptotic form requires finite z with |z| >= 2")
    arg = np.abs(np.angle(z)).max(initial=0.0)
    if arg >= np.pi - 0.01:
        raise DomainError("|arg z| = %.3f outside |arg z| < pi - 0.01" % arg)
    root = np.sqrt(z)
    zeta = (2.0/3.0)*z*root
    series = _horner(_U_COEFFS[:order + 1], -1.0/zeta)
    return (np.exp(-zeta)/(2.0*np.sqrt(np.pi)*np.sqrt(root))*series)[()]


def ray_exponent(q):
    """(2/3) z^{3/2} on the principal branch at z = e^{-i pi/3} q, q real.

    -i (2/3) q^{3/2} for q >= 0 (arg z = -pi/3) and -(2/3)|q|^{3/2} for
    q < 0 (arg z = 2 pi/3): the exponent by which ``sp.airye`` and
    :func:`ai_scaled_on_ray` scale Ai.
    """
    q = np.asarray(q, dtype=float)
    aq = np.abs(q)
    r = (2.0/3.0)*aq*np.sqrt(aq)
    return np.where(q >= 0, -1j*r, -r + 0j)


def _series_order(r_min: float) -> int:
    """Smallest n with u_{n+1}/r_min^{n+1} < 2^-56, at most the last order."""
    for n in range(MAX_ASYMPTOTIC_ORDER):
        if _U_COEFFS[n + 1] < 2.0**-56*r_min**(n + 1):
            return n
    return MAX_ASYMPTOTIC_ORDER


def _horner(coeffs, x):
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc *= x
        acc += c
    return acc


def ai_scaled_on_ray(q):
    """Ai(z) exp((2/3) z^{3/2}) at z = e^{-i pi/3} q for real q, elementwise.

    The same value as ``sp.airye(z)[0]``, from the asymptotic series for
    |q| >= RATIO_CROSSOVER and the real-argument connection formula inside;
    see the module docstring for the truncation and the accuracy of each
    branch.
    """
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape, dtype=complex)
    far = np.abs(q) >= RATIO_CROSSOVER
    if far.any():
        qf = q[far]
        neg = qf < 0
        root = np.sqrt(np.abs(qf))
        inv_r = 1.0/((2.0/3.0)*np.abs(qf)*root)
        n = _series_order(1.0/inv_r.max())
        # sum u_m t^m = E(t^2) + t O(t^2), t = -i/r (q > 0) or 1/r (q < 0)
        t2 = np.where(neg, inv_r, -inv_r)*inv_r
        t = np.where(neg, 1.0 + 0j, -1j)
        t *= inv_r
        series = t*_horner(_U_COEFFS[1:n + 1:2], t2)
        series += _horner(_U_COEFFS[0:n + 1:2], t2)
        # over 2 sqrt(pi) z^{1/4}, z^{1/4} = |q|^{1/4} e^{-i pi/12 or i pi/6}
        series *= np.where(neg, _QUARTER_NEG, _QUARTER_POS)/np.sqrt(root)
        out[far] = series
    near = ~far
    if near.any():
        qn = q[near]
        ai, _, bi, _ = sp.airy(-qn)
        out[near] = (0.5*np.exp(1j*np.pi/3.0)*(ai - 1j*bi)
                     * np.exp(ray_exponent(qn)))
    return out[()]


def ratio_on_ray(q):
    """Ai'(z)/Ai(z) at z = e^{-i pi/3} q for real q, elementwise.

    |q| >= RATIO_CROSSOVER: the quotient of the DLMF 9.7.5 and 9.7.6 series;
    inside, the real-argument connection formula
    omega-bar (Ai'(w) - i Bi'(w)) / (Ai(w) - i Bi(w)), w = -q.  Ai has no
    zeros on the ray, so no proximity guard is needed.
    """
    q = np.asarray(q, dtype=float)
    out = np.empty(q.shape, dtype=complex)
    far = np.abs(q) >= RATIO_CROSSOVER
    if far.any():
        out[far] = _ratio_series(RAY*q[far])
    near = ~far
    if near.any():
        ai, aip, bi, bip = sp.airy(-q[near])
        out[near] = np.conj(OMEGA)*(aip - 1j*bip)/(ai - 1j*bi)
    return out[()]


def _ratio_series(z):
    """-sqrt(z) sum v_m s^m / sum u_m s^m, s = -1/zeta, for complex z.

    Cut at the order :func:`_series_order` gives for the least |zeta|.
    """
    root = np.sqrt(z)
    s = -1.0/((2.0/3.0)*z*root)
    n = _series_order(1.0/np.abs(s).max())
    return -root*_horner(_V_COEFFS[:n + 1], s)/_horner(_U_COEFFS[:n + 1], s)


def _ratio_near_ray(q):
    """Ai'(z)/Ai(z) at z = e^{-i pi/3} q for complex q near the real axis.

    Continues from the ray point z0 = e^{-i pi/3} Re q, where
    :func:`ratio_on_ray` gives R0 = Ai'/Ai(z0), to z = z0 + h with
    h = e^{-i pi/3} i Im q: P(h) = Ai(z0 + h)/Ai(z0) = sum a_n h^n has
    a_0 = 1, a_1 = R0 and (n+1)(n+2) a_{n+2} = z0 a_n + a_{n-1}, from
    Ai'' = z Ai (DLMF 9.2.1), and the ratio is P'(h)/P(h).
    """
    z0 = RAY*q.real
    h = (RAY*1j)*q.imag
    # summed upwards, holding three coefficients: a_{n-3}, a_{n-2}, a_{n-1}
    # and h^{n-1} on entry to step n
    a2, a1, a = 0.0, 1.0, ratio_on_ray(q.real)
    p, dp, hn = 1.0 + a*h, a.copy(), h.copy()
    for n in range(2, _RAY_TAYLOR_ORDER + 1):
        a2, a1, a = a1, a, (z0*a1 + a2)/(n*(n - 1))
        dp += n*a*hn
        hn *= h
        p += a*hn
    return dp/p


def airy_ratio(z):
    """Logarithmic derivative Ai'(z)/Ai(z), scalar or elementwise on arrays.

    Points with |z| >= RATIO_CROSSOVER and |arg z| <= 2 pi/3 are summed from
    the differentiated asymptotic series (DLMF 9.7.5, 9.7.6).  Points with
    |z| < RATIO_CROSSOVER within |Im q| <= 0.25 of the ray z = e^{-i pi/3} q
    are continued from it by :func:`_ratio_near_ray`; the zeros of Ai lie
    on the negative real axis, at least 2.02 from the ray, so none of them
    is near.  The others are formed directly from AMOS, which covers
    |z| <= R_MAX.  Arguments too close to a zero of Ai raise
    :class:`DomainError`; proximity is measured on the exponentially scaled
    modulus so the test is meaningful in the decaying sector as well.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(zv)
    inside = np.abs(zv) < RATIO_CROSSOVER
    far = ~inside & (np.abs(np.angle(zv)) <= _SECTOR)
    if far.any():
        out[far] = _ratio_series(zv[far])
    # Im q of q = e^{i pi/3} z, formed without q at every point
    near = inside & (np.abs(RAY.real*zv.imag - RAY.imag*zv.real)
                     <= _RAY_BAND)
    if near.any():
        out[near] = _ratio_near_ray(np.conj(RAY)*zv[near])
    direct = ~(far | near)
    if direct.any():
        zs = zv[direct]
        if np.abs(zs).max() > R_MAX:
            raise DomainError(
                "Ai'/Ai requested at |z| > R_MAX = %.3g outside the sector "
                "|arg z| <= 2 pi/3 of its asymptotic series" % R_MAX)
        # Ai and Ai' carry the same scale factor, which cancels in the ratio
        eai, eaip, _, _ = sp.airye(zs)
        if np.any(np.abs(eai) < _ZERO_PROXIMITY):
            raise DomainError(
                "evaluation too close to a zero of Ai (scaled |Ai| < %.1e)"
                % _ZERO_PROXIMITY)
        out[direct] = eaip/eai
    return complex(out[0]) if scalar else out
