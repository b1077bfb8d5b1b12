"""Complex Airy function kernel: Ai, the Wronskian with Ai(omega*z), Ai'/Ai.

Everything downstream (the spectral quotient, the reciprocal Wronskian
factor, the grazing-amplitude integrals) reduces to four ingredients, each
elementwise on arrays (a scalar argument gives a scalar).  Every public
kernel refuses a non-finite point, or one beyond R_MAX sent to AMOS, with
:class:`DomainError` through one check:

* Ai and Ai' on a bounded disk |z| <= R_MAX, evaluated by the AMOS library
  (Amos 1986, ACM TOMS 12:265) through scipy (relative accuracy ~1e-13
  there, including the sector near the positive real axis where Ai is
  maximally subdominant and series summation in double precision cannot
  reach 1e-10).  ``scipy.special`` is imported inside the two functions
  that call AMOS, :func:`airy_ai` and the off-band points of
  :func:`airy_ratio`, so a process that evaluates Ai only on or near the
  ray never loads it (about 0.2 s and 20 MB);
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
  - |q| < RATIO_CROSSOVER: F(q) = Ai(e^{-i pi/3} q) from one Taylor table,
    times exp((2/3) z^{3/2}).  On the ray Ai'' = z Ai (DLMF 9.2.1) reads
    F'' = -q F, so the Taylor coefficients at any centre follow from F
    and F' there.  The table holds, for the 33 centres q_j = j/2, those
    of h^0 .. h^18 in F(q_j + h); a point takes the centre nearest it
    (|h| <= 1/4) and one Horner loop, which gives F' as well.  It is built
    at import, in about 0.6 ms, by marching F'' = -q F outward from
    Ai(0) = 3^{-2/3}/Gamma(2/3) and Ai'(0) = -3^{-1/3}/Gamma(1/3) in
    steps of 1/2, each an order-40 series (the ODE-Taylor method; Gil,
    Segura and Temme, Numerical Methods for Special Functions, SIAM
    2007).  Both directions are stable: F oscillates for q > 0 and is
    the dominant solution for q < 0.  Measured against 40-digit mpmath
    on 1,665 points of (-8, 8), cell edges included: 8e-16 relative for
    F, and 3.2e-15 for the scaled value, whose phase (2/3) q^{3/2} ~ 15
    is rounded by about 2 ulp.

  A far point costs a square root, a division and n + 1 real
  multiply-adds, 0.04-0.06 us; a near one 0.1 us, against 3-10 us for
  ``sp.airye`` (AMOS), which computes Ai, Ai', Bi and Bi' at once;
* the logarithmic derivative Ai'/Ai, from one quotient of series for
  |z| >= 8: -sqrt(z) sum v_n s^n / sum u_n s^n with s = -1/zeta and
  v_n = -(6n+1)/(6n-1) u_n (DLMF 9.7.5, 9.7.6), cut at the order
  :func:`_series_order` gives for the call's least |zeta|.  Two entry
  points:

  - :func:`ratio_on_ray` (the u-integral, z = e^{-i pi/3} q, q real):
    the series for |q| >= RATIO_CROSSOVER; inside, e^{i pi/3} F'/F from
    the table.  Measured against mpmath: 8.8e-16 relative for |q| < 8,
    1.6e-14 for q in [8, 100] and 1.2e-13 for q <= -8 (the Stokes line
    again); 0.1 us a near point, against 1.2-9 us for the AMOS ratio;
  - :func:`airy_ratio` (general complex z, the z-route): the series for
    |z| >= RATIO_CROSSOVER (= 8) in the sector |arg z| <= 2 pi/3.
    Towards the negative real axis the series fails (|arg z| < pi is its
    limit), so no point off the sector is summed.  Measured against
    mpmath for |z| in [8, 40]: 2.8e-14 relative for |arg z| <= 1.6,
    1.2e-13 towards arg z = +-2 pi/3, and 5e-16 from |z| = 10 on;
    0.2 us a point.  Inside |z| < 8, a point within |Im q| <= 0.25 of
    the ray (q = e^{i pi/3} z) takes F'/F from the same table at complex
    h (|h| <= 0.36, where order 18 leaves ~1e-17): 2e-15 relative
    against mpmath over the band, most of it the rounding of q.  On
    x in [0.25, 4] at k = 1e3-1e5 every z-route point with |z| < 8 lies
    in the band; at k <= 1e3 and x outside that range some do not.  The
    rest is the quotient of the two ``sp.airye`` values while
    |z| <= R_MAX, 5-9 us a point.

:func:`wronskian` evaluates the constant W(z) = A(z)Ai'(z) - A'(z)Ai(z) of
A(z) = Ai(omega*z), omega = exp(2*pi*i/3), with A'(z) = omega*Ai'(omega*z);
it implements the reciprocal trick used to invert Ai on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

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

# |Im q| of q = e^{i pi/3} z up to which airy_ratio takes Ai'/Ai from the
# ray's Taylor table
_RAY_BAND = 0.25

# the Taylor table of F(q) = Ai(e^{-i pi/3} q): centres q_j = j/2 for
# |j| <= 16, the order of each row, and the order of the steps that build it
_TABLE_STEP = 0.5
_TABLE_HALF = int(RATIO_CROSSOVER/_TABLE_STEP)
_TABLE_ORDER = 18
_MARCH_ORDER = 40


def _ray_taylor(a0, a1, c: float) -> list:
    """a_0 .. a_40 of F(c + h) = sum a_n h^n, given a_0 = F(c), a_1 = F'(c).

    From F'' = -q F: (n+1)(n+2) a_{n+2} = -(c a_n + a_{n-1}), a_{-1} = 0.
    """
    a = [a0, a1]
    for n in range(_MARCH_ORDER - 1):
        a.append(-(c*a[n] + (a[n - 1] if n else 0.0))/((n + 1)*(n + 2)))
    return a


def _build_ray_table() -> np.ndarray:
    """Rows n = 0..18 of the table, one column per centre q_j, j = -16..16.

    Marched outward from F(0) = Ai(0) and F'(0) = e^{-i pi/3} Ai'(0)
    (DLMF 9.2.3, 9.2.4); see the module docstring.
    """
    start = _ray_taylor(complex(3.0**(-2.0/3.0)/math.gamma(2.0/3.0)),
                        -RAY*3.0**(-1.0/3.0)/math.gamma(1.0/3.0), 0.0)
    cols = {0: start}
    for sign in (1, -1):
        a, h = start, sign*_TABLE_STEP
        for j in range(sign, sign*(_TABLE_HALF + 1), sign):
            value = slope = 0.0
            for c in reversed(a):
                slope = slope*h + value
                value = value*h + c
            a = cols[j] = _ray_taylor(value, slope, j*_TABLE_STEP)
    return np.array([cols[j][:_TABLE_ORDER + 1]
                     for j in range(-_TABLE_HALF, _TABLE_HALF + 1)]).T.copy()


_RAY_TABLE = _build_ray_table()


@dataclass(frozen=True)
class AiryValue:
    """Ai together with its derivative, each of the argument's shape."""

    value: Union[complex, np.ndarray]
    derivative: Union[complex, np.ndarray]


def _check(z, dtype=complex, radius=np.inf) -> np.ndarray:
    """z as an array of ``dtype``, refused unless finite with |z| <= radius."""
    z = np.asarray(z, dtype=dtype)
    if not np.isfinite(z).all():
        raise DomainError("argument must be finite")
    if radius < np.inf and np.abs(z).max(initial=0.0) > radius:
        raise DomainError(
            "|z| = %.3g outside the supported evaluation radius R_MAX = %.3g"
            % (np.abs(z).max(), radius))
    return z


def airy_ai(z) -> AiryValue:
    """Ai(z) and Ai'(z) for complex z with |z| <= R_MAX, elementwise."""
    from scipy import special as sp
    ai, aip, _, _ = sp.airy(_check(z, radius=R_MAX))
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
    z = _check(z)
    if order < 0 or order > MAX_ASYMPTOTIC_ORDER:
        raise DomainError("order must be in [0, %d]" % MAX_ASYMPTOTIC_ORDER)
    if np.abs(z).min(initial=np.inf) < 2.0:
        raise DomainError("asymptotic form requires |z| >= 2")
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
    q = _check(q, float)
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
    |q| >= RATIO_CROSSOVER and the ray's Taylor table inside; see the
    module docstring for the truncation and the accuracy of each branch.
    """
    q = _check(q, float)
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
        out[near] = _ray_table(qn)[0]*np.exp(ray_exponent(qn))
    return out[()]


def ratio_on_ray(q):
    """Ai'(z)/Ai(z) at z = e^{-i pi/3} q for real q, elementwise.

    |q| >= RATIO_CROSSOVER: the quotient of the DLMF 9.7.5 and 9.7.6 series;
    inside, the ray's Taylor table.  Ai has no zeros on the ray, so no
    proximity guard is needed.
    """
    q = _check(q, float)
    out = np.empty(q.shape, dtype=complex)
    far = np.abs(q) >= RATIO_CROSSOVER
    if far.any():
        out[far] = _ratio_series(RAY*q[far])
    near = ~far
    if near.any():
        out[near] = _ratio_table(q[near])
    return out[()]


def _ratio_series(z):
    """-sqrt(z) sum v_m s^m / sum u_m s^m, s = -1/zeta, for complex z.

    Cut at the order :func:`_series_order` gives for the least |zeta|.
    """
    root = np.sqrt(z)
    s = -1.0/((2.0/3.0)*z*root)
    n = _series_order(1.0/np.abs(s).max())
    return -root*_horner(_V_COEFFS[:n + 1], s)/_horner(_U_COEFFS[:n + 1], s)


def _ray_table(q, slope: bool = False):
    """F(q) = Ai(e^{-i pi/3} q), and F'(q) if ``slope`` (else None).

    q is an array with |Re q| < RATIO_CROSSOVER, real or complex; one
    Horner loop in h = q - q_j from the centre q_j nearest Re q.
    """
    j = np.rint(q.real/_TABLE_STEP)
    h = q - _TABLE_STEP*j
    col = (j + _TABLE_HALF).astype(np.intp)
    value = _RAY_TABLE[-1].take(col)
    deriv = np.zeros_like(value) if slope else None
    for row in _RAY_TABLE[-2::-1]:
        if slope:
            deriv *= h
            deriv += value
        value *= h
        value += row.take(col)
    return value, deriv


def _ratio_table(q):
    """Ai'(z)/Ai(z) at z = e^{-i pi/3} q from the table: e^{i pi/3} F'/F."""
    value, deriv = _ray_table(q, slope=True)
    return deriv*np.conj(RAY)/value


def airy_ratio(z):
    """Logarithmic derivative Ai'(z)/Ai(z), scalar or elementwise on arrays.

    Points with |z| >= RATIO_CROSSOVER and |arg z| <= 2 pi/3 are summed from
    the differentiated asymptotic series (DLMF 9.7.5, 9.7.6).  Points with
    |z| < RATIO_CROSSOVER within |Im q| <= 0.25 of the ray z = e^{-i pi/3} q
    come from the ray's Taylor table at complex q; the zeros of Ai lie
    on the negative real axis, at least 2.02 from the ray, so none of them
    is near.  The others are formed directly from AMOS, which covers
    |z| <= R_MAX.  Arguments too close to a zero of Ai raise
    :class:`DomainError`; proximity is measured on the exponentially scaled
    modulus so the test is meaningful in the decaying sector as well.
    """
    scalar = np.isscalar(z) or np.ndim(z) == 0
    zv = np.atleast_1d(_check(z))
    out = np.empty_like(zv)
    inside = np.abs(zv) < RATIO_CROSSOVER
    far = ~inside & (np.abs(np.angle(zv)) <= _SECTOR)
    if far.any():
        out[far] = _ratio_series(zv[far])
    # Im q of q = e^{i pi/3} z, formed without q at every point
    near = inside & (np.abs(RAY.real*zv.imag - RAY.imag*zv.real)
                     <= _RAY_BAND)
    if near.any():
        out[near] = _ratio_table(np.conj(RAY)*zv[near])
    direct = ~(far | near)
    if direct.any():
        from scipy import special as sp
        # Ai and Ai' carry the same scale factor, which cancels in the ratio
        eai, eaip, _, _ = sp.airye(_check(zv[direct], radius=R_MAX))
        if np.any(np.abs(eai) < _ZERO_PROXIMITY):
            raise DomainError(
                "evaluation too close to a zero of Ai (scaled |Ai| < %.1e)"
                % _ZERO_PROXIMITY)
        out[direct] = eaip/eai
    return complex(out[0]) if scalar else out
