"""Airy-quotient representation of the wave reflected by the boundary x = 0.

For boundary data f on x = 0 the solution of (1+x) u_tt = u_xx + u_yy with
u = 0 for t << 0 is

    w(x, y, t) = (2 pi)^{-2} int e^{i(y eta + t tau)}
                 Ai(zeta(x, eta, tau)) / Ai(zeta(0, eta, tau))
                 fhat(eta, tau) d eta d tau,

with zeta = beta (1 + x - eta^2/tau^2), beta^3 = -tau^2 and the branch of
beta fixed by boundedness in Im tau < 0.  This module provides zeta and its
branch bookkeeping, the boundary transform fhat of the beam trace (both
with the beam frame frozen at y = 0 and with the full frame), the
four-variable phase and amplitude of the oscillatory-integral form obtained
after stretching (eta, tau) = k (mu, nu) and inverting Ai through the
constant Wronskian, and a direct numerical evaluation of w from the
three-fold (z, mu, nu) representation.  The direct evaluation is the
top-level oracle against which the asymptotic routes are checked.

Convention: fractional powers of the negative variable nu are taken as
powers of |nu| = -nu, analytically continued to complex nu near -1 through
principal powers of (-nu).  :func:`neg_power` owns this rule.
"""

from __future__ import annotations

import math

import numpy as np

from . import airy
from .errors import DomainError
from .quadrature import (DampingProfile, IntegrandSpec, QuadratureResult,
                         integrate_1d, kronrod_panels, truncation_radius)
from .raybeam import closed_frame

__all__ = [
    "airy_quotient",
    "amplitude_Z",
    "boundary_exponent_frozen",
    "boundary_exponent_full",
    "boundary_hat_frozen",
    "boundary_hat_full",
    "boundary_prefactor_full",
    "exact_solution",
    "neg_power",
    "phase_full",
    "reciprocal_airy_factor",
    "scaled_branch",
    "zeta",
]


def neg_power(nu, alpha: float):
    """|nu|^alpha for real nu < 0, continued as (-nu)^alpha (principal) off axis."""
    return np.asarray(-nu, dtype=complex)**alpha if np.ndim(nu) else (-nu + 0j)**alpha


def zeta(x: float, eta: float, tau: float) -> complex:
    """zeta(x, eta, tau) = beta (1 + x - eta^2/tau^2) on the bounded branch.

    beta = |tau|^{2/3} e^{+i pi/3} for tau > 0 and |tau|^{2/3} e^{-i pi/3}
    for tau < 0, so that Re beta^{3/2} >= 0 and the Airy quotient stays
    bounded for x > 0; beta itself is zeta(0, 0, tau).
    """
    if tau == 0:
        raise DomainError("tau = 0: zeta undefined")
    beta = abs(tau)**(2.0/3.0)*np.exp(1j*np.pi/3.0*np.sign(tau))
    return complex(beta*(1.0 + x - eta*eta/(tau*tau)))


def scaled_branch(x, mu, nu, k: float):
    """(s, q(x), q(0)) of the bounded branch at (eta, tau) = k (mu, nu).

    beta = (|nu| k)^{2/3} e^{-i pi/3} = e^{-i pi/3} s, and
    zeta(x, k mu, k nu) = e^{-i pi/3} q(x) with q(x) = s (1 + x - mu^2/nu^2);
    (2/3) zeta^{3/2} is :func:`airy.ray_exponent` of q.  s and q are real
    for real nu < 0 (floats or arrays); complex nu continues |nu|^{2/3}
    through :func:`neg_power`.
    """
    scale = (k**(2.0/3.0)*neg_power(nu, 2.0/3.0) if np.iscomplexobj(nu)
             else (-nu*k)**(2.0/3.0))
    m2 = (mu/nu)**2
    return scale, scale*(1.0 + x - m2), scale*(1.0 - m2)


def airy_quotient(x, mu, nu, k: float):
    """Ai(zeta(x, k mu, k nu)) / Ai(zeta(0, k mu, k nu)), array-safe and stable.

    Both arguments lie on the ray e^{-i pi/3} q with q real: q = (|nu| k)^{2/3}
    (1 + x - mu^2/nu^2) and the same without x.  The exponentially scaled
    values of :func:`airy.ai_scaled_on_ray` keep the quotient representable
    when numerator and denominator leave double range (large |zeta| with
    mu^2 > nu^2).  One broadcast expression over the whole input: the only
    block loop is the one over s-columns in :func:`exact_solution`.
    """
    x, mu, nu = (np.asarray(a, dtype=float) for a in (x, mu, nu))
    if np.any(nu >= 0):
        raise DomainError("airy_quotient is implemented for nu < 0")
    _, qx, q0 = scaled_branch(x, mu, nu, k)
    return (airy.ai_scaled_on_ray(qx)/airy.ai_scaled_on_ray(q0)
            * np.exp(airy.ray_exponent(q0) - airy.ray_exponent(qx)))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def boundary_exponent_frozen(z, mu, nu):
    """Frozen-frame boundary exponent rho with (eta, tau) = k (mu, nu).

    rho = nu t(z) + mu z + z^3/8 - i z^4/32 - i (nu + 1)^2 / 2, the
    integrand of the frozen transform being e^{-i k rho}.
    """
    z = np.asarray(z, dtype=float)
    return (nu*(z + z**3/12.0) + mu*z + z**3/8.0 - 1j*z**4/32.0
            - 0.5j*(nu + 1.0)**2)


def boundary_exponent_full(z, mu, nu):
    """Full-frame boundary exponent using the y-dependent beam matrix.

    rho = nu t(z) + mu z + z^3/8 - z^4 M11(z)/32
          + (nu + 1 + z^2 M12(z)/4)^2 / (2 M22(z)).

    At nu = -1 the difference from the frozen exponent is O(z^5); the
    vertex entries M(0) = i I reduce it to the frozen form at z = 0.
    """
    z = np.asarray(z, dtype=float)
    _, M, _ = closed_frame(z)
    return (nu*(z + z**3/12.0) + mu*z + z**3/8.0 - z**4*M[0, 0]/32.0
            + (nu + 1.0 + z*z*M[0, 1]/4.0)**2/(2.0*M[1, 1]))


def boundary_prefactor_full(z, k: float):
    """Amplitude factor (2 pi / (-i k M22(z)))^{1/2} a(z) of the full transform.

    Scaled by k^{1/2} it deviates from (2 pi)^{1/2} by O(z).
    """
    _, M, a = closed_frame(np.asarray(z, dtype=float))
    return np.sqrt(2.0*np.pi/(-1j*k*M[1, 1]))*a


def _boundary_transform(eta: float, tau: float, k: float, tol: float,
                        damping: float, integrand) -> complex:
    """int integrand(z, mu, nu) dz at (mu, nu) = (eta, tau)/k.

    Damped adaptive quadrature (error target tol (1 + |value|)/2) over the
    window that e^{-damping z^4} cuts off, with the oscillation bound of
    the beam phase over that window.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    mu, nu = eta/k, tau/k
    radius = truncation_radius(damping, 4, tol/10.0)
    osc = abs(eta) + abs(tau)*(1.0 + radius**2/4.0) + 3.0*k*radius**2/8.0
    spec = IntegrandSpec(lambda z: integrand(z, mu, nu),
                         DampingProfile(damping, 4), osc)
    return integrate_1d(spec, tol).value


def boundary_hat_frozen(eta: float, tau: float, k: float,
                        tol: float = 1e-8) -> complex:
    """Transform of the beam trace with the frame frozen at its vertex value.

    (2 pi / k)^{1/2} int e^{-i k rho(z)} dz with rho =
    :func:`boundary_exponent_frozen`.  Its constant term gives the factor
    e^{-(tau + k)^2/(2k)}, applied after the quadrature so that the
    adaptive error target, absolute below |value| = 1, acts on the bare
    z-integral and not on a product that reaches 1e-30 far from tau = -k.
    """
    def f(z, mu, nu):
        return np.exp(-1j*k*(boundary_exponent_frozen(z, mu, nu)
                             - boundary_exponent_frozen(0.0, mu, nu)))

    value = _boundary_transform(eta, tau, k, tol, k/32.0, f)
    return math.sqrt(2.0*math.pi/k)*math.exp(-(tau + k)**2/(2.0*k))*value


def boundary_hat_full(eta: float, tau: float, k: float,
                      tol: float = 1e-8) -> complex:
    """Boundary transform with the full y-dependent frame and amplitude."""
    def f(z, mu, nu):
        return (boundary_prefactor_full(z, k)
                * np.exp(-1j*k*boundary_exponent_full(z, mu, nu)))

    return _boundary_transform(eta, tau, k, tol, 0.7*k/32.0, f)


# ---------------------------------------------------------------------------
# stretched four-variable phase and amplitude
# ---------------------------------------------------------------------------

def phase_full(t: float, x: float, y: float, z: float,
               mu: float, nu: float, T: float) -> complex:
    """The stretched phase Phi(t, x, y, z, mu, nu, T).

    Phi = y mu + t nu - rho(z, mu, nu) + (2|nu|/3)(1 + x - mu^2/nu^2)^{3/2}
          - |nu|^{2/3}(1 - mu^2/nu^2) T + T^3/3

    for nu < 0 and 1 + x - mu^2/nu^2 >= 0, with rho from
    :func:`boundary_exponent_frozen`; the Airy and T terms are
    i :func:`airy.ray_exponent` (q(x)) - q(0) T with q from
    :func:`scaled_branch` at k = 1.
    """
    if nu >= 0:
        raise DomainError("phase requires nu < 0")
    scale, qx, q0 = scaled_branch(x, mu, nu, 1.0)
    if qx < 0:
        raise DomainError(
            "radicand 1 + x - mu^2/nu^2 = %.3g is negative" % (qx/scale))
    return complex(y*mu + t*nu - boundary_exponent_frozen(z, mu, nu)
                   + 1j*airy.ray_exponent(qx) - q0*T + T**3/3.0)


def _reciprocal_bracket(T, k: float, z0):
    """i k^{1/3} T - omega Ai'/Ai(z0), z0 = zeta(0, k mu, k nu)."""
    return 1j*k**(1.0/3.0)*np.asarray(T) - airy.OMEGA*airy.airy_ratio(z0)


def reciprocal_airy_factor(T, mu: float, nu: float, k: float):
    """Integrand factor i k^{1/3} T - omega Ai'/Ai(zeta(0, k mu, k nu)).

    Integrated against e^{i k [-|nu|^{2/3}(1 - mu^2/nu^2) T + T^3/3]} k^{1/3}
    dT / (2 pi W(0)) this reproduces 1/Ai(zeta(0, k mu, k nu)); the factor
    itself is what multiplies the amplitude of the reflected-wave integral.
    """
    if nu >= 0:
        raise DomainError("the scaled branch requires nu < 0")
    if k <= 0:
        raise ValueError("k must be positive")
    return _reciprocal_bracket(T, k, airy.RAY*scaled_branch(0.0, mu, nu, k)[2])


def amplitude_Z(k: float, x: float, mu, nu, T):
    """Leading amplitude Z(k, x, mu, nu, T) of the four-fold representation.

    Z = k^{11/6} / (sqrt(2) (2 pi)^3 W(0))
        * (i k^{1/3} T - omega Ai'/Ai(zeta(0, k mu, k nu)))
        * zeta(x, k mu, k nu)^{-1/4},

    without the O(k^{-1}) correction.  ``mu``, ``nu``, ``T`` may be complex
    near the steepest-descent point nu = -1 + iC; the |nu| powers continue
    via :func:`neg_power`.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    _, qx, q0 = scaled_branch(x, mu, nu, k)
    front = k**(11.0/6.0)/(np.sqrt(2.0)*(2.0*np.pi)**3*airy.WRONSKIAN_ZERO)
    return front*_reciprocal_bracket(T, k, airy.RAY*q0)*(airy.RAY*qx)**-0.25


# ---------------------------------------------------------------------------
# direct evaluation of the reflected wave (the oracle)
# ---------------------------------------------------------------------------

def _window_rates(x, y, t, k, z_max, s_lo, s_hi, nu_half):
    """Largest |dPhi/du| on a 9^3 grid of the box, for u = z, s and nu.

    Phi = y mu + t nu - rho(z, mu, nu) + (quotient phase) at mu = s - nu is
    the one exponent of the oracle's integrand; central differences.
    """
    def phi(zsn):
        z, s, nu = zsn
        # ray_exponent is real where q < 0, so .imag keeps only q >= 0
        _, qx, q0 = scaled_branch(x, s - nu, nu, k)
        return (y*(s - nu) + t*nu - boundary_exponent_frozen(z, s - nu, nu)
                + (airy.ray_exponent(q0) - airy.ray_exponent(qx)).imag/k)

    box = np.array(np.meshgrid(np.linspace(-z_max, z_max, 9),
                               np.linspace(s_lo, s_hi, 9),
                               np.linspace(-1.0 - nu_half, -1.0 + nu_half, 9),
                               indexing="ij"))
    h = 1e-5
    return tuple(float(np.abs(phi(box + e) - phi(box - e)).max()/(2.0*h))
                 for e in h*np.eye(3)[:, :, None, None, None])


#: most points in a block's quotient or e^{-ikzs} (132 s-columns at k = 1e3)
_QUOTIENT_BLOCK = 1 << 17


def _axis_nodes(lo, hi, rate_per_unit, k):
    """Kronrod nodes/weights (K and G variants) tiling [lo, hi]."""
    cycles = (hi - lo)*rate_per_unit*k/(2.0*math.pi)
    n_panels = int(np.clip(math.ceil(cycles/1.5) + 2, 4, 700))
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, half, wk, wg = kronrod_panels(edges[:-1], edges[1:])
    return (nodes.ravel(), np.outer(half, wk).ravel(),
            np.outer(half, wg).ravel(), n_panels)


def exact_solution(x: float, y: float, t: float, k: float,
                   tol: float = 0.02) -> QuadratureResult:
    """Evaluate the reflected wave from its three-fold representation.

    Integrates (k/2 pi)^{3/2} times the (z, s, nu) integrand
    e^{i k Phi} Ai(zeta(x))/Ai(zeta(0)) with s = mu + nu, using the exact
    Airy quotient (no asymptotic substitutions).  Truncation windows come
    from the explicit Gaussian factors e^{-k z^4/32} and e^{-k (nu+1)^2/2};
    the s window covers the stationary set of the phase with a fixed pad,
    outside of which the phase is uniformly non-stationary.  Tensor-product
    Kronrod panels are used on all three axes with per-axis embedded-Gauss
    error estimates; if the summed estimate exceeds ``tol`` relative the
    result is returned flagged (``converged=False``) rather than raised.
    The tensor rule is summed over blocks of s-columns, one
    :func:`airy_quotient` call each (the oracle's one block loop), so only
    the nu x z factor is held whole: 3.3 MB at k = 1e3 and 15 MB at k = 1e4.
    """
    if x <= 0:
        raise DomainError("the representation is evaluated in x > 0")
    if k <= 0:
        raise ValueError("k must be positive")
    tail = 1e-8
    z_max = (32.0*math.log(1.0/tail)/k)**0.25
    nu_half = math.sqrt(2.0*math.log(1.0/tail)/k)
    if nu_half >= 1.0:
        raise DomainError(
            "the oracle needs k > 2 ln(1/tail) = %.4g so that its nu-window "
            "-1 +- sqrt(2 ln(1/tail)/k) stays in nu < 0; got k = %g"
            % (2.0*math.log(1.0/tail), k))

    # s-window from the stationary set s* = nu (1 + r(x, y - z)) over the
    # damped part of the z-window (admissible y - z only)
    from .stationary import root_r
    span_lo = max(1e-6, y - 0.85*z_max)
    span_hi = min(y + 0.85*z_max, 2.0*math.sqrt(1.0 + x)*(1.0 - 1e-12))
    spans = np.linspace(span_lo, span_hi, 41)
    rvals = root_r(x, 0.0, -spans)
    s_star = np.concatenate([(-1.0 - nu_half)*(1.0 + rvals),
                             (-1.0 + nu_half)*(1.0 + rvals)])
    pad = 0.2
    s_lo, s_hi = float(s_star.min() - pad), float(s_star.max() + pad)

    rate_z, rate_s, rate_nu = _window_rates(x, y, t, k, z_max, s_lo, s_hi,
                                            nu_half)
    zn, wzk, wzg, pz = _axis_nodes(-z_max, z_max, rate_z, k)
    sn, wsk, wsg, ps = _axis_nodes(s_lo, s_hi, rate_s, k)
    nn, wnk, wng, pn = _axis_nodes(-1.0 - nu_half, -1.0 + nu_half, rate_nu, k)

    # e^{ik Phi} = Pnu(nu) FZ(nu,z) K0(z,s) Q(nu,s) FS(s) by rho(z, mu, nu) =
    # rho(z, -nu, nu) + s z and e^{ik y mu} = e^{ik y s} e^{-ik y nu}; only
    # the weighted FZ is held whole, the rest is formed per block of s-columns
    FZ = np.exp(-1j*k*boundary_exponent_frozen(zn, -nn[:, None], nn[:, None]))
    gauss = wzg != 0.0
    FZG = FZ[:, gauss]*wzg[gauss]
    FZ *= wzk
    FS = np.exp(1j*k*y*sn)
    wsk, wsg = wsk*FS, wsg*FS
    Pnu = np.exp(1j*k*(t - y)*nn)
    pk, pg = wnk*Pnu, wng*Pnu

    v_kkk = v_gkk = v_kgk = v_kkg = 0j
    cols = max(1, _QUOTIENT_BLOCK//max(len(nn), len(zn)))
    for j in range(0, len(sn), cols):
        blk = slice(j, j + cols)
        phase = np.outer(zn, sn[blk])
        phase *= -k
        K0 = np.cos(phase) + 1j*np.sin(phase)  # faster than complex exp
        Q = airy_quotient(x, sn[blk] - nn[:, None], nn[:, None], k)
        EK = (FZ @ K0)*Q
        ek, eg = pk @ EK, pg @ EK
        v_kkk += ek @ wsk[blk]
        v_kgk += ek @ wsg[blk]
        v_kkg += eg @ wsk[blk]
        v_gkk += (pk @ ((FZG @ K0[gauss])*Q)) @ wsk[blk]

    pref = (k/(2.0*math.pi))**1.5
    value = pref*v_kkk
    err = pref*(abs(v_kkk - v_gkk) + abs(v_kkk - v_kgk) + abs(v_kkk - v_kkg))
    converged = err <= tol*(1.0 + abs(value))
    return QuadratureResult(complex(value), float(err), z_max,
                            pz*ps*pn, bool(converged))
